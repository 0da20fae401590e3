"""Spans around the calls into each rtls layer, recorded from outside the package.

Each name is wrapped in the namespace where the caller looks it up: patching
``rtls.trs.trs_equality`` alone would count nothing, because ``rtls.solver``
imports it by name.  Spans are kept in memory as
``(name, op, parent, start_ns, end_ns)`` and only recorded inside an op, so
the benchmark's own numpy calls are not counted.  Layer times are scaled by
the speed factor of the op they belong to, as the end-to-end times are.
"""

from __future__ import annotations

import functools
import importlib
import os
import time
from collections import defaultdict

# (module, attribute path, span name)
TARGETS = (
    ("rtls.cli", "main", "cli.main"),
    ("rtls.cli", "solve_tstar", "solver.solve_tstar"),
    ("rtls.cli", "classify_existence", "solver.classify"),
    ("rtls.cli", "recover_pair", "reduction.recover_pair"),
    ("rtls.cli", "certify_tstar", "certificate.certify"),
    ("rtls.cli", "solve_rtls_general_t", "solver.general_t"),
    ("rtls.io", "load_problem", "io.load"),
    ("rtls.io", "write_json", "io.write"),
    ("rtls.model", "WeightOperator.dense", "model.weight_build"),
    ("rtls.model", "WeightOperator.diagonal", "model.weight_build"),
    ("rtls.solver", "eval_phi", "solver.eval_phi"),
    ("rtls.solver", "radial_values", "trs.radial_values"),
    ("rtls.solver", "trs_equality", "trs.trs_equality"),
    ("rtls.solver", "newton_polish", "solver.newton"),
    ("rtls.solver", "eval_g", "solver.eval_g"),
    ("rtls.solver", "minimize", "solver.lbfgs"),
    ("rtls.trs", "brentq", "trs.brentq"),
    ("rtls.certificate", "feasible_at_t", "certificate.feasible_at_t"),
    ("numpy.linalg", "eigh", "model.eigh"),
    ("numpy.linalg", "eigvalsh", "certificate.eigvalsh"),
)


class Tracer:
    """Installs the wrappers, records spans, and restores the originals."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.op = -1
        self.speed = {}  # op -> speed factor
        self.bytes_read = 0
        self._saved = []

    def call(self, op, fn, *args):
        """Run fn(*args) as op number ``op``; spans are recorded only here."""
        self.op = op
        try:
            return fn(*args)
        finally:
            self.op = -1

    def _wrap(self, fn, name):
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.op < 0:
                return fn(*args, **kwargs)
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                spans[index] = (name, self.op, parent, start, clock())
                stack.pop()

        return traced

    def install(self):
        for module_name, attr, name in TARGETS:
            owner = importlib.import_module(module_name)
            *outer, leaf = attr.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = owner.__dict__[leaf]
            if isinstance(original, classmethod):
                patched = classmethod(self._wrap(original.__func__, name))
            else:
                patched = self._wrap(original, name)
            if name == "io.load":
                patched = self._count_bytes(patched)
            self._saved.append((owner, leaf, original))
            setattr(owner, leaf, patched)

    def _count_bytes(self, fn):
        @functools.wraps(fn)
        def load(path, *args, **kwargs):
            if self.op >= 0:
                self.bytes_read += os.path.getsize(path)
            return fn(path, *args, **kwargs)

        return load

    def restore(self):
        while self._saved:
            owner, leaf, original = self._saved.pop()
            setattr(owner, leaf, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name,op,parent,start_ns,end_ns\n")
            for span in self.spans:
                fh.write(",".join(map(str, span)) + "\n")


def layer_metrics(tracer, ops):
    """Per-op layer numbers from the recorded spans: name -> (value, unit)."""
    total_ns = defaultdict(float)
    calls = defaultdict(int)
    child_ns = defaultdict(float)  # scaled time covered by direct children, per span
    # an op that raised has no speed factor; its spans stay unscaled
    for name, op, parent, start, end in tracer.spans:
        scaled = (end - start) * tracer.speed.get(op, 1.0)
        total_ns[name] += scaled
        calls[name] += 1
        if parent >= 0:
            child_ns[parent] += scaled
    cli_self = sum(
        (end - start) * tracer.speed.get(op, 1.0) - child_ns[i]
        for i, (name, op, _parent, start, end) in enumerate(tracer.spans)
        if name == "cli.main"
    )
    ops = max(ops, 1)

    def ms(ns):
        return ns / 1e6 / ops, "ms"

    def per_op(count, unit="count"):
        return count / ops, unit

    def per_phi(count):
        return (count / phi if phi else 0.0), "ratio"

    phi = calls["solver.eval_phi"]
    return {
        "cli.self_ms": ms(cli_self),
        "io.load_ms": ms(total_ns["io.load"]),
        "io.write_ms": ms(total_ns["io.write"]),
        "io.bytes_read": per_op(tracer.bytes_read, "bytes"),
        "model.weight_build_ms": ms(total_ns["model.weight_build"]),
        "model.eigh_calls": per_op(calls["model.eigh"]),
        "model.eigh_ms": ms(total_ns["model.eigh"]),
        "solver.dinkelbach_iters": per_op(phi),
        "solver.eval_phi_ms": ms(total_ns["solver.eval_phi"]),
        "solver.newton_ms": ms(total_ns["solver.newton"]),
        "solver.classify_ms": ms(total_ns["solver.classify"]),
        "solver.general_t_ms": ms(total_ns["solver.general_t"]),
        "solver.eval_g_calls": per_op(calls["solver.eval_g"]),
        "solver.lbfgs_ms": ms(total_ns["solver.lbfgs"]),
        "trs.trs_equality_calls": per_op(calls["trs.trs_equality"]),
        "trs.trs_equality_ms": ms(total_ns["trs.trs_equality"]),
        "trs.brentq_calls": per_op(calls["trs.brentq"]),
        "trs.radial_values_calls": per_op(calls["trs.radial_values"]),
        "trs.radial_values_ms": ms(total_ns["trs.radial_values"]),
        "trs.radial_scans_per_phi": per_phi(calls["trs.radial_values"]),
        "trs.trs_solves_per_phi": per_phi(calls["trs.trs_equality"]),
        "reduction.recover_pair_ms": ms(total_ns["reduction.recover_pair"]),
        "certificate.certify_ms": ms(total_ns["certificate.certify"]),
        "certificate.feasible_at_t_calls": per_op(calls["certificate.feasible_at_t"]),
        "certificate.eigvalsh_calls": per_op(calls["certificate.eigvalsh"]),
        "certificate.eigvalsh_ms": ms(total_ns["certificate.eigvalsh"]),
    }
