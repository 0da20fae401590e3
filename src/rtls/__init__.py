"""Weighted and Tikhonov-regularized total least squares, desk scale.

Finite-dimensional models of the TLS family

    min |A - X|_{2,W}^2 + |Xx - b|_W^2            (+ |Tx|^2 regularized)

with the one-variable reduction through the rank-one lift, an exact scalar
dual and a Dinkelbach solver for T = sqrt(rho) I, a semidefinite
certificate of the infimum, a classic SVD baseline, and a laboratory of
unattained-infimum constructions.

Importing the package loads none of its modules: import each name from the
module that defines it (``from rtls.model import ProblemSpec``).
"""

__version__ = "0.1.0"
