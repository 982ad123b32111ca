"""Exact and configurable-precision toolkit for osculating-hyperplane means.

The package builds curves from t-powers and log-powers, computes their
Wronskian minors exactly, intersects the resulting osculating hyperplanes,
and verifies every identity along the way -- symbolically where the identity
is rational, numerically (at runtime-selectable precision) where the inputs
are transcendental.

The package root re-exports the library surface the README documents;
everything else is imported from its submodule.
"""

from .errors import OscmeanError
from .logpoly import LogPoly
from .means import identric_IZ, intersect, mean_M, neuman_LN
from .wronskian import closed_form_v, make_log_curve, wronskian_full, wronskian_minor

__version__ = "0.1.0"

__all__ = [
    "LogPoly",
    "OscmeanError",
    "closed_form_v",
    "identric_IZ",
    "intersect",
    "make_log_curve",
    "mean_M",
    "neuman_LN",
    "wronskian_full",
    "wronskian_minor",
]
