"""One-dimensional minimizers and the canonical angle fold shared by the measurement-angle searches."""

from __future__ import annotations

import math

import numpy as np

_INV_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
_SEAM_TOL = 1e-6


def fold_theta(theta: float) -> float:
    """Canonical representative in (0, pi/2] of an angle whose projector set has period pi/2.

    Angles at most 1e-6 past a multiple of pi/2 read as pi/2.
    """
    t = theta % (math.pi / 2.0)
    if t <= _SEAM_TOL:
        return math.pi / 2.0
    return t


def golden_section_min(fn, lo: float, hi: float, tol: float = 1e-6) -> tuple[float, float]:
    """Minimum of a unimodal function on [lo, hi] to interval width `tol`."""
    a, b = float(lo), float(hi)
    x1 = b - _INV_GOLDEN * (b - a)
    x2 = a + _INV_GOLDEN * (b - a)
    f1, f2 = fn(x1), fn(x2)
    while b - a > tol:
        if f1 < f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - _INV_GOLDEN * (b - a)
            f1 = fn(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + _INV_GOLDEN * (b - a)
            f2 = fn(x2)
    x = (a + b) / 2.0
    return x, fn(x)


def grid_golden_min(fn, lo: float, hi: float, num: int = 64, tol: float = 1e-6) -> tuple[float, float]:
    """Coarse grid scan followed by golden-section refinement around the best point."""
    xs = np.linspace(lo, hi, num)
    vals = [fn(x) for x in xs]
    i = int(np.argmin(vals))
    a = xs[max(i - 1, 0)]
    b = xs[min(i + 1, num - 1)]
    x, fx = golden_section_min(fn, a, b, tol=tol)
    if vals[i] < fx:
        return float(xs[i]), float(vals[i])
    return float(x), float(fx)
