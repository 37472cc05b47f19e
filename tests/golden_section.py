"""Plain golden-section search, the method `optim.golden_section_min` used before Brent's method, kept as the
reference its values are checked against."""

import math

_INV_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def golden_section(fn, lo: float, hi: float, tol: float = 1e-6) -> tuple[float, float]:
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
