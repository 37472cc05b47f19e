"""The discord angle search (batched grid scan, then golden section), its theta grid and angle folds."""

from __future__ import annotations

import math

import numpy as np

_INV_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
_SEAM_TOL = 1e-6

THETA_STEP = math.pi / 128.0
THETA_GRID = THETA_STEP * np.arange(1.0, 65.0)  # 64 angles on (0, pi/2], the period of a projector set
THETA_GRID.flags.writeable = False


def fold_theta(theta: float) -> float:
    """Canonical representative in (0, pi/2] of an angle whose projector set has period pi/2.

    Angles at most 1e-6 past a multiple of pi/2 read as pi/2.
    """
    t = theta % (math.pi / 2.0)
    if t <= _SEAM_TOL:
        return math.pi / 2.0
    return t


def fold_angles(theta: float, phi: float) -> tuple[float, float]:
    """Canonical (theta, phi) of R(theta, phi) in (0, pi/2] x [0, pi): (pi/2 - theta, phi + pi) gives the
    same product basis, and phi reads 0 at theta = pi/2, where the basis is the computational one."""
    half_turns, phi = divmod(phi, math.pi)  # the remainder rounds up to pi for a phi just below k pi
    theta = fold_theta(theta if half_turns % 2.0 == 0.0 else math.pi / 2.0 - theta)
    return theta, (0.0 if theta == math.pi / 2.0 else min(phi, math.nextafter(math.pi, 0.0)))


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


def grid_golden_min(fn, axes, steps, tol: float = 1e-6) -> tuple[list, float]:
    """(point as a list of floats, value) minimizing `fn`, which maps a (d, N) array of points to N values.

    The tensor grid of `axes` goes in one call.  Each axis with a nonzero step is then refined by golden
    section on [x - step, x + step], unclipped, so a periodic `fn` needs no wrap; two such axes take three
    sweeps, each step an eighth of the last.  The grid point is kept if it is lower."""
    grid = np.stack([a.ravel() for a in np.meshgrid(*axes, indexing="ij")])
    values = fn(grid)
    best = int(np.argmin(values))
    x, fx, widths = grid[:, best].copy(), float(values[best]), np.array(steps, dtype=float)
    free = np.flatnonzero(widths)
    for _ in range(3 if free.size > 1 else 1):
        for d in free:
            point = x[:, None].copy()

            def along(v, d=d, point=point):
                point[d] = v
                return float(fn(point)[0])
            x[d], fx = golden_section_min(along, x[d] - widths[d], x[d] + widths[d], tol=tol)
        widths /= 8.0
    if values[best] < fx:
        return grid[:, best].tolist(), float(values[best])
    return x.tolist(), fx
