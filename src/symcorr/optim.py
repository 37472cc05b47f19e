"""The discord angle search (batched grid scan, then Brent's method), its theta grid and angle folds."""

from __future__ import annotations

import math

import numpy as np

_GOLDEN_STEP = (3.0 - math.sqrt(5.0)) / 2.0
_SQRT_EPS = math.sqrt(2.2e-16)
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
    """(x, fn(x)), the lowest point found on [lo, hi] by Brent's bounded minimizer with absolute x tolerance
    `tol` / 2 (its stopping test adds sqrt(2.2e-16) |x|).

    Brent's method (*Algorithms for Minimization without Derivatives*, 1973, ch. 5) is golden section
    accelerated by parabolic interpolation: it steps to the vertex of the parabola through its three best
    points, and takes a golden-section step when that vertex is out of bounds or the steps stop shrinking.
    The name stays until the benchmark stops wrapping it by name (ROADMAP item 1(b))."""
    a, b, xatol = float(lo), float(hi), tol / 2.0
    x = w = v = a + _GOLDEN_STEP * (b - a)
    fx = fw = fv = fn(x)
    step = last = 0.0
    while True:
        mid, tol1 = (a + b) / 2.0, _SQRT_EPS * abs(x) + xatol / 3.0
        if abs(x - mid) <= 2.0 * tol1 - (b - a) / 2.0:
            return x, fx
        parabolic = False
        if abs(last) > tol1:  # the vertex of the parabola through (x, fx), (w, fw), (v, fv)
            r, q = (x - w) * (fx - fv), (x - v) * (fx - fw)
            p, q = (x - v) * q - (x - w) * r, 2.0 * (q - r)
            p, q = (-p if q > 0.0 else p), abs(q)
            last, prev = step, last
            parabolic = abs(p) < abs(q * prev / 2.0) and q * (a - x) < p < q * (b - x)
            if parabolic:
                step = p / q
                if x + step - a < 2.0 * tol1 or b - (x + step) < 2.0 * tol1:
                    step = tol1 if mid >= x else -tol1
        if not parabolic:
            last = (a if x >= mid else b) - x
            step = _GOLDEN_STEP * last
        u = x + (max(abs(step), tol1) if step >= 0.0 else -max(abs(step), tol1))
        fu = fn(u)
        if fu <= fx:
            a, b = (x, b) if u >= x else (a, x)
            v, fv, w, fw, x, fx = w, fw, x, fx, u, fu
        else:
            a, b = (u, b) if u < x else (a, u)
            if fu <= fw or w == x:
                v, fv, w, fw = w, fw, u, fu
            elif fu <= fv or v == x or v == w:
                v, fv = u, fu


def grid_golden_min(fn, axes, steps, tol: float = 1e-6) -> tuple[list, float]:
    """(point as a list of floats, value) minimizing `fn`, which maps a (d, N) array of points to N values.

    The tensor grid of `axes` goes in one call.  Each axis with a nonzero step is then refined by Brent's
    method (`golden_section_min`) on [x - step, x + step], unclipped, so a periodic `fn` needs no wrap; two
    such axes take three sweeps, each step an eighth of the last.  The grid point is kept if it is lower."""
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
