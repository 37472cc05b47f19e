"""Dense density-operator core for multi-qubit states, and the X form the state families are built from.

Conventions, fixed package-wide:

* Qubit 0 is the most significant bit of a computational-basis index, so the
  n-qubit basis state |b0 b1 ... b_{n-1}> sits at index sum_i b_i * 2**(n-1-i).
* All entropies are in bits (base-2 logarithms).
* Every value is immutable: constructors copy their input and mark the wrapped arrays read-only, so states
  can be shared freely across threads.  A dense state is checked positive when made, by the one eigensolve
  whose spectrum `eigenvalues` returns; a state built from its X form (`DensityMatrix.from_x`, which the
  families use) holds one `XState` and builds its matrix, then its spectrum, once each, under a lock.

Matrices are dense, with a practical cap of MAX_QUBITS qubits; a state built from its X form is dense only
once something reads its matrix.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Optional, Sequence

import numpy as np

MAX_QUBITS = 12

HERMITICITY_TOL = 1e-10
TRACE_TOL = 1e-10
EIGENVALUE_FLOOR = -1e-9  # more negative than this is a real PSD violation, not noise
NORM_TOL = 1e-12
PROBABILITY_FLOOR = 1e-12  # measurement branches below this count as unfired
_BRANCH_ENTRIES = 2**18  # branch-state entries per conditional-entropy slice, which bound its intermediates
UNITARITY_TOL = 1e-10
INVARIANCE_TOL = 1e-9
_BUILD_LOCK = threading.RLock()  # threads reading one `from_x` state get one matrix and one spectrum


def clamp_nonneg(x: float, what: str) -> float:
    """`x` clamped to 0 when within EIGENVALUE_FLOOR below it; a `what` further below raises ValueError."""
    if x < EIGENVALUE_FLOOR:
        raise ValueError(f"{what} evaluated to {x}, below the numerical slack")
    return max(x, 0.0)


def _spectrum(mat: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of `mat`, clamped to [0, 1] and read-only; ValueError if one is below -1e-9."""
    lam = np.linalg.eigvalsh(mat)
    if lam[0] < EIGENVALUE_FLOOR:
        raise ValueError(f"eigenvalue {lam[0]} below {EIGENVALUE_FLOOR}: state is not positive semidefinite")
    lam = np.clip(lam, 0.0, 1.0)
    lam.flags.writeable = False
    return lam


class QubitCapError(ValueError):
    """Raised when an operation would exceed the dense-matrix size cap."""


def check_integer(name: str, value, minimum: int) -> None:
    """Reject a `value` that is not an integer >= `minimum`; bools are rejected, numpy integers pass."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < minimum:
        raise ValueError(f"{name} must be an integer >= {minimum}, got {value!r}")


def check_qubit_count(n: int, minimum: int = 1) -> None:
    """Reject a qubit count that is not an integer >= `minimum` or exceeds the cap."""
    check_integer("qubit count", n, minimum)
    if n > MAX_QUBITS:
        raise QubitCapError(f"dense representation is capped at {MAX_QUBITS} qubits, got {n}")


def check_unit_interval(name: str, value) -> float:
    """`value` as a float; ValueError unless it is a real number in [0, 1]: NaN, bools and strings fail."""
    try:
        number = math.nan if isinstance(value, (bool, np.bool_, str, bytes)) else float(value)
    except (TypeError, ValueError, OverflowError):
        number = math.nan
    if not 0.0 <= number <= 1.0:
        raise ValueError(f"{name} must lie in [0, 1], got {value!r}")
    return number


def basis_bits(n: int) -> np.ndarray:
    """(2^n, n) table of 0/1 bits: row i holds the bits of basis index i, qubit 0 first."""
    return (np.arange(2**n)[:, None] >> np.arange(n - 1, -1, -1)) & 1


@lru_cache(maxsize=None)
def binomials(n: int) -> np.ndarray:
    """Read-only (n+1, n+1) table of C(i, j), zero for j > i; exact in floats for n <= 12."""
    table = np.array([[math.comb(i, j) for j in range(n + 1)] for i in range(n + 1)], dtype=float)
    table.flags.writeable = False
    return table


def rotation_matrix(theta, phi) -> np.ndarray:
    """cos(theta) I + i sin(theta) (cos(phi) sigma_y + sin(phi) sigma_x); angle arrays give a stack."""
    theta = np.asarray(theta, dtype=float)
    c, s = np.cos(theta), np.sin(theta)
    e = np.exp(1j * np.asarray(phi, dtype=float))
    r = np.empty(theta.shape + (2, 2), dtype=complex)
    r[..., 0, 0] = c
    r[..., 0, 1] = s * e
    r[..., 1, 0] = -s * e.conj()
    r[..., 1, 1] = c
    return r


def product_basis(factors: np.ndarray) -> np.ndarray:
    """Kronecker product of stacked factors [..., q, rows, cols], qubit 0 first, leading axes batching; a
    left fold of broadcast outer products, one multiply per entry in qubit order as in `reduce(np.kron)`."""
    *batch, count, rows, cols = factors.shape
    out = factors[..., 0, :, :]
    for q in range(1, count):
        out = out[..., :, None, :, None] * factors[..., q, None, :, None, :]
        out = out.reshape(*batch, rows ** (q + 1), cols ** (q + 1))
    return out


@dataclass(frozen=True)
class RotationAngles:
    """Per-qubit (theta, phi) arguments of `rotation_matrix`, theta in [0, pi), phi in [0, 2 pi)."""

    pairs: tuple

    def __post_init__(self):
        pairs = tuple((float(t), float(p)) for t, p in self.pairs)
        for t, p in pairs:
            if not 0.0 <= t < np.pi:
                raise ValueError(f"theta {t} outside [0, pi)")
            if not 0.0 <= p < 2.0 * np.pi:
                raise ValueError(f"phi {p} outside [0, 2 pi)")
        object.__setattr__(self, "pairs", pairs)

    @classmethod
    def uniform(cls, n_qubits: int, theta: float, phi: float) -> "RotationAngles":
        return cls(((theta, phi),) * n_qubits)

    @property
    def n_qubits(self) -> int:
        return len(self.pairs)


def x_entropy(d, z):
    """Entropy of the m-qubit X state with populations d[..., w] and corner z; leading axes batch."""
    m = d.shape[-1] - 1
    mean = (d[..., 0] + d[..., m]) / 2.0
    r = np.hypot((d[..., 0] - d[..., m]) / 2.0, np.abs(z))
    spectrum = np.concatenate([(mean + r)[..., None], (mean - r)[..., None], d[..., 1:m]], axis=-1)
    return shannon_entropy(spectrum[..., None]) @ np.concatenate([[1.0, 1.0], binomials(m)[m, 1:m]])


def _branch_sum(d, z, counts):
    """Sum over the branch axis -1 of counts b S(branch / b), populations d[..., i, :], corner z[..., i];
    leading axes batch, and branches below b = 1e-12 add nothing."""
    m = d.shape[-1] - 1
    b = d @ binomials(m)[m]
    keep = b >= PROBABILITY_FLOOR
    safe = np.where(keep, b, 1.0)
    return (np.where(keep, counts * b, 0.0) * x_entropy(d / safe[..., None], z / safe)).sum(axis=-1)


@dataclass(frozen=True, eq=False)
class XState:
    """Populations p_0..p_n by excitation count and the corner c = rho[0...0, 1...1], n >= 1; each spectrum
    is the populations, with binomial multiplicities, plus at most one 2 x 2 block (Yu & Eberly, QIC 7, 459
    (2007)).  Construction checks in O(n) that every population, and the smaller eigenvalue of
    [[p_0, c], [c*, p_n]], is at least EIGENVALUE_FLOOR, and marks the populations read-only, uncopied."""

    populations: np.ndarray
    corner: complex
    phi_step = 0.0  # phi enters only through cos(n phi - arg c), in which the entropy is concave

    def __post_init__(self):
        p0, pn = self.populations[0], self.populations[-1]
        lowest = min(self.populations.min(), (p0 + pn) / 2.0 - math.hypot((p0 - pn) / 2.0, abs(self.corner)))
        if not lowest >= EIGENVALUE_FLOOR:
            raise ValueError(
                f"eigenvalue {lowest} below {EIGENVALUE_FLOOR}: state is not positive semidefinite")
        self.populations.flags.writeable = False

    @property
    def corner_pair(self) -> tuple:
        """(rho[1...1, 0...0], rho[0...0, 1...1]) = (c*, c); a real corner keeps its +0j in both."""
        corner = self.corner
        return (corner.conjugate() if corner.imag else corner), corner

    def matrix(self) -> np.ndarray:
        """Read-only dense matrix: `populations[w]` at every index with w excitations, and `corner_pair` at
        [2^n - 1, 0] and [0, 2^n - 1]; O(4^n)."""
        mat = np.diag(self.populations.astype(complex)[basis_bits(self.populations.size - 1).sum(axis=1)])
        mat[-1, 0], mat[0, -1] = self.corner_pair
        mat.flags.writeable = False
        return mat

    @property
    def phis(self) -> np.ndarray:
        """arg c / n and (arg c + pi) / n, the two ends of cos(n phi - arg c); exact, so `phi_step` is 0."""
        return (np.angle(self.corner) + np.array([0.0, math.pi])) / (self.populations.size - 1)

    def entropy(self) -> float:
        return float(x_entropy(self.populations, self.corner))

    def block(self, k: int) -> XState:
        """Any k-qubit block, 0 < k < n: diagonal, populations summed over the traced qubits' counts."""
        m = self.populations.size - 1 - k
        return XState(np.correlate(self.populations, binomials(m)[m], "valid"), 0.0)

    def conditional_entropy(self, k: int):
        """ce over theta arrays of measuring a k-qubit block in `symmetric_basis(k, theta)`.

        Each weight-j sector probe, 0 < j < k, leaves populations p_{j+w} at every theta; the rotated
        extremal pair leaves cos^2 p_w + sin^2 p_{k+w} and sin^2 p_w + cos^2 p_{k+w}, corners +-cos sin c.
        """
        windows = np.lib.stride_tricks.sliding_window_view(self.populations, self.populations.size - k)
        fixed = _branch_sum(windows[1:k], np.zeros(k - 1), binomials(k)[k, 1:k])
        lo, hi = windows[0], windows[k]

        def ce(thetas):
            c, s = np.cos(thetas)[..., None], np.sin(thetas)[..., None]
            d = np.stack([c * c * lo + s * s * hi, s * s * lo + c * c * hi], axis=-2)
            return fixed + _branch_sum(d, np.array([1.0, -1.0]) * (c * s * self.corner), np.ones(2))

        return ce

    def weight_distribution(self):
        """Outcome probability per weight w after dephasing in R(theta, phi), a function of angle arrays.

        sum_{a,b} C(n-w, a) C(w, b) p_{a+b} sin^{2(a+w-b)} cos^{2(n-w-a+b)} (tabulated over w, a+w-b)
        + 2 Re(c e^{-i n phi}) (-1)^{n-w} (cos sin)^n.
        """
        n = self.populations.size - 1
        w, a, b = np.ogrid[: n + 1, : n + 1, : n + 1]  # C(n-w, a) C(w, b) vanishes off the sum
        terms = binomials(n)[n - w, a] * binomials(n)[w, b] * self.populations[np.minimum(a + b, n)]
        table = np.zeros((n + 1, n + 1))
        np.add.at(table, (np.broadcast_to(w, terms.shape), np.clip(a + w - b, 0, n)), terms)
        e = np.arange(n + 1)

        def distribution(thetas, phis):
            c, s = np.cos(thetas)[..., None], np.sin(thetas)[..., None]
            corner = 2.0 * (self.corner * np.exp(-1j * n * phis[..., None])).real * (c * s) ** n
            return (s ** (2 * e) * c ** (2 * (n - e))) @ table.T + corner * (-1.0) ** (n - e)

        return distribution


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Density operator of `n_qubits` qubits as a dense 2^n x 2^n matrix.

    Enforced on construction: Hermiticity (elementwise 1e-10), unit trace (1e-10) and positivity, by the one
    eigensolve, which rejects any eigenvalue below -1e-9 and keeps the rest, clamped to [0, 1], for
    `eigenvalues`.  A state made by `from_x` is checked in O(n), positivity included, holds its `XState` in
    `x_parts`, and builds `data` from it, and then its spectrum, on their first reads.
    """

    n_qubits: int
    data: np.ndarray
    x_parts = None  # the `XState` of a state made by `from_x`

    def __post_init__(self):
        check_qubit_count(self.n_qubits)
        dim = 2**self.n_qubits
        mat = np.array(self.data, dtype=complex)
        if mat.shape != (dim, dim):
            raise ValueError(f"matrix shape {mat.shape} does not match {dim} x {dim}")
        # `not x <= tol` so that NaN and Inf (Inf - Inf = NaN) fail both checks
        with np.errstate(invalid="ignore"):
            hermitian = np.abs(mat - mat.conj().T).max() <= HERMITICITY_TOL
        if not hermitian:
            raise ValueError("matrix is not Hermitian within tolerance 1e-10, or is not finite")
        tr = mat.trace()
        if not abs(tr - 1.0) <= TRACE_TOL:
            raise ValueError(f"trace {tr!r} is not 1 within tolerance 1e-10")
        mat.flags.writeable = False
        object.__setattr__(self, "data", mat)
        object.__setattr__(self, "_spectrum", _spectrum(mat))

    def __getattr__(self, name):
        # reached only while `data` or `_spectrum` is unset: on a `from_x` state, before its first read
        if name not in ("data", "_spectrum") or "x_parts" not in self.__dict__:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        with _BUILD_LOCK:  # reentrant, as the spectrum is solved from `data`
            if name not in self.__dict__:
                value = self.x_parts.matrix() if name == "data" else _spectrum(self.data)
                object.__setattr__(self, name, value)
        return self.__dict__[name]

    @classmethod
    def from_x(cls, n_qubits: int, populations, corner: complex) -> "DensityMatrix":
        """The X state with `populations[w]` on every basis state of w excitations, w = 0..n, and `corner`
        at [0...0, 1...1], its conjugate mirrored; n >= 2.

        Checked in O(n) instead of the O(4^n) scan: the entries are finite, the populations real numbers
        (bool, integer, float, or complex with no imaginary part), the trace sum_w C(n, w) p_w is 1 within
        1e-10, and `XState` finds the form positive semidefinite.
        `data` is built on its first read, with exactly the entries listed here.
        """
        check_qubit_count(n_qubits, minimum=2)
        pops = np.array(populations)  # the one conversion: float64 input, as the families give, is stored
        corner = complex(corner)
        if pops.shape != (n_qubits + 1,):
            raise ValueError(f"need {n_qubits + 1} populations, got shape {pops.shape}")
        if not np.isfinite(corner) or (pops.dtype.kind in "fc" and not np.isfinite(pops).all()):
            raise ValueError("populations and corner must be finite")
        if pops.dtype.kind not in "biufc" or (pops.dtype.kind == "c" and pops.imag.any()):
            raise ValueError("populations must be real")
        pops = np.ascontiguousarray(pops.real, dtype=float)  # a no-op for float64 input
        tr = float(pops @ binomials(n_qubits)[n_qubits])
        if not abs(tr - 1.0) <= TRACE_TOL:
            raise ValueError(f"trace {tr!r} is not 1 within tolerance 1e-10")
        rho = object.__new__(cls)
        object.__setattr__(rho, "n_qubits", n_qubits)
        object.__setattr__(rho, "x_parts", XState(pops, corner))
        return rho

    @classmethod
    def from_matrix(cls, mat) -> "DensityMatrix":
        """The state whose matrix is `mat`, of side 2^n for some n >= 1 (integer arithmetic only)."""
        mat = np.asarray(mat, dtype=complex)
        length = mat.shape[0]
        if length < 2 or length & (length - 1):
            raise ValueError(f"length {length} is not a positive power of two")
        return cls(length.bit_length() - 1, mat)

    @classmethod
    def maximally_mixed(cls, n_qubits: int) -> "DensityMatrix":
        check_qubit_count(n_qubits)  # before the 4^n allocation
        dim = 2**n_qubits
        return cls(n_qubits, np.eye(dim) / dim)

    @property
    def dim(self) -> int:
        return 2**self.n_qubits

    def eigenvalues(self) -> np.ndarray:
        """Ascending eigenvalues, clamped to [0, 1] and read-only; solved once per state."""
        return self._spectrum


@dataclass(frozen=True)
class Cut:
    """Bipartition of the qubits into a measured block and the remainder."""

    measured: frozenset
    remainder: frozenset

    def __post_init__(self):
        measured = frozenset(int(q) for q in self.measured)
        remainder = frozenset(int(q) for q in self.remainder)
        if not measured or not remainder:
            raise ValueError("both blocks of a cut must be nonempty")
        if measured & remainder:
            raise ValueError("the two blocks of a cut must be disjoint")
        union = measured | remainder
        if union != set(range(len(union))):
            raise ValueError(f"cut blocks must union to 0..n-1, got {sorted(union)}")
        object.__setattr__(self, "measured", measured)
        object.__setattr__(self, "remainder", remainder)

    @classmethod
    def of(cls, n_qubits: int, measured: Iterable[int]) -> "Cut":
        measured = frozenset(int(q) for q in measured)
        return cls(measured, frozenset(range(n_qubits)) - measured)

    @property
    def n_qubits(self) -> int:
        return len(self.measured) + len(self.remainder)


def enumerate_cuts(n: int) -> list:
    """Cuts that the genuine-correlation minimizations visit: one per measured-block size k = 1..n/2, the
    last k qubits (permutation invariance makes every cut of that size equivalent)."""
    return [Cut.of(n, range(n - k, n)) for k in range(1, n // 2 + 1)]


def tensor(a: DensityMatrix, b: DensityMatrix) -> DensityMatrix:
    """Kronecker product of two states; `a`'s qubits become the leading ones."""
    check_qubit_count(a.n_qubits + b.n_qubits)  # before the 4^n allocation
    return DensityMatrix(a.n_qubits + b.n_qubits, np.kron(a.data, b.data))


def _leading_view(rho: DensityMatrix, lead: Sequence[int]) -> np.ndarray:
    """`rho` as a (d_lead, d_rest, d_lead, d_rest) array, the sorted `lead` qubits first."""
    n = rho.n_qubits
    order = list(lead) + [q for q in range(n) if q not in lead]
    t = rho.data.reshape((2,) * (2 * n)).transpose(order + [n + a for a in order])
    d_lead = 2 ** len(lead)
    d_rest = 2**n // d_lead
    return t.reshape(d_lead, d_rest, d_lead, d_rest)


def partial_trace(rho: DensityMatrix, keep: Iterable[int]) -> DensityMatrix:
    """Reduced state on the qubits in `keep`, relative ordering preserved."""
    n = rho.n_qubits
    keep = sorted(set(int(q) for q in keep))
    if not keep:
        raise ValueError("keep set must be nonempty")
    if keep[0] < 0 or keep[-1] >= n:
        raise ValueError(f"keep set {keep} out of range for {n} qubits")
    return DensityMatrix(len(keep), np.trace(_leading_view(rho, keep), axis1=1, axis2=3))


def shannon_entropy(probs) -> float | np.ndarray:
    """Base-2 entropy of a probability vector, with 0*log(0) = 0.

    A 2-D array gives one entropy per row.  Small negative entries (down to
    -1e-9) are treated as numerical noise and clamped; anything more negative
    raises.
    """
    p = np.asarray(probs, dtype=float)
    if p.size and not p.min() >= EIGENVALUE_FLOOR:
        raise ValueError(f"probability {p.min()} below {EIGENVALUE_FLOOR}")
    p = np.clip(p, 0.0, 1.0)
    terms = p * np.log2(np.where(p > 0.0, p, 1.0))
    if p.ndim == 1:
        # nonzero terms only: zeros would regroup numpy's pairwise sum and
        # shift eigenvalue entropies by ulps, enough to move Powell searches
        return float(-terms[p > 0.0].sum())
    return -terms.sum(axis=-1)


def von_neumann_entropy(rho: DensityMatrix) -> float:
    """Entropy -sum(lam * log2 lam) over the eigenvalues of `rho`, in bits."""
    return shannon_entropy(rho.eigenvalues())


def total_correlations(rho: DensityMatrix) -> float:
    """Sum of all single-qubit reduced entropies minus the global entropy."""
    check_qubit_count(rho.n_qubits, minimum=2)
    s = sum(von_neumann_entropy(partial_trace(rho, {j})) for j in range(rho.n_qubits))
    return float(s - von_neumann_entropy(rho))


def mutual_information(rho: DensityMatrix, cut: Cut) -> float:
    """S(A) + S(B) - S(AB) for the two blocks of `cut`."""
    if cut.n_qubits != rho.n_qubits:
        raise ValueError("cut does not match the state's qubit count")
    sa = von_neumann_entropy(partial_trace(rho, cut.measured))
    sb = von_neumann_entropy(partial_trace(rho, cut.remainder))
    return sa + sb - von_neumann_entropy(rho)


def _branches(rho: DensityMatrix, cut: Cut, probes) -> tuple[np.ndarray, np.ndarray]:
    """Probabilities b[..., i] and remainder states of the branches, one per probe row [..., i, :]; leading
    axes batch, and a branch below 1e-12 gets weight 0 and keeps its state unnormalized."""
    if cut.n_qubits != rho.n_qubits:
        raise ValueError("cut does not match the state's qubit count")
    measured = sorted(cut.measured)
    v = np.asarray(probes, dtype=complex)
    if v.ndim < 2 or v.shape[-1] != 2 ** len(measured):
        raise ValueError(f"probe rows {v.shape} do not fit {len(measured)} measured qubits")
    if not np.all(np.abs(np.linalg.norm(v, axis=-1) - 1.0) <= NORM_TOL):  # NaN fails too
        raise ValueError(f"probe rows are not unit vectors within {NORM_TOL}")
    m = np.einsum("...ix,xrys,...iy->...irs", v.conj(), _leading_view(rho, measured), v)
    b = np.trace(m, axis1=-2, axis2=-1).real
    b = np.where(b >= PROBABILITY_FLOOR, b, 0.0)
    # rescaling can amplify asymmetry noise
    return b, (m + m.conj().swapaxes(-1, -2)) / (2.0 * np.where(b > 0.0, b, 1.0)[..., None, None])


def conditional_state(rho: DensityMatrix, cut: Cut, probe) -> tuple[float, DensityMatrix | None]:
    """Outcome probability and post-measurement state on the remainder.

    Projects the measured block of `cut` onto `probe`, a unit vector of length
    2^k indexed by the k measured qubits in ascending order; any other probe
    raises ValueError.  When the branch probability falls below 1e-12 the
    branch is reported as (0.0, None); such branches contribute nothing to a
    conditional entropy.
    """
    probe = np.asarray(probe, dtype=complex)
    if probe.ndim != 1:
        raise ValueError(f"probe must be one vector, got shape {probe.shape}")
    b, m = _branches(rho, cut, probe[None, :])
    if not b[0]:
        return 0.0, None
    return float(b[0]), DensityMatrix(rho.n_qubits - len(cut.measured), m[0])


def conditional_entropy(rho: DensityMatrix, cut: Cut, probes) -> float | np.ndarray:
    """Sum of b_i S(rho_i) over the branches of measuring `cut`'s block on each row of `probes`.

    Rows are unit vectors indexed as `conditional_state`'s probe; branches below 1e-12 add nothing.  Leading
    axes of `probes` batch probe sets, one value each (a float for one 2-D set); each slice of at most 2^18
    branch-state entries is measured in one `einsum`, its spectra taken from one batched eigensolve.
    """
    v = np.asarray(probes, dtype=complex)

    def measure(sets):
        b, states = _branches(rho, cut, sets)
        return (b[..., None, :] @ shannon_entropy(np.linalg.eigvalsh(states))[..., :, None])[..., 0, 0]

    if v.ndim <= 2:
        return float(measure(v))
    sets = v.reshape(np.prod(v.shape[:-2], dtype=int), *v.shape[-2:])
    step = _BRANCH_ENTRIES // max(1, sets.shape[1] * 4 ** len(cut.remainder)) or 1
    starts = range(0, max(len(sets), 1), step)  # an empty stack still gets its one slice checked
    return np.concatenate([measure(sets[i : i + step]) for i in starts]).reshape(v.shape[:-2])


def embed_operator(op: np.ndarray, qubits: Sequence[int], n_qubits: int) -> np.ndarray:
    """Extend `op`, acting on the listed qubits (in that order), to n qubits."""
    qubits = [int(q) for q in qubits]
    m = len(qubits)
    if len(set(qubits)) != m or any(q < 0 or q >= n_qubits for q in qubits):
        raise ValueError(f"invalid qubit list {qubits} for {n_qubits} qubits")
    op = np.asarray(op, dtype=complex)
    if op.shape != (2**m, 2**m):
        raise ValueError(f"operator shape {op.shape} does not match {m} qubits")
    rest = [q for q in range(n_qubits) if q not in qubits]
    full = np.kron(op, np.eye(2 ** len(rest)))
    pos = {q: i for i, q in enumerate(qubits + rest)}
    row_axes = [pos[q] for q in range(n_qubits)]
    t = full.reshape((2,) * (2 * n_qubits))
    t = t.transpose(row_axes + [a + n_qubits for a in row_axes])
    d = 2**n_qubits
    return t.reshape(d, d)


def permutation_unitary(n_qubits: int, perm: Sequence[int]) -> np.ndarray:
    """Unitary sending qubit i to position perm[i]."""
    perm = [int(p) for p in perm]
    if sorted(perm) != list(range(n_qubits)):
        raise ValueError(f"{perm} is not a permutation of 0..{n_qubits - 1}")
    weights = 2 ** (n_qubits - 1 - np.array(perm, dtype=int))  # bit i of an index moves to position perm[i]
    return np.eye(2**n_qubits)[:, basis_bits(n_qubits) @ weights]  # a 1 at (dst, src)


def is_invariant_under(
    rho: DensityMatrix, u: np.ndarray, qubits: Optional[Sequence[int]] = None
) -> bool:
    """True iff conjugating `rho` by `u` changes no element by more than 1e-9.

    `u` may act on a subset of qubits (listed in `qubits`, matching the
    operator's own qubit order); it is then embedded into the full register.
    """
    u = np.asarray(u, dtype=complex)
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        raise ValueError("u must be a square matrix")
    if np.abs(u.conj().T @ u - np.eye(u.shape[0])).max() > UNITARITY_TOL:
        raise ValueError("u is not unitary within tolerance 1e-10")
    if qubits is None:
        if u.shape[0] != rho.dim:
            raise ValueError("full-register operator has the wrong dimension")
        full = u
    else:
        full = embed_operator(u, qubits, rho.n_qubits)
    rotated = full.conj().T @ rho.data @ full
    return bool(np.abs(rotated - rho.data).max() <= INVARIANCE_TOL)


def require_permutation_symmetric(rho: DensityMatrix, context: str) -> None:
    """Raise unless `rho` is invariant under every permutation of its qubits.

    The swap (0 1) and the n-cycle generate the symmetric group, so invariance
    under those two suffices.  Each is applied as an axis transpose of the
    (2,)*2n tensor, O(4^n), and compared elementwise within 1e-9.
    """
    n = rho.n_qubits
    check_qubit_count(n, minimum=2)
    t = rho.data.reshape((2,) * (2 * n))
    for perm in ([1, 0] + list(range(2, n)), [(i + 1) % n for i in range(n)]):
        moved = t.transpose(perm + [n + q for q in perm])
        if not np.abs(moved - t).max() <= INVARIANCE_TOL:
            raise ValueError(
                f"{context} requires a permutation-invariant state; "
                "symcorr.oracle (brute-force, up to 4 qubits) takes arbitrary states"
            )
