"""Dense density-operator core for multi-qubit states.

Conventions, fixed package-wide:

* Qubit 0 is the most significant bit of a computational-basis index, so the
  n-qubit basis state |b0 b1 ... b_{n-1}> sits at index sum_i b_i * 2**(n-1-i).
* All entropies are in bits (base-2 logarithms).
* Every value is immutable: constructors copy their input and mark the wrapped
  arrays read-only, so states can be shared freely across threads.

Matrices are dense, with a practical cap of MAX_QUBITS qubits.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np

MAX_QUBITS = 12

HERMITICITY_TOL = 1e-10
TRACE_TOL = 1e-10
EIGENVALUE_FLOOR = -1e-9  # more negative than this is a real PSD violation, not noise
NORM_TOL = 1e-12
PROBABILITY_FLOOR = 1e-12  # measurement branches below this count as unfired
UNITARITY_TOL = 1e-10
INVARIANCE_TOL = 1e-9


class QubitCapError(ValueError):
    """Raised when an operation would exceed the dense-matrix size cap."""


def check_qubit_count(n: int, minimum: int = 1) -> None:
    """Reject a qubit count that is not an integer >= `minimum` or exceeds the cap."""
    if not isinstance(n, (int, np.integer)) or n < minimum:
        raise ValueError(f"qubit count must be an integer >= {minimum}, got {n!r}")
    if n > MAX_QUBITS:
        raise QubitCapError(
            f"dense representation is capped at {MAX_QUBITS} qubits, got {n}"
        )


def _qubits_for_length(length: int) -> int:
    """n such that `length` == 2^n, n >= 1; integer arithmetic only."""
    if length < 2 or length & (length - 1):
        raise ValueError(f"length {length} is not a positive power of two")
    return length.bit_length() - 1


@dataclass(frozen=True, eq=False)
class PureState:
    """State vector of `n_qubits` qubits, unit norm within 1e-12."""

    n_qubits: int
    amplitudes: np.ndarray

    def __post_init__(self):
        check_qubit_count(self.n_qubits)
        vec = np.array(self.amplitudes, dtype=complex).reshape(-1)
        if vec.shape != (2**self.n_qubits,):
            raise ValueError(
                f"amplitude vector has length {vec.size}, expected {2**self.n_qubits}"
            )
        norm = np.linalg.norm(vec)
        if not abs(norm - 1.0) <= NORM_TOL:  # NaN fails too
            raise ValueError(f"state vector norm {norm!r} is not 1 within {NORM_TOL}")
        vec.flags.writeable = False
        object.__setattr__(self, "amplitudes", vec)

    @classmethod
    def from_vector(cls, vec) -> "PureState":
        vec = np.asarray(vec, dtype=complex).reshape(-1)
        return cls(_qubits_for_length(vec.size), vec)

    @classmethod
    def basis_state(cls, n_qubits: int, index: int) -> "PureState":
        vec = np.zeros(2**n_qubits, dtype=complex)
        vec[index] = 1.0
        return cls(n_qubits, vec)

    @property
    def dim(self) -> int:
        return 2**self.n_qubits

    def to_density_matrix(self) -> "DensityMatrix":
        return DensityMatrix(self.n_qubits, np.outer(self.amplitudes, self.amplitudes.conj()))


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Density operator of `n_qubits` qubits as a dense 2^n x 2^n matrix.

    Enforced on construction: Hermiticity (elementwise 1e-10) and unit trace
    (1e-10).  Positivity is enforced lazily: `eigenvalues` rejects any
    eigenvalue below -1e-9 and clamps the remaining numerical noise to [0, 1].
    """

    n_qubits: int
    data: np.ndarray

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

    @classmethod
    def from_matrix(cls, mat) -> "DensityMatrix":
        mat = np.asarray(mat, dtype=complex)
        return cls(_qubits_for_length(mat.shape[0]), mat)

    @classmethod
    def maximally_mixed(cls, n_qubits: int) -> "DensityMatrix":
        dim = 2**n_qubits
        return cls(n_qubits, np.eye(dim) / dim)

    @property
    def dim(self) -> int:
        return 2**self.n_qubits

    def eigenvalues(self) -> np.ndarray:
        """Ascending eigenvalues, clamped to [0, 1] after the PSD noise check."""
        evals = np.linalg.eigvalsh(self.data)
        if evals.min() < EIGENVALUE_FLOOR:
            raise ValueError(
                f"eigenvalue {evals.min()} below {EIGENVALUE_FLOOR}: state is not "
                "positive semidefinite"
            )
        return np.clip(evals, 0.0, 1.0)


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


def enumerate_cuts(n: int, mode: str) -> list:
    """Cuts that the genuine-correlation minimizations visit.

    Symmetric mode gives one cut per measured-block size k = 1..n/2 (the
    invariance makes every cut of that size equivalent); general mode gives
    every unordered bipartition once.
    """
    if mode == "symmetric":
        return [Cut.of(n, range(n - k, n)) for k in range(1, n // 2 + 1)]
    if mode == "general":
        # subsets of qubits 0..n-2 hit each unordered bipartition exactly once
        return [
            Cut.of(n, [q for q in range(n - 1) if (bits >> q) & 1])
            for bits in range(1, 2 ** (n - 1))
        ]
    raise ValueError(f"mode must be 'symmetric' or 'general', got {mode!r}")


def tensor(a: DensityMatrix, b: DensityMatrix) -> DensityMatrix:
    """Kronecker product of two states; `a`'s qubits become the leading ones."""
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
    if not p.min() >= EIGENVALUE_FLOOR:
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
    if rho.n_qubits < 2:
        raise ValueError("total correlations need at least 2 qubits")
    s = sum(von_neumann_entropy(partial_trace(rho, {j})) for j in range(rho.n_qubits))
    return float(s - von_neumann_entropy(rho))


def mutual_information(rho: DensityMatrix, cut: Cut) -> float:
    """S(A) + S(B) - S(AB) for the two blocks of `cut`."""
    if cut.n_qubits != rho.n_qubits:
        raise ValueError("cut does not match the state's qubit count")
    sa = von_neumann_entropy(partial_trace(rho, cut.measured))
    sb = von_neumann_entropy(partial_trace(rho, cut.remainder))
    return sa + sb - von_neumann_entropy(rho)


def conditional_state(
    rho: DensityMatrix, cut: Cut, probe: PureState
) -> tuple[float, Optional[DensityMatrix]]:
    """Outcome probability and post-measurement state on the remainder.

    Projects the measured block of `cut` onto `probe` (indexed by the measured
    qubits in ascending order).  When the branch probability falls below 1e-12
    the branch is reported as (0.0, None); such branches contribute nothing to
    a conditional entropy.
    """
    measured = sorted(cut.measured)
    if cut.n_qubits != rho.n_qubits:
        raise ValueError("cut does not match the state's qubit count")
    if probe.n_qubits != len(measured):
        raise ValueError(
            f"probe acts on {probe.n_qubits} qubits, measured block has {len(measured)}"
        )
    v = probe.amplitudes
    m = np.einsum("x,xrys,y->rs", v.conj(), _leading_view(rho, measured), v)
    b = float(m.trace().real)
    if b < PROBABILITY_FLOOR:
        return 0.0, None
    m = (m + m.conj().T) / (2.0 * b)  # rescaling can amplify asymmetry noise
    return b, DensityMatrix(rho.n_qubits - len(measured), m)


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
    dim = 2**n_qubits
    u = np.zeros((dim, dim))
    for src in range(dim):
        dst = 0
        for i in range(n_qubits):
            bit = (src >> (n_qubits - 1 - i)) & 1
            dst |= bit << (n_qubits - 1 - perm[i])
        u[dst, src] = 1.0
    return u


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
    if n < 2:
        raise ValueError(f"{context} needs at least 2 qubits, got {n}")
    t = rho.data.reshape((2,) * (2 * n))
    for perm in ([1, 0] + list(range(2, n)), [(i + 1) % n for i in range(n)]):
        moved = t.transpose(perm + [n + q for q in perm])
        if not np.abs(moved - t).max() <= INVARIANCE_TOL:
            raise ValueError(
                f"{context} requires a permutation-invariant state; "
                "use mode='general' (brute-force oracle) for arbitrary states"
            )
