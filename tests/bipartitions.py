"""Every unordered bipartition of n qubits, the dense reference against which the library's one cut per
measured-block size is checked."""

from symcorr.qstate import Cut


def every_bipartition(n: int) -> list:
    """Each unordered bipartition once: the subsets of qubits 0..n-2 name the side without qubit n-1."""
    return [Cut.of(n, [q for q in range(n - 1) if (bits >> q) & 1]) for bits in range(1, 2 ** (n - 1))]
