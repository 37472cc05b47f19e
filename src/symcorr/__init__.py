"""Multipartite correlation measures for symmetric n-qubit mixed states.

Genuine total, quantum and classical correlations, global discord and
generalized Svetlichny nonlocality, computed with symmetry-reduced
measurement optimizations and validated by brute-force oracles.
"""

__version__ = "0.7.0"

from .channels import ChannelSpec, amplitude_damp, apply_local_channel, kraus_operators, phase_damp
from .genuine import (
    CutReport,
    GenuineReport,
    bipartite_discord,
    entanglement_of_formation,
    genuine_correlations,
    koashi_winter_discord,
    wootters_concurrence,
)
from .global_discord import (
    dephase_in_rotated_basis,
    global_discord,
    global_discord_thermo_analytic,
)
from .nonlocality import (
    SettingsTable,
    SvetlichnyBounds,
    SvetlichnyExpansion,
    correlation,
    max_violation,
    svetlichny_expansion,
    svetlichny_value,
)
from .qstate import (
    Cut,
    DensityMatrix,
    QubitCapError,
    RotationAngles,
    conditional_state,
    embed_operator,
    is_invariant_under,
    mutual_information,
    partial_trace,
    permutation_unitary,
    rotation_matrix,
    shannon_entropy,
    tensor,
    total_correlations,
    von_neumann_entropy,
)
from .states import (
    ghz_ad_closed,
    ghz_pd_closed,
    ghz_state,
    symmetric_basis,
    thermo_state,
)

__all__ = [
    "ChannelSpec",
    "Cut",
    "CutReport",
    "DensityMatrix",
    "GenuineReport",
    "QubitCapError",
    "RotationAngles",
    "SettingsTable",
    "SvetlichnyBounds",
    "SvetlichnyExpansion",
    "__version__",
    "amplitude_damp",
    "apply_local_channel",
    "bipartite_discord",
    "conditional_state",
    "correlation",
    "dephase_in_rotated_basis",
    "embed_operator",
    "entanglement_of_formation",
    "genuine_correlations",
    "ghz_ad_closed",
    "ghz_pd_closed",
    "ghz_state",
    "global_discord",
    "global_discord_thermo_analytic",
    "is_invariant_under",
    "koashi_winter_discord",
    "kraus_operators",
    "max_violation",
    "mutual_information",
    "partial_trace",
    "permutation_unitary",
    "phase_damp",
    "rotation_matrix",
    "shannon_entropy",
    "svetlichny_expansion",
    "svetlichny_value",
    "symmetric_basis",
    "tensor",
    "thermo_state",
    "total_correlations",
    "von_neumann_entropy",
    "wootters_concurrence",
]
