"""Exact steady states of driven-dissipative Kerr resonators.

Closed-form steady-state wavefunctions and moments for the coherently
driven and two-photon-driven Kerr models, semiclassical branch
structure, doubled-space operator certificates, and an independent
density-matrix oracle for cross-validation.
"""

from types import ModuleType as _ModuleType

from .errors import (
    BasisMismatch,
    CrossCheckFailure,
    CutoffTooSmall,
    DenominatorPole,
    InvalidParams,
    InvariantViolation,
    KerrSteadyError,
    NonConvergence,
    SingularSystem,
    UnsupportedModel,
)
from .exact_linear import (
    CorrelationResult,
    ExactSweepRow,
    SteadyWavefunction,
    amplitude_moment,
    correlation_linear,
    exact_drive_point,
    wavefunction_linear,
)
from .exact_twophoton import (
    ResonancePrediction,
    correlation_twophoton,
    resonance_predictions,
    scan_point,
    strict_local_maxima,
    wavefunction_twophoton,
    wavefunction_via_three_term,
)
from .keldysh_ops import (
    CL_Q,
    PLUS_MINUS,
    OperatorMatrix,
    ResidualReport,
    build_generalized_hamiltonian_clq,
    build_generalized_hamiltonian_pm,
    convert_basis,
    embed_wavefunction,
    interior_projector,
    mixing_unitary,
    steady_residual,
)
from .lindblad_oracle import (
    DensityMatrix,
    Liouvillian,
    adaptive_cutoff,
    build_liouvillian,
    correlation_from_rho,
    fock_annihilation,
    hamiltonian_fock,
    steady_state,
)
from .meanfield import (
    MeanFieldBranch,
    drive_point_branches,
    photon_number_branches,
)
from .model import (
    LinearDerived,
    ModelParams,
    TwoPhotonDerived,
    derive_linear,
    derive_twophoton,
    params_from_dict,
)
from .specfun import hyp0f2_ratio, pochhammer

__version__ = "0.1.0"

# Every public name imported above; a second, hand-kept list could drift from them.
__all__ = sorted(
    name for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
)
