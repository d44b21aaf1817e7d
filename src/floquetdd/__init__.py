"""Floquet-Markov master equations and dipole-dipole couplings for driven
two-level atom pairs in a shared electromagnetic bath."""

from .bath import (
    AtomGeometry,
    BathParams,
    SpectralValue,
    gamma_pair,
    gamma_single,
    gamma_thermal_pair,
    gamma_thermal_single,
    omega_dd,
    pair_spectral_value,
    thermal_occupation,
)
from .dipole import (
    ChannelSet,
    CouplingCoefficients,
    MatrixElementTable,
    build_channels,
    build_D_operators,
    build_hdp2,
    coupling_coefficients,
    diagonalize_dissipator,
    dissipator_blocks,
    dissipator_superoperator,
    matrix_elements,
    quasienergy_difference_classes,
)
from .errors import (
    DegenerateQuasienergiesError,
    HierarchyViolationError,
    NonCompletelyPositiveError,
    PhysicsError,
    ScenarioError,
    SidebandTruncationError,
    SteadyStateDegeneracyError,
    UndefinedMixingAngleError,
)
from .floquet import (
    DressedStates,
    DriveParams,
    FloquetSolution,
    TimeGrid,
    dressed_states,
    floquet_solve,
    fold_to_zone,
    propagate_period,
    quasienergy_magnitude_map,
)
from .lindblad import (
    FmeObeComparison,
    LindbladModel,
    build_liouvillian,
    coarse_grained_coefficients,
    evolve,
    fme_vs_obe_compare,
    max_population_deviation,
    obe_reference,
    smoothed_populations,
    steady_state,
    validate_density_matrix,
)
from .scenario import Numerics, Scenario, load_scenario, parse_scenario_dict
from .spin import (
    JTensor,
    build_spin_hamiltonian,
    dressed_bare_equivalence,
    j_tensor,
    pair_geometries_from_positions,
)
from .validity import TauMap, TimescaleReport, scan_tau_map, tau_mu, timescale_report

__version__ = "0.1.0"
