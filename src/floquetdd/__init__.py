"""Floquet-Markov master equations and dipole-dipole couplings for driven
two-level atom pairs in a shared electromagnetic bath."""

from .bath import (
    AtomGeometry,
    BathParams,
    gamma_pair,
    gamma_single,
    gamma_thermal_pair,
    gamma_thermal_single,
    omega_dd,
)
from .dipole import (
    ChannelSet,
    CouplingCoefficients,
    MatrixElementTable,
    build_channels,
    build_hdp2,
    coupling_coefficients,
    matrix_elements,
)
from .errors import (
    DegenerateQuasienergiesError,
    HierarchyViolationError,
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
    obe_reference,
    smoothed_populations,
    steady_state,
    validate_density_matrix,
)
from .scenario import Scenario, load_scenario, parse_scenario_dict
from .spin import (
    JTensor,
    build_spin_hamiltonian,
    j_tensor,
    pair_geometries_from_positions,
    pair_tensors,
)
from .validity import TauMap, TimescaleReport, scan_tau_map, tau_mu, timescale_report

__version__ = "0.1.0"
