"""Additive-state-decomposition dynamic-inversion stabilization toolkit.

Design entry points live in asd_design, runtime controllers in
controller_rt, benchmark plants in plants, the closed-loop integrator in
sim, stability-margin analysis in analysis, and the scenario CLI in cli.
"""

from .analysis import (
    BoundReport,
    CertificateSeries,
    bound_report,
    epsilon_bound,
    eta,
    gammas,
    lyapunov_certificate,
    sample_constants,
    ultimate_bound,
)
from .asd_design import (
    LinearCore,
    LtiRealization,
    StructureReport,
    build_G,
    build_core,
    verify_theorem1,
)
from .controller_rt import (
    ControllerSpec,
    ObserverController,
    PiController,
    make_controller,
    pi_gains,
    x_to_u_response,
)
from .errors import (
    AsdinvError,
    ComplexSpectrum,
    ConfigError,
    DimensionMismatch,
    EmptyTrace,
    EtaNonpositive,
    LyapunovFailure,
    MissingConstants,
    MultiInput,
    NonFiniteInput,
    NonFiniteState,
    NonSquare,
    SelectionNotEigenvalue,
    SingularCB,
    SingularInertia,
    SingularSystem,
    Uncontrollable,
    UnknownUncertainty,
    Unstable,
)
from .numlin import EigenPair, ackermann_gain, controllability_rank, is_hurwitz, real_eig, solve_lyapunov
from .plants import (
    AssumptionConstants,
    QuadrotorConfig,
    UncertainPlant,
    dead_zone,
    delayed_input_lti,
    f16_rollyaw,
    hsu_siso,
    quadrotor_attitude,
    synthetic_lti,
)
from .sim import Metrics, SimConfig, Trace, decompose, energy_index, export_csv, metrics, simulate

__version__ = "0.1.0"
