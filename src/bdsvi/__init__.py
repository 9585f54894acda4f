"""Numerical laboratory for penalized backward doubly stochastic variational
inequalities: convex/prox calculus, Brownian drivers, reflected diffusions
with boundary local time, a penalized backward solver, pathwise flow
transforms, and Monte-Carlo sampling of the associated value field."""

from .convex import (
    CATALOG,
    AssumptionConstants,
    CompatibilityReport,
    ConvexFunction,
    WeightReport,
    check_compatibility,
    grid_prox_oracle,
    make_convex,
    moreau_envelope,
    prox,
    prox_property_suite,
    validate_weights,
    yosida_gradient,
)
from .drivers import (
    PathBundle,
    TimeGrid,
    generate_paths,
)
from .field import (
    FieldEstimate,
    FieldGrid,
    continuity_diagnostic,
    sample_field,
)
from .flow import FlowSample, FlowSpec, flow, flow_inverse, transform_penalized
from .reflected import (
    DomainSpec,
    ForwardModel,
    local_time_identity_residual,
    make_domain,
    simulate_reflected,
    smoothed_interval,
    unit_ball,
)
from .scenarios import Scenario, ScenarioError, load_scenario
from .solver import (
    BdsdeSolution,
    CoefficientSet,
    SolverConfig,
    cauchy_study,
    penalization_diagnostics,
    solve_penalized,
    verify_vi_inclusion,
    weighted_norms,
)

__version__ = "0.1.0"
