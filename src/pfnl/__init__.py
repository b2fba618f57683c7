"""Nonlocal hyperbolic phase-field solver and its local-limit diagnostics."""

__version__ = "0.1.0"

from .fields import (  # noqa: F401
    Field,
    Grid,
    dual_norm,
    field_from_function,
    inner_product,
    neumann_laplacian,
    norm,
    restrict,
    riesz_inverse,
)
from .kernels import (  # noqa: F401
    KernelFamily,
    MollifierProfile,
    build_kernel_family,
    kernel_value,
    make_profile,
    moment_check,
    sphere_constant,
    tabulate_kernel,
)
from .operators import (  # noqa: F401
    NonlocalOperator,
    apply_B,
    apply_B_eps,
    bbm_bound_ratio,
    build_nonlocal_operator,
    energy_local,
    energy_nonlocal,
    frechet_identity_residual,
)
from .physics import (  # noqa: F401
    PotentialSpec,
    build_initial_data,
    make_double_well,
    validate_potential,
)
from .integrator import (  # noqa: F401
    SchemeConfig,
    State,
    Trajectory,
    solve_trajectory,
    step_local,
    step_nonlocal,
)
from .analysis import (  # noqa: F401
    ConvergenceReport,
    SweepConfig,
    estimate_monitor,
    gamma_convergence_suite,
    nonlocal_to_local_study,
    operator_convergence_suite,
)
from .config import RunConfig, parse_config, parse_config_text  # noqa: F401
