"""holonome: numerical parallel transport on principal bundles.

Computes parallel transport from connection forms by Lie-group ODE
integration, reconstructs connection forms from any transport oracle by
path lifting, and verifies the transport axioms and the flatness /
homotopy-invariance equivalence.
"""

from .errors import *  # noqa: F401,F403
from .exprs import Dual, Expr, evaluate, evaluate_dual, parse, pretty  # noqa: F401
from .groups import (  # noqa: F401
    AlgebraElement,
    GroupElement,
    StructureGroup,
    group_exp,
    group_inverse,
    group_log,
    identity_element,
    project_to_group,
    rotation_angle,
)
from .paths import (  # noqa: F401
    ChartPoint,
    PathSpec,
    Segment,
    TangentVector,
    arc_path,
    constant_path,
    juxtapose,
    line_path,
    path_from_exprs,
    path_from_strings,
    path_point,
    path_velocity,
    reparametrize,
    reverse_path,
    subpath,
)
from .connection import (  # noqa: F401
    ChartSpec,
    ConnectionForm,
    CurvatureValue,
    ExprMatrixFunction,
    Transition,
    builtin_connection,
    curvature_at,
    eval_connection,
    gauge_transform,
    is_flat,
)
from .transport import (  # noqa: F401
    AxiomReport,
    AxiomSuite,
    LiftedPath,
    SolverConfig,
    TransportResult,
    engine_oracle,
    endpoint_convergence,
    inverse_path_check,
    lift_path,
    standard_axiom_suite,
    transport,
    transport_many,
    verify_axioms,
)
from .reconstruction import (  # noqa: F401
    HorizontalBasis,
    LiftedVector,
    ReconstructionTable,
    horizontal_space,
    lemma_independence_check,
    lift_vector,
    reconstruct_connection,
    roundtrip_report,
    split_horizontal_vertical,
)
from .holonomy import (  # noqa: F401
    HomotopyFamily,
    flatness_verdict,
    holonomy,
    homotopy_scan,
    shrinking_loop_curvature,
    standard_homotopy_families,
)
from .scenario import Scenario, load_scenario, run_scenario  # noqa: F401

__version__ = "0.1.0"
