"""koblab: certified numerics for Kobayashi and Poincare-disc geometry.

The package brackets Kobayashi distances between sound lower bounds
(distance-decreasing maps with closed forms) and certified upper bounds
(chains of affine analytic discs whose containment is certified before any
cost is reported), and builds verification experiments on top: exact ladder
identities, slice-distance identities, Cauchy tables (summable ladder steps
with norms going to 0), plurisubharmonicity certificates, almost-geodesic
checks, and visibility sampling.
"""

__version__ = "0.1.0"

from .curves import SampledCurve
from .domains import (
    Ball,
    DomainOracle,
    Membership,
    Polydisc,
    ProductDomain,
    ProductSlice,
    SublevelDomain,
    as_point,
    domain_from_spec,
    slice_embed,
    unit_ball,
    unit_bidisc,
    unit_disc,
)
from .geodesics import (
    AlmostGeodesicVerdict,
    VisibilityReport,
    build_chain_curve,
    check_almost_geodesic,
    visibility_experiment,
)
from .kobayashi import (
    AnalyticDisc,
    CauchyTable,
    ChainLink,
    DiscChain,
    DistanceEstimate,
    MetricEstimate,
    SliceIdentityReport,
    ball_distance,
    ball_metric,
    cauchy_table,
    chain_upper_bound,
    disc_in_domain,
    estimate_distance,
    infinitesimal_bounds,
    lower_bound,
    search_upper_bound,
    slice_identity_check,
)
from .ladder import (
    ChainTermTable,
    DyadicLadder,
    LadderReport,
    base3_mutated_ladder,
    chain_term_table,
    verify_ladder,
)
from .poincare import (
    disc_geodesic,
    mobius_restore,
    mobius_transport,
    poincare_distance,
)
from .psh import (
    CandidateReport,
    LeviReport,
    ScalarField,
    complex_hessian_fd,
    exp_norm_squared,
    gradient_nonvanishing,
    levi_min_eigenvalue,
    lift_quadratic_tail,
    linear_re,
    norm_squared,
    pluriharmonic_re_square,
    signature_quadratic,
    strong_pseudoconvexity_check,
    verify_defining_candidate,
)

__all__ = [name for name in dir() if not name.startswith("_")]
