"""Inverted-Kumaraswamy mixtures: distribution functions, stochastic-order
checks on grids, majorization-based sufficient-condition checkers, a
replayable fixture catalog, and a seeded region scanner.  The ``ikmix``
console script fronts the same operations.  The scalar reference oracles
the tests check it against live outside the package, in tests/oracles.py."""

from .ikdist import (
    DomainError,
    IKParams,
    ik_cdf,
    ik_pdf,
    ik_quantile,
    ik_reversed_hazard,
    ik_sf,
)
from .mixture import (
    FiniteMixture,
    mixture_cdf,
    mixture_pdf,
    mixture_quantile,
    mixture_reversed_hazard,
    mixture_sf,
    neumaier_sum,
)
from .majorization import (
    ParamMatrix2xN,
    TTransform,
    apply_t_transform,
    chain_majorization_verify,
    in_script_l,
    infer_t_transform_2x2,
    majorizes,
    schur_probe,
    weak_submajorizes,
    weak_supermajorizes,
)
from .ordercheck import (
    CURVE_FOR_KIND,
    CURVE_KINDS,
    DEFAULT_GRID,
    ORDER_KINDS,
    Curve,
    Grid,
    OrderVerdict,
    Witness,
    check_order,
    check_orders,
    difference_curve,
    write_curve_csv,
)
from .theorems import (
    CHECKERS,
    SCAN_LAYOUTS,
    THEOREM_IDS,
    ConditionReport,
    Hypothesis,
    PredictedOrder,
    VerificationOutcome,
    check_corollary_3_1,
    check_corollary_3_2,
    check_corollary_3_3,
    check_theorem_3_1,
    check_theorem_3_2,
    check_theorem_3_3,
    check_theorem_3_4_or_3_5,
    check_theorem_3_6,
    check_theorem_3_7_to_3_9,
    check_theorem_3_10,
    check_theorem_3_11,
    check_theorem_3_12,
    verify_prediction,
)
from .fixtures import FixtureCatalog, FixtureResult, run_fixture
from .scan import SCANNABLE_THEOREMS, ScanConfig, ScanReport, run_scan

__version__ = "0.1.0"
