"""tomopack: numerical design of near-optimal measurement quorums for
quantum state tomography via Grassmannian packings of projector subspaces."""

__version__ = "0.1.0"

from .hilbert import Quorum, chart_length, quorum_from_chart, random_chart
from .metrics import (
    MetricsReport,
    evaluate_quorum,
    extend_to_maximal,
    gram_matrix,
    orthoplex_report,
    repetition_overhead,
    upper_bound,
)
from .powell import PowellConfig, PowellResult, line_minimize, powell_minimize
from .schedule import (
    ScheduleConfig,
    TraceRecord,
    alternating_optimize,
    make_objective,
    multi_restart,
)
from .reference import (
    bundled_chart_n6,
    halfdim_optimal_quorum_n4,
    mub_family,
    rank1_optimal_quorum_n2,
)
