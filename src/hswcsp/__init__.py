"""Anytime WCSP optimization by hitting-set iteration over cost vectors.

The library models weighted CSP instances (hard constraints plus additive
table cost functions), encodes them for an incremental SAT backend, and
closes in on the optimum from both sides: minimum-cost hitting vectors of
a growing pool of infeasible cost vectors push the lower bound, satisfiable
probes push the upper bound, and hs_lub alternates the two loops over a
shared pool. An exhaustive optimum checks small instances, a reproducible
generator builds test and benchmark instances, and the `hswcsp` console
script wraps batch solving.
"""

from .bruteforce import SplitMix64, generate, optimal_cost
from .core_grow import maximal_core
from .engine import (
    INFEASIBLE,
    OPTIMAL,
    TIMEOUT,
    CorePool,
    SolveResult,
    hs_lb,
    hs_lub,
    hs_ub,
    seed_disjoint_cores,
)
from .hitting import HittingProblem, cost_bounded_hitting_vector, min_cost_hitting_vector
from .model import (
    INF,
    CostFunction,
    Evaluation,
    HardConstraint,
    SearchAborted,
    Wcsp,
)
from .sat_oracle import Encoding, OracleVerdict, SatOracle
from .wcsp_io import (
    ParseError,
    TraceEvent,
    TraceWriter,
    parse_wcsp,
    parse_wcsp_file,
    read_trace,
    wcsp_to_text,
)

__version__ = "0.1.0"

__all__ = [
    "INF",
    "INFEASIBLE",
    "OPTIMAL",
    "TIMEOUT",
    "CorePool",
    "CostFunction",
    "Encoding",
    "Evaluation",
    "HardConstraint",
    "HittingProblem",
    "OracleVerdict",
    "ParseError",
    "SatOracle",
    "SearchAborted",
    "SolveResult",
    "SplitMix64",
    "TraceEvent",
    "TraceWriter",
    "Wcsp",
    "cost_bounded_hitting_vector",
    "generate",
    "hs_lb",
    "hs_lub",
    "hs_ub",
    "maximal_core",
    "min_cost_hitting_vector",
    "optimal_cost",
    "parse_wcsp",
    "parse_wcsp_file",
    "read_trace",
    "seed_disjoint_cores",
    "wcsp_to_text",
    "__version__",
]
