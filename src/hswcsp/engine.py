"""Anytime driver loops over a shared core pool.

Three entry points. hs_lb repeatedly takes a minimum-cost hitting vector
of the pool (its cost is a lower bound), asks the oracle, and either
records a solution or runs the disjoint-core phase from it: it grows a
core, raises the core's below-maximum components to their maximum and
probes again, pooling up to four cores per hitter until a probe is a
solution (MaxHS's disjoint-core phase, Davies & Bacchus, CP 2011; several
cores per hitting set, as in LMHS, Saikko, Berg & Järvisalo, SAT 2016).
hs_ub asks only for some hitting vector cheaper than the incumbent and
runs the same phase from it; when none exists the incumbent is proven
optimal. hs_lub runs both loops over one pool as a single-thread
round-robin, so each feeds on the other's cores and bounds. Seeding is
the same phase from the minimum vector, uncapped and priced.
Every solve runs in one thread with one SAT oracle and one HittingProblem,
both shared by its loops, so its trace is deterministic up to timestamps.

Bounds and cores live in a CorePool guarded by one lock. The pool is the
one record of a solve: it drops duplicate cores and stamps every core and
bound change into its trace. Long searches poll a halt predicate at
node/conflict granularity, so a time limit, or bounds that meet during
core growth, take effect mid-search. The hitting searches take it on
every call; the SAT side takes it once, when the solve builds its
oracle, and its queries, core growth and seeding poll it from there.
An interrupt (Ctrl-C, KeyboardInterrupt) ends a solve as its time limit
does: it returns the certified bounds reached so far.
"""

from __future__ import annotations

import math
import threading
import time
from dataclasses import dataclass, field
from functools import partial
from itertools import islice
from typing import Callable, Iterator, Sequence

from .core_grow import maximal_core
from .hitting import HittingProblem, cost_bounded_hitting_vector, min_cost_hitting_vector
from .model import INF, SearchAborted, Wcsp
from .sat_oracle import SatOracle
from .wcsp_io import TraceEvent

__all__ = [
    "OPTIMAL",
    "TIMEOUT",
    "INFEASIBLE",
    "CorePool",
    "SolveResult",
    "seed_disjoint_cores",
    "hs_lb",
    "hs_ub",
    "hs_lub",
]

OPTIMAL = "OPTIMAL"
TIMEOUT = "TIMEOUT"
INFEASIBLE = "INFEASIBLE"

# trace source of each loop's bound changes and cores
_SOURCE = {"lb": "LB_WORKER", "ub": "UB_WORKER"}


class CorePool:
    """Shared pool of cores plus the current bounds.

    cores only grow, lb only rises, ub only falls; the loops read the cores
    appended since their last look with cores_since. best_witness is the
    assignment behind the last accepted ub (its evaluated total is <= ub,
    since bound updates may carry vector costs). add_core drops a core
    identical to a pooled one, so cores holds no duplicates.

    The pool is the record of a solve: every change happens under one lock
    and appends a TraceEvent to events, stamped in ms on a monotonic clock
    anchored when the pool was built (a solve re-anchors it at its start),
    so events is a faithful serialization of bound history. A solve also
    hands each event to its trace sink, under the lock and in order. Every
    solve that returns ends in result, and every solve, one that raises
    included, detaches its sink, so the pool can be reused for a warm
    restart.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._t0 = time.monotonic()
        self._sink: Callable[[TraceEvent], None] | None = None
        self.events: list[TraceEvent] = []
        self.cores: list[tuple[int, ...]] = []
        self._seen: set[tuple[int, ...]] = set()
        self.lb: int = 0
        self.ub: int | float = INF
        self.best_witness: tuple[int, ...] | None = None

    def _record(self, kind: str, value: int, source: str) -> None:
        # callers hold the lock
        ms = int((time.monotonic() - self._t0) * 1000)
        event = TraceEvent(ms, kind, value, source)
        self.events.append(event)
        if self._sink is not None:
            self._sink(event)

    def cores_since(self, start: int) -> list[tuple[int, ...]]:
        """Cores appended after the first `start` ones, in append order."""
        with self._lock:
            return self.cores[start:]

    def bounds(self) -> tuple[int, int | float]:
        with self._lock:
            return self.lb, self.ub

    def add_core(self, core: tuple[int, ...], source: str) -> bool:
        """Append a core unless an identical one is already pooled."""
        core = tuple(core)
        with self._lock:
            if core in self._seen:
                return False
            self._seen.add(core)
            self.cores.append(core)
            self._record("CORE", len(self.cores), source)
            return True

    def raise_lb(self, value: int, source: str) -> bool:
        with self._lock:
            if value <= self.lb:
                return False
            self.lb = value
            self._record("LB", value, source)
            return True

    def offer_ub(self, value: int, witness: tuple[int, ...], source: str) -> bool:
        with self._lock:
            if value >= self.ub:
                return False
            self.ub = value
            self.best_witness = witness
            self._record("UB", value, source)
            return True

    def result(self, iterations: dict[str, int], infeasible: bool) -> SolveResult:
        """End a solve: apply the status rule to the bounds and report,
        with wall time since the clock anchor.

        INFEASIBLE when the solve proved it, OPTIMAL (recording DONE) when
        lb == ub < inf, TIMEOUT otherwise; crossed bounds raise.
        """
        with self._lock:
            lb, ub = self.lb, self.ub
            if lb > ub:
                raise RuntimeError(f"bounds crossed: lb {lb} > ub {ub}")
            if infeasible:
                status, optimum = INFEASIBLE, None
            elif lb == ub < INF:
                status, optimum = OPTIMAL, int(ub)
                self._record("DONE", optimum, "MAIN")
            else:
                status, optimum = TIMEOUT, None
            return SolveResult(
                status=status,
                optimum=optimum,
                lb=lb,
                ub=ub,
                witness=self.best_witness,
                cores_used=len(self.cores),
                iterations=iterations,
                wall_ms=(time.monotonic() - self._t0) * 1000,
                trace=tuple(self.events),
            )


@dataclass(frozen=True)
class SolveResult:
    status: str  # OPTIMAL / TIMEOUT / INFEASIBLE
    optimum: int | None
    lb: int
    ub: int | float
    witness: tuple[int, ...] | None
    cores_used: int
    iterations: dict[str, int]
    wall_ms: float
    trace: tuple[TraceEvent, ...] = field(repr=False)

    def __post_init__(self) -> None:
        if self.status == OPTIMAL:
            if self.optimum is None or not self.lb == self.ub == self.optimum:
                raise ValueError(
                    f"OPTIMAL needs lb == ub == optimum, got lb={self.lb} "
                    f"ub={self.ub} optimum={self.optimum}"
                )
        elif self.optimum is not None:
            raise ValueError(f"{self.status} result carries optimum {self.optimum}")


# Cores one loop step pools from its hitter at most. The cap was measured
# with tests/scale_probe.py (hs_lub, 6 s, one run each). Uncapped, hs_lub
# ended with much worse bounds than with one core per step: lb 16 / ub
# 357 against 40 / 260 at n = 100, and 55 / 1,070 against 78 / 1,024 at
# n = 300. With four per step they were close to one per step (44 / 273
# and 78 / 1,077), while the search nodes of the 12 pinned solves in
# tests/test_trace_pins.py fell by 40%.
_CORES_PER_STEP = 4


def _disjoint_cores(
    oracle: SatOracle,
    start: Sequence[int],
    offer: Callable[[int, tuple[int, ...]], object],
) -> Iterator[tuple[int, ...]]:
    """Disjoint-core phase from `start`: yield maximal cores whose
    below-maximum components are pairwise disjoint.

    Core growth tells a solution from a core with the probe's first query
    and offers every SAT answer it meets, the ending probe's included.
    Each grown core is yielded; then every component of it still below its
    maximum is set to its maximum in the probe, so the next core can only
    be blamed on fresh components. A grown core dominates its probe, so
    those components still sat at their start value. The phase ends at the
    first SAT probe, or at a core with no component below its maximum
    (the probe would not change). A phase probe is >= start throughout.
    """
    maxs = oracle.w.max_vector()
    probe = list(start)
    while True:
        grown = maximal_core(oracle, probe, offer)
        if grown is None:
            return
        yield grown
        below = [i for i, level in enumerate(grown) if level < maxs[i]]
        if not below:
            return
        for i in below:
            probe[i] = maxs[i]


def seed_disjoint_cores(pool: CorePool, oracle: SatOracle) -> int:
    """Pre-fill the pool with the disjoint-core phase from the minimum
    vector, uncapped, then raise lb by the cores' additive increments.

    Every SAT answer the phase meets offers its witness's evaluated total
    as an upper bound. Because the cores' below-maximum components are
    pairwise disjoint and sat at their minimum in the probe that grew
    each, any vector hitting all seeded cores pays, per core, at least the
    cheapest next-level increment over that core's below-maximum
    components, on top of the sum of all minimum levels. Seeding is the
    only caller that prices the phase: in the loops, the lb loop's
    minimum-cost search bounds the whole pool, which is at least as tight.
    The sum is kept as each core is pooled and pushed as a lower bound
    with source SEED. When the oracle's stop predicate ends seeding early,
    the bound of the cores pooled so far is pushed before the
    SearchAborted propagates. Returns the number of cores grown.
    """
    w = oracle.w
    funcs = w.cost_functions
    mins, maxs = w.min_vector(), w.max_vector()
    bound, grown_cores = sum(mins), 0

    def offer(_: int, witness: tuple[int, ...]) -> None:
        pool.offer_ub(w.evaluate(witness).total, witness, "SEED")

    try:
        for grown in _disjoint_cores(oracle, mins, offer):
            pool.add_core(grown, "SEED")
            grown_cores += 1
            bound += min(
                (
                    funcs[i].levels[funcs[i].index[level] + 1] - mins[i]
                    for i, level in enumerate(grown)
                    if level < maxs[i]
                ),
                default=0,
            )
    finally:
        if grown_cores:
            pool.raise_lb(bound, "SEED")
    return grown_cores


def _run_loops(
    pool: CorePool,
    oracle: SatOracle,
    halt: Callable[[], bool],
    iterations: dict[str, int],
) -> bool:
    """Round-robin over the loops named in `iterations` ("lb", "ub"), one
    step each per turn, counting each loop's probes there; deterministic.

    Both loops search one HittingProblem, which takes in the cores pooled
    since the previous step, one at a time with a halt poll before each,
    so a large pool does not hold up a time limit. A step searches for a
    hitter h under ub, the minimum-cost one for lb (its cost raises lb) or
    any one for ub, then runs the disjoint-core phase from h: core growth
    offers the solutions it meets, and the step pools at most
    _CORES_PER_STEP grown cores, so one search pays for several. Each
    phase probe is >= h, so it hits every core pooled before the step, and
    it is at the maximum wherever an earlier core of the phase is below
    it; a grown core dominates its probe, so none is a duplicate. Either
    search returning None means nothing hits the pool below ub. With ub =
    inf nothing hits it at all, so no vector is a solution and the loops
    return True; otherwise ub is the optimum, lb rises to it and the loops
    return False. They also return False when the bounds meet or they are
    halted.
    """
    problem = HittingProblem(oracle.w.levels_per_function())
    while True:
        for name in iterations:
            if halt():
                return False
            source = _SOURCE[name]
            ub = pool.bounds()[1]
            for core in pool.cores_since(len(problem.cores)):
                if halt():
                    return False
                problem.add_cores((core,))
            if name == "lb":
                h = min_cost_hitting_vector(problem, prune_at=ub, should_stop=halt)
                if h is not None:
                    pool.raise_lb(sum(h), source)
            else:
                h = cost_bounded_hitting_vector(problem, ub, should_stop=halt)
            if h is None:
                if ub == INF:
                    return True
                pool.raise_lb(int(ub), source)
                return False
            iterations[name] += 1
            offer_ub = partial(pool.offer_ub, source=source)
            for grown in islice(_disjoint_cores(oracle, h, offer_ub), _CORES_PER_STEP):
                pool.add_core(grown, source)


def _solve(
    w: Wcsp,
    loops: tuple[str, ...],
    pool: CorePool | None,
    time_limit: float | None,
    seed_disjoint: bool,
    trace: Callable[[TraceEvent], None] | None,
) -> SolveResult:
    """Anchor the pool's clock and sink at the start, run the loops until
    they finish, halt, the SAT side aborts or an interrupt stops them, and
    report pool.result. So an interrupted solve reports the bounds it
    proved: TIMEOUT, or OPTIMAL if they met. Any other exception
    propagates. The sink is detached however the solve ends.
    """
    if time_limit is not None and math.isnan(time_limit):
        raise ValueError("time_limit must be a number of seconds, got nan")
    t0 = time.monotonic()
    deadline = None if time_limit is None else t0 + time_limit
    if pool is None:
        pool = CorePool()
    with pool._lock:
        pool._t0, pool._sink, pool.events = t0, trace, []

    def halt() -> bool:
        return (
            (deadline is not None and time.monotonic() >= deadline)
            or pool.lb >= pool.ub
        )

    iterations: dict[str, int] = {}
    infeasible = False
    try:
        try:
            if not halt():
                oracle = SatOracle(w, should_stop=halt)
                if not oracle.solve_csp().satisfiable:
                    infeasible = True
                else:
                    if seed_disjoint:
                        seed_disjoint_cores(pool, oracle)
                    iterations = dict.fromkeys(loops, 0)
                    infeasible = _run_loops(pool, oracle, halt, iterations)
        except (SearchAborted, KeyboardInterrupt):
            pass
        return pool.result(iterations, infeasible)
    finally:
        with pool._lock:
            pool._sink = None


def hs_lb(
    w: Wcsp,
    pool: CorePool | None = None,
    time_limit: float | None = None,
    seed_disjoint: bool = False,
    trace: Callable[[TraceEvent], None] | None = None,
) -> SolveResult:
    """Lower-bound-driven loop: optimal hitting vectors, rising lb."""
    return _solve(w, ("lb",), pool, time_limit, seed_disjoint, trace)


def hs_ub(
    w: Wcsp,
    pool: CorePool | None = None,
    time_limit: float | None = None,
    seed_disjoint: bool = False,
    trace: Callable[[TraceEvent], None] | None = None,
) -> SolveResult:
    """Upper-bound-driven loop: any hitting vector under the incumbent."""
    return _solve(w, ("ub",), pool, time_limit, seed_disjoint, trace)


def hs_lub(
    w: Wcsp,
    pool: CorePool | None = None,
    time_limit: float | None = None,
    seed_disjoint: bool = False,
    trace: Callable[[TraceEvent], None] | None = None,
    deterministic: bool = False,
) -> SolveResult:
    """Both loops sharing one pool, each consuming the other's cores and
    bounds.

    The loops take turns in one thread, one step each, with one SAT oracle
    shared by seeding and both loops and one HittingProblem shared by both
    loops, so a run is deterministic. The paper runs them as two threads;
    under the interpreter lock threads cannot run in parallel, and the
    synergy comes from the shared pool, which the round-robin keeps.
    deterministic is accepted for compatibility and has no effect. One
    loop alone is hs_lb or hs_ub.
    """
    return _solve(w, ("lb", "ub"), pool, time_limit, seed_disjoint, trace)
