"""Anytime driver loops over a shared core pool.

Three entry points. hs_lb repeatedly takes a minimum-cost hitting vector
of the pool (its cost is a lower bound), asks the oracle, and either
records a solution or grows and pools a new core. hs_ub asks only for
some hitting vector cheaper than the incumbent; when none exists the
incumbent is proven optimal. hs_lub runs both loops over one pool as a
single-thread round-robin, so each feeds on the other's cores and bounds.
Every solve runs in one thread with one SAT oracle and one HittingProblem,
both shared by its loops, so its trace is deterministic up to timestamps.

Bounds and cores live in a CorePool guarded by one lock. The pool is the
one record of a solve: it drops duplicate cores and stamps every core and
bound change into its trace. Long searches poll a halt predicate at
node/conflict granularity, so a time limit, or bounds that meet during
core growth, take effect mid-search. The hitting searches take it on
every call; the SAT side takes it once, when the solve builds its
oracle, and its queries, core growth and seeding poll it from there.
"""

from __future__ import annotations

import math
import threading
import time
from dataclasses import dataclass, field
from functools import partial
from typing import Callable

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
    hands each event to its trace sink, under the lock and in order. Each
    solve that returns, and the CLI's Ctrl-C handler, ends in result, which
    detaches the sink, so the pool can be reused for a warm restart.
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
        """End a solve: apply the status rule to the bounds, detach the
        trace sink and report, with wall time since the clock anchor.

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
            self._sink = None
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


def seed_disjoint_cores(w: Wcsp, pool: CorePool, oracle: SatOracle) -> int:
    """Pre-fill the pool with cores whose below-maximum components are
    pairwise disjoint, then raise lb by their additive increments.

    Probe loop: components already marked used sit at their maximum level,
    everything else at its minimum. A SAT probe ends seeding (its witness
    total is offered as an upper bound); an UNSAT probe is grown into a
    maximal core, pooled, and every component of it still below maximum is
    marked used, so later probes can only blame fresh components.

    Because the below-maximum sets are disjoint, any vector hitting all
    seeded cores pays, per core, at least the cheapest next-level increment
    over that core's below-maximum components, on top of the sum of all
    minimum levels. That sum is pushed as a lower bound with source SEED.
    When the oracle's stop predicate ends seeding early, the bump of the
    cores pooled so far is pushed before the SearchAborted propagates.
    Every probe goes to `oracle`, an oracle of w. Returns the number of
    cores added.
    """
    mins, maxs = w.min_vector(), w.max_vector()
    used: set[int] = set()
    added: list[tuple[int, ...]] = []
    offer_ub = partial(pool.offer_ub, source="SEED")
    try:
        while True:
            probe = tuple(maxs[i] if i in used else mins[i] for i in range(w.m))
            verdict = oracle.solve_under_vector(probe)
            if verdict.satisfiable:
                pool.offer_ub(w.evaluate(verdict.witness).total, verdict.witness, "SEED")
                break
            grown = maximal_core(oracle, probe, offer_ub)
            pool.add_core(grown, "SEED")
            added.append(grown)
            fresh = {i for i in range(w.m) if grown[i] < maxs[i]} - used
            if not fresh:
                break  # nothing left to separate on; avoid re-probing forever
            used |= fresh
    finally:
        if added:
            bump = sum(mins)
            for core in added:
                increments = [
                    f.levels[f.index[level] + 1] - mins[i]
                    for i, (f, level) in enumerate(zip(w.cost_functions, core))
                    if level < maxs[i]
                ]
                bump += min(increments, default=0)
            pool.raise_lb(bump, "SEED")
    return len(added)


def _run_loops(
    w: Wcsp,
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
    hitter under ub, the minimum-cost one for lb (its cost raises lb) or
    any one for ub, then probes it: core growth offers the solutions it
    meets and pools the grown core. Either search returning None means
    nothing hits the pool below ub. With ub = inf nothing hits it at all,
    so no vector is a solution and the loops return True; otherwise ub is
    the optimum, lb rises to it and the loops return False. They also
    return False when the bounds meet or they are halted.
    """
    problem = HittingProblem(w.levels_per_function())
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
            grown = maximal_core(oracle, h, offer_ub, recall=True)
            if grown is not None:
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
    they finish, halt or the SAT side aborts, and report pool.result."""
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
        if not halt():
            oracle = SatOracle(w, should_stop=halt)
            if not oracle.solve_csp().satisfiable:
                infeasible = True
            else:
                if seed_disjoint:
                    seed_disjoint_cores(w, pool, oracle)
                iterations = dict.fromkeys(loops, 0)
                infeasible = _run_loops(w, pool, oracle, halt, iterations)
    except SearchAborted:
        pass
    return pool.result(iterations, infeasible)


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
    synergy comes from the shared pool, which the round-robin keeps. deterministic is accepted for compatibility and has
    no effect. One loop alone is hs_lb or hs_ub.
    """
    return _solve(w, ("lb", "ub"), pool, time_limit, seed_disjoint, trace)
