"""Per-layer spans and counters, recorded from outside the hswcsp package.

`LayerTracer.install()` swaps the public entry points of each module for
timing wrappers and puts the originals back on exit; no hswcsp source file
is changed. `engine` imports `HittingProblem`, the two hitting searches and
`maximal_core` by name, so those are replaced on `hswcsp.engine`;
`_lex_min_at_cost` is looked up on `hswcsp.hitting`; the SAT oracle, CDCL
solver and `Wcsp.evaluate` are methods, replaced on their classes.

Every wrapper opens a span on the calling thread's own stack. A span's self
time is its duration minus the time of the spans it encloses, so the
layers' self times add up to the time spent inside any wrapped layer, and
`engine.s` is the remainder of the solve's wall time. In the threaded
`hs_lub` the two workers' spans overlap each other and include waits for the
interpreter lock, so attribution is read from the single-threaded
strategies.
"""

from __future__ import annotations

import threading
import time
from collections import defaultdict
from contextlib import contextmanager

import hswcsp.cdcl as cdcl
import hswcsp.engine as engine
import hswcsp.hitting as hitting
import hswcsp.model as model
import hswcsp.sat_oracle as sat_oracle


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


class LayerStats:
    """Counters and self times of one strategy, summed over its solves."""

    def __init__(self) -> None:
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.count: dict[str, int] = defaultdict(int)
        self.wall_s = 0.0
        self.overshoot_ms = 0.0
        self.first_ub_ms = 0.0  # summed over solves; a solve without a UB adds its wall

    def metrics(self) -> dict[str, float]:
        c, n, t = self.count, self.calls, self.self_s
        layered = sum(t.values())
        return {
            "hitting.build_calls": n["hitting.build"],
            "hitting.build_s": t["hitting.build"],
            "hitting.kept_frac": _ratio(c["cores_kept"], c["cores_in"]),
            "hitting.min_cost_calls": n["hitting.min_cost"],
            "hitting.min_cost_s": t["hitting.min_cost"],
            "hitting.lexmin_s": t["hitting.lexmin"],
            "hitting.lb_stall_frac": _ratio(c["lb_stalls"], c["min_cost_found"]),
            "hitting.bounded_calls": n["hitting.bounded"],
            "hitting.bounded_s": t["hitting.bounded"],
            "core_grow.calls": n["core_grow"],
            "core_grow.s": t["core_grow"],
            "core_grow.probes": c["grow_probes"],
            "core_grow.raise_frac": _ratio(c["grow_unsat"], c["grow_probes"]),
            "sat_oracle.init_s": t["sat_oracle.init"],
            "sat_oracle.calls": n["sat_oracle"],
            "sat_oracle.s": t["sat_oracle"],
            "sat_oracle.sat_frac": _ratio(c["sat"], n["sat_oracle"]),
            "cdcl.calls": n["cdcl"],
            "cdcl.s": t["cdcl"],
            "model.evaluate_calls": c["evaluate"],
            "engine.s": self.wall_s - layered,
            "engine.iterations": c["iterations"],
            "engine.cores": c["cores"],
            "engine.dup_core_frac": _ratio(c["dup_cores"], c["add_core"]),
            "engine.overshoot_ms": self.overshoot_ms,
            "engine.first_ub_ms": self.first_ub_ms,
            "traced_solve_s": self.wall_s,
        }


# per-strategy metric names, in report order
LAYER_METRICS = tuple(LayerStats().metrics())


class _CountingPool(engine.CorePool):
    """A CorePool that reports whether each add_core call added a core."""

    def __init__(self, tracer: "LayerTracer"):
        super().__init__()
        self._tracer = tracer

    def add_core(self, core, source):
        added = super().add_core(core, source)
        self._tracer._bump("add_core")
        if not added:
            self._tracer._bump("dup_cores")
        return added


class _Frame:
    __slots__ = ("name", "start", "child")

    def __init__(self, name: str, start: float):
        self.name = name
        self.start = start
        self.child = 0.0


class LayerTracer:
    """Records spans into `stats` while a solve is active.

    Calls made while no solve is active (the benchmark's own checks) are
    not counted.
    """

    def __init__(self) -> None:
        self.stats: LayerStats | None = None
        self.pool: engine.CorePool | None = None
        self._local = threading.local()
        self._lock = threading.Lock()

    # -- spans ------------------------------------------------------------
    def _stack(self) -> list[_Frame]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _enter(self, name: str) -> None:
        self._stack().append(_Frame(name, time.perf_counter()))

    def _exit(self) -> None:
        end = time.perf_counter()
        stack = self._stack()
        frame = stack.pop()
        duration = end - frame.start
        if stack:
            stack[-1].child += duration
        stats = self.stats
        if stats is not None:
            with self._lock:
                stats.self_s[frame.name] += duration - frame.child
                stats.calls[frame.name] += 1

    def _bump(self, key: str, by: int = 1) -> None:
        stats = self.stats
        if stats is not None:
            with self._lock:
                stats.count[key] += by

    def _in_growth(self) -> bool:
        return any(f.name == "core_grow" for f in self._stack())

    # -- solve boundary ---------------------------------------------------
    def start_solve(self, stats: LayerStats) -> engine.CorePool:
        """Attribute spans to `stats`; returns the pool to pass to the solve."""
        self.stats = stats
        self.pool = _CountingPool(self)
        return self.pool

    def end_solve(self, result, wall_s: float, time_limit: float | None) -> None:
        stats, self.stats, self.pool = self.stats, None, None
        stats.wall_s += wall_s
        if result is None:
            return
        stats.count["iterations"] += sum(result.iterations.values())
        stats.count["cores"] += result.cores_used
        if time_limit is not None and result.status == engine.TIMEOUT:
            over_ms = (wall_s - time_limit) * 1000.0
            stats.overshoot_ms = max(stats.overshoot_ms, over_ms)

    # -- wrappers ---------------------------------------------------------
    @contextmanager
    def install(self):
        saved = [
            (engine, "HittingProblem", engine.HittingProblem),
            (engine, "min_cost_hitting_vector", engine.min_cost_hitting_vector),
            (engine, "cost_bounded_hitting_vector", engine.cost_bounded_hitting_vector),
            (engine, "maximal_core", engine.maximal_core),
            (hitting, "_lex_min_at_cost", hitting._lex_min_at_cost),
            (sat_oracle.SatOracle, "__init__", sat_oracle.SatOracle.__init__),
            (sat_oracle.SatOracle, "solve_csp", sat_oracle.SatOracle.solve_csp),
            (sat_oracle.SatOracle, "solve_under_vector",
             sat_oracle.SatOracle.solve_under_vector),
            (cdcl.CdclSolver, "solve", cdcl.CdclSolver.solve),
            (model.Wcsp, "evaluate", model.Wcsp.evaluate),
        ]
        orig = {name: fn for _, name, fn in saved}
        tracer = self

        def span(name, fn):
            def call(*args, **kwargs):
                tracer._enter(name)
                try:
                    return fn(*args, **kwargs)
                finally:
                    tracer._exit()
            return call

        timed_build = span("hitting.build", orig["HittingProblem"])
        timed_min_cost = span("hitting.min_cost", orig["min_cost_hitting_vector"])

        def build(levels, pool=()):
            cores = list(pool)
            problem = timed_build(levels, cores)
            tracer._bump("cores_in", len(cores))
            tracer._bump("cores_kept", len(problem.cores))
            return problem

        def min_cost(p, prune_at=None, should_stop=None):
            lb = tracer.pool.lb if tracer.pool is not None else 0
            h = timed_min_cost(p, prune_at, should_stop)
            if h is not None:
                tracer._bump("min_cost_found")
                if sum(h) <= lb:
                    tracer._bump("lb_stalls")
            return h

        def oracle_call(method):
            timed = span("sat_oracle", orig[method])

            def call(self, *args, **kwargs):
                growing = tracer._in_growth()
                verdict = timed(self, *args, **kwargs)
                if verdict.satisfiable:
                    tracer._bump("sat")
                if growing:
                    tracer._bump("grow_probes")
                    if not verdict.satisfiable:
                        tracer._bump("grow_unsat")
                return verdict
            return call

        def evaluate(self, a):
            tracer._bump("evaluate")
            return orig["evaluate"](self, a)

        wrappers = {
            "HittingProblem": build,
            "min_cost_hitting_vector": min_cost,
            "cost_bounded_hitting_vector": span(
                "hitting.bounded", orig["cost_bounded_hitting_vector"]
            ),
            "maximal_core": span("core_grow", orig["maximal_core"]),
            "_lex_min_at_cost": span("hitting.lexmin", orig["_lex_min_at_cost"]),
            "__init__": span("sat_oracle.init", orig["__init__"]),
            "solve_csp": oracle_call("solve_csp"),
            "solve_under_vector": oracle_call("solve_under_vector"),
            "solve": span("cdcl", orig["solve"]),
            "evaluate": evaluate,
        }
        try:
            for owner, name, _ in saved:
                setattr(owner, name, wrappers[name])
            yield self
        finally:
            for owner, name, fn in saved:
                setattr(owner, name, fn)
