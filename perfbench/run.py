"""Solver benchmark for hswcsp: time to optimum, anytime gap, per-layer split.

Run from the repository root:

    python3 perfbench/run.py --workload soft-dense --seed 1 --seconds 35 --trace 0

Each workload is a fixed suite of generated instances (see WORKLOADS and
perfbench/NOTES.md). Set-up generates them and round-trips them through
`wcsp_io`; the solvers receive only the parsed instances, and set-up is
timed again between solves throughout the run. A pass solves every
instance with every strategy, one solve after another (a closed loop), in
an order shuffled by `--seed`. The first pass always runs whole; further
passes run until `--seconds` have been measured. A strategy's time is
each instance's median over the passes that solved it, summed over the
instances. Every solve is checked by code that does not trust the search.

Each CPU of the host this runs on changes speed by up to 2x, on its own
and from one second to the next, so every end-to-end time is in reference
seconds. The whole run, the threaded hs_lub included, is pinned to one
CPU. A fixed calibration loop is timed before and after each solve and
each set-up sample, and every SAMPLE_PERIOD_S during a solve by a side
thread; the wall time is divided by the mean slowdown (the loop's CPU
time over CALIBRATION_REF_S) of these samples. The side thread takes
about 3% of the CPU while a solve runs, which the solve times include.
Deadlines on `anytime` are in reference seconds too: a deadline is set
from the slowdown measured just before its solve, and the solve's times
are scaled by that same slowdown. The report line also gives the raw
wall times.

`--trace 0` reports the end-to-end metrics, timed with no tracing.
`--trace 1` installs the layer tracer (layer_trace.py) and reports
per-layer self times (raw wall seconds), counts and ratios for each
strategy.

The last stdout line is the result object; the line before it is a
report with provenance, per-instance outcomes and trace digests.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CACHE = ROOT / ".perfbench_cache" / "reference.json"

STRATEGIES = ("hs_lb", "hs_ub", "hs_lub", "hs_lub_det")
# strategies whose (kind, value, source) trace is deterministic on a fixed input
DIGESTED = ("hs_lb", "hs_ub", "hs_lub_det")
GAP_STRATEGIES = ("hs_lub", "hs_lub_det")

# Set-up takes 8-40 ms, so it is sampled before every SETUP_EVERY-th solve
# across the whole run and reported as the median of the samples.
SETUP_EVERY = 4
# CALIBRATION_REF_S is the calibration loop's time on the 2-CPU x86-64
# machine of the baseline in a fast phase, so one reference second is one
# wall second there. Between steps the loop runs CALIBRATION_REPEATS times.
CALIBRATION_REF_S = 0.003
CALIBRATION_REPEATS = 8
SAMPLE_PERIOD_S = 0.1
SOLVE_CAP_S = 60.0  # a solve workload's solve that hits this cap fails
RUN_BUDGET_S = 150.0  # no solve may run past this point of the run


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    params: dict  # generate() keyword arguments other than the seed
    seeds: tuple[int, ...]
    time_limit: float | None  # per-solve deadline; None solves to the optimum
    reference: bool  # compare optima with bruteforce.optimal_cost


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "soft-dense",
            "soft constraints only, every solve proves the optimum; the "
            "hitting-vector search does most of the work",
            dict(num_vars=16, max_dom=2, num_funcs=26, cost_range=4),
            tuple(range(2000, 2009)),
            None,
            True,
        ),
        Workload(
            "hard-csp",
            "dense hard constraints; the SAT oracle and core growth do most "
            "of the work, so a hitting-layer change should move nothing here",
            dict(num_vars=60, max_dom=3, num_funcs=70, cost_range=1, hard_density=0.3),
            tuple(range(1, 11)),
            None,
            False,
        ),
        Workload(
            "anytime",
            "no solve finishes by its deadline; bound quality over time and "
            "a large core pool in the hitting layer",
            dict(num_vars=25, max_dom=3, num_funcs=60, cost_range=1, hard_density=0.25),
            tuple(range(1, 5)),
            1.5,
            False,
        ),
    )
}

END_TO_END = (
    "setup_s",
    *(f"{s}.solve_s" for s in STRATEGIES),
    *(f"{s}.gap_integral_s" for s in GAP_STRATEGIES),
    "ok_frac",
    "peak_rss_mb",
)


def unit_of(name: str) -> str:
    for suffix, unit in (("_ms", "ms"), ("_frac", "frac"), ("_mb", "MB")):
        if name.endswith(suffix):
            return unit
    return "s" if name.endswith(("_s", ".s")) else "count"


def per_layer_names() -> list[str]:
    from layer_trace import LAYER_METRICS

    names = ["wcsp_io.write_s", "wcsp_io.parse_s"]
    names += [f"{s}.{m}" for s in STRATEGIES for m in LAYER_METRICS]
    return names


# -- host speed --------------------------------------------------------------


class _Item:
    __slots__ = ("a", "b")

    def __init__(self, a: int, b: int) -> None:
        self.a, self.b = a, b

    def key(self) -> int:
        return 3 * self.a + self.b


def _calibration_loop() -> int:
    """Fixed pure-Python work: integer arithmetic into a dict, then small
    objects, method calls, tuples, a sort and frozensets.

    Measured against hs_lb, hs_ub and hs_lub_det solves across the host's
    fast and slow phases, solve time grows with this loop's time to the
    power 0.97-1.05; an LCG loop into a dict and a set tracked it to the
    power 0.74-0.81, and reads over a large list to the power 1.14-1.25.
    """
    s, table = 0, {}
    for i in range(20000):
        table[i & 1023] = s
        s += (i * i) % 7
    rows = []
    for i in range(1000):
        item = _Item(i % 17, i % 5)
        rows.append((item.a, item.b, item.key()))
    rows.sort()
    return s + len({frozenset(r) for r in rows})


def pin_to_one_cpu() -> None:
    """Run this thread, and the threads it starts, on one CPU, where the
    platform allows it."""
    try:
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    except (AttributeError, OSError):
        pass


def _loop_slowdown() -> float:
    t0 = time.thread_time()
    _calibration_loop()
    return (time.thread_time() - t0) / CALIBRATION_REF_S


def host_slowdown() -> float:
    """CPU seconds the host needs now for one reference second."""
    return statistics.mean(_loop_slowdown() for _ in range(CALIBRATION_REPEATS))


class SpeedSampler:
    """Samples the host's slowdown every SAMPLE_PERIOD_S from a side thread
    while a solve runs, timing the loop in that thread's own CPU time."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        while not self._stop.wait(SAMPLE_PERIOD_S):
            self.samples.append(_loop_slowdown())

    def __enter__(self) -> "SpeedSampler":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()


# -- set-up --------------------------------------------------------------


@dataclass
class Instance:
    seed: int
    text: str
    w: object  # hswcsp.Wcsp, as parsed back from text
    reference: int | None = None


def set_up(workload: Workload) -> tuple[list[Instance], dict[str, float]]:
    """Generate and round-trip the workload's instances once, timed."""
    from hswcsp import generate, parse_wcsp, wcsp_to_text

    gc.collect()
    instances, write_s, parse_s = [], 0.0, 0.0
    t0 = time.perf_counter()
    for seed in workload.seeds:
        generated = generate(seed, **workload.params)
        t1 = time.perf_counter()
        text = wcsp_to_text(generated)
        t2 = time.perf_counter()
        w = parse_wcsp(text)
        t3 = time.perf_counter()
        write_s += t2 - t1
        parse_s += t3 - t2
        instances.append(Instance(seed, text, w))
    total = time.perf_counter() - t0
    return instances, {"setup_s": total, "wcsp_io.write_s": write_s, "wcsp_io.parse_s": parse_s}


def attach_references(instances: list[Instance]) -> None:
    """Exhaustive optima, cached in the checkout by source and instance text."""
    from hswcsp import optimal_cost

    code = hashlib.sha256()
    for module in ("bruteforce.py", "model.py"):
        code.update((SRC / "hswcsp" / module).read_bytes())
    try:
        cache = json.loads(CACHE.read_text())
    except (OSError, ValueError):
        cache = {}
    dirty = False
    for inst in instances:
        key = hashlib.sha256(code.digest() + inst.text.encode()).hexdigest()
        if key not in cache:
            cache[key] = optimal_cost(inst.w)
            dirty = True
        inst.reference = cache[key]
    if dirty:
        CACHE.parent.mkdir(exist_ok=True)
        CACHE.write_text(json.dumps(cache, sort_keys=True))


# -- one solve -------------------------------------------------------------


@dataclass
class Solve:
    strategy: str
    seed: int
    wall_s: float = 0.0
    status: str = "ERROR"
    lb: float = 0
    ub: float = math.inf
    optimum: int | None = None
    first_ub_s: float | None = None
    gap_integral_s: float = 0.0
    slowdown: float = 1.0  # host slowdown over the solve, see host_slowdown
    digest: str | None = None
    errors: list[str] = field(default_factory=list)

    @property
    def final_gap(self) -> float:
        return _gap(self.lb, self.ub)


def _gap(lb: float, ub: float) -> float:
    if ub == math.inf:
        return 1.0
    return 0.0 if ub == lb else (ub - lb) / ub


def _call(strategy: str, w, time_limit, pool, on_event):
    from hswcsp import hs_lb, hs_lub, hs_ub

    kw = dict(pool=pool, time_limit=time_limit, trace=on_event)
    if strategy == "hs_lb":
        return hs_lb(w, **kw)
    if strategy == "hs_ub":
        return hs_ub(w, **kw)
    return hs_lub(w, deterministic=strategy == "hs_lub_det", **kw)


def run_solve(
    strategy: str, inst: Instance, time_limit: float, must_prove: bool,
    tracer=None, stats=None,
) -> Solve:
    """Solve once, timing the call; with a tracer, attribute spans to stats.

    must_prove: the solve fails unless it proves the optimum.
    """
    out = Solve(strategy, inst.seed)
    events: list[tuple[float, str, int]] = []
    pool = tracer.start_solve(stats) if tracer is not None else None
    result = None
    gc.collect()
    t0 = time.perf_counter()

    def on_event(e) -> None:
        events.append((time.perf_counter() - t0, e.kind, e.value))

    try:
        result = _call(strategy, inst.w, time_limit, pool, on_event)
    except Exception as exc:  # a raising solve is a counted failure
        out.errors.append(f"raised {exc!r}")
    finally:
        out.wall_s = time.perf_counter() - t0
        if tracer is not None:
            tracer.end_solve(result, out.wall_s, time_limit)
    if result is None:
        return out

    out.status, out.lb, out.ub, out.optimum = (
        result.status, result.lb, result.ub, result.optimum
    )
    lb, ub, last = 0, math.inf, 0.0
    for t, kind, value in events:
        if kind not in ("LB", "UB"):
            continue
        out.gap_integral_s += _gap(lb, ub) * (t - last)
        last = t
        if kind == "LB":
            lb = value
        else:
            ub = value
            if out.first_ub_s is None:
                out.first_ub_s = t
    out.gap_integral_s += _gap(lb, ub) * max(0.0, out.wall_s - last)
    if stats is not None:
        first_ub = out.wall_s if out.first_ub_s is None else out.first_ub_s
        stats.first_ub_ms += 1000.0 * first_ub
    if strategy in DIGESTED:
        payload = repr((
            [(e.kind, e.value, e.source) for e in result.trace],
            sorted(result.iterations.items()),
        ))
        out.digest = hashlib.sha256(payload.encode()).hexdigest()[:16]
    out.errors += check_result(inst, result, must_prove)
    return out


def check_result(inst: Instance, result, must_prove: bool) -> list[str]:
    """Checks that rely only on Wcsp.evaluate and the reported bounds."""
    errors = []
    allowed = ("OPTIMAL",) if must_prove else ("OPTIMAL", "TIMEOUT")
    if result.status not in allowed:
        errors.append(f"status {result.status}")
    if not result.lb <= result.ub:
        errors.append(f"lb {result.lb} > ub {result.ub}")
    if result.ub != math.inf:
        if result.witness is None:
            errors.append("finite ub without a witness")
        else:
            ev = inst.w.evaluate(result.witness)
            if not ev.feasible:
                errors.append("witness is infeasible")
            if ev.total > result.ub:
                errors.append(f"witness costs {ev.total} > ub {result.ub}")
            if result.status == "OPTIMAL" and ev.total != result.optimum:
                errors.append(f"witness costs {ev.total} != optimum {result.optimum}")
    if inst.reference is not None and result.status == "OPTIMAL":
        if result.optimum != inst.reference:
            errors.append(f"optimum {result.optimum} != brute force {inst.reference}")
    return errors


def cross_check(solves: list[Solve]) -> None:
    """All strategies agree on one instance: equal optima, no crossed bounds."""
    optima = {s.optimum for s in solves if s.status == "OPTIMAL"}
    best_lb = max(s.lb for s in solves)
    best_ub = min(s.ub for s in solves)
    problem = None
    if len(optima) > 1:
        problem = f"strategies disagree on the optimum: {sorted(optima)}"
    elif best_lb > best_ub:
        problem = f"one strategy's lb {best_lb} exceeds another's ub {best_ub}"
    if problem:
        for s in solves:
            s.errors.append(problem)


# -- passes and metrics ----------------------------------------------------


def run_pass(workload, instances, rng, run_deadline, setup_samples,
             stop_at=None, tracer=None, layer_stats=None):
    """Solve every instance with every strategy once, in a shuffled order,
    with a set-up sample before every SETUP_EVERY-th solve; start no step
    once `stop_at` has passed.

    The host's slowdown is measured between every two timed steps and
    sampled during each solve; each step is scaled by the mean of these.
    """
    jobs = [(s, i) for s in STRATEGIES for i in range(len(instances))]
    rng.shuffle(jobs)
    steps = []  # (strategy, instance index); (None, None) is a set-up sample
    for n, job in enumerate(jobs):
        if n % SETUP_EVERY == 0:
            steps.append((None, None))
        steps.append(job)
    solves: dict[tuple[str, int], Solve] = {}
    before = host_slowdown()
    for strategy, i in steps:
        if stop_at is not None and time.perf_counter() >= stop_at:
            break
        if strategy is None:
            sample = set_up(workload)[1]
            after = host_slowdown()
            setup_samples.append(_scaled(sample, (before + after) / 2))
            before = after
            continue
        # on a solve workload the limit is a safety cap, and hitting it
        # fails; on anytime it is the deadline, in reference seconds
        if workload.time_limit is None:
            cap = SOLVE_CAP_S
        else:
            cap = workload.time_limit * before
        limit = min(cap, max(0.1, run_deadline - time.perf_counter()))
        stats = layer_stats[strategy] if layer_stats is not None else None
        with SpeedSampler() as sampler:
            solve = run_solve(
                strategy, instances[i], limit, workload.time_limit is None, tracer, stats
            )
        after = host_slowdown()
        # a deadline in reference seconds comes back as the same time
        if workload.time_limit is None:
            solve.slowdown = statistics.mean([before, after, *sampler.samples])
        else:
            solve.slowdown = before
        solves[strategy, i] = solve
        before = after
    return solves


def _scaled(sample: dict[str, float], slowdown: float) -> dict[str, float]:
    return {k: v / slowdown for k, v in sample.items()}


def run_metrics(passes: list[dict]) -> dict[str, float]:
    """Per strategy, in reference seconds: each instance's median over the
    passes that solved it, summed over the instances."""
    m = {}
    for name, strategies, value in (
        ("solve_s", STRATEGIES, lambda x: x.wall_s / x.slowdown),
        ("gap_integral_s", GAP_STRATEGIES, lambda x: x.gap_integral_s / x.slowdown),
    ):
        for s in strategies:
            per_instance: dict[int, list[float]] = {}
            for p in passes:
                for (k, i), x in p.items():
                    if k == s:
                        per_instance.setdefault(i, []).append(value(x))
            m[f"{s}.{name}"] = sum(statistics.median(v) for v in per_instance.values())
    return m


def pass_wall(solves: dict[tuple[str, int], Solve]) -> dict[str, float]:
    """Per-strategy raw wall seconds over the pass, for the report."""
    return {
        s: sum(x.wall_s for (k, _), x in solves.items() if k == s) for s in STRATEGIES
    }


def _median_by_key(rows: list[dict[str, float]]) -> dict[str, float]:
    return {k: statistics.median(r[k] for r in rows) for k in rows[0]}


def provenance(args, workload: Workload) -> dict:
    sha = None
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            sha = None
    src = hashlib.sha256()
    for path in sorted((SRC / "hswcsp").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "git_sha": sha,
        "src_sha256": src.hexdigest(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "workload": args.workload,
        "generator": {"seeds": list(workload.seeds), **workload.params},
        "time_limit_s": workload.time_limit,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "hswcsp" / "__init__.py").is_file():
        print(f"error: no hswcsp sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import hswcsp
    from hswcsp import wcsp_to_text

    if Path(hswcsp.__file__).resolve().parent != (SRC / "hswcsp").resolve():
        print(f"error: imported hswcsp from {hswcsp.__file__}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    start = time.perf_counter()
    run_deadline = start + RUN_BUDGET_S
    pin_to_one_cpu()
    before = host_slowdown()
    instances, first_setup = set_up(workload)
    setup_samples = [_scaled(first_setup, (before + host_slowdown()) / 2)]
    for inst in instances:
        if wcsp_to_text(inst.w) != inst.text:
            raise RuntimeError(f"instance {inst.seed} does not round-trip")
    if workload.reference:
        attach_references(instances)

    tracer = layer_stats_per_pass = None
    if args.trace:
        from layer_trace import LayerStats, LayerTracer

        tracer = LayerTracer()
        layer_stats_per_pass = []

    # The first pass always runs whole. Untraced, later passes stop when
    # the time is up, and an instance that a pass left out is not counted
    # in it; traced, every pass runs whole, as its layer counts are per pass.
    rng = random.Random(args.seed)
    all_solves = []
    measure_start = time.perf_counter()
    stop_at = min(measure_start + args.seconds, run_deadline)
    while True:
        if tracer is not None:
            stats = {s: LayerStats() for s in STRATEGIES}
            with tracer.install():
                solves = run_pass(
                    workload, instances, rng, run_deadline, setup_samples,
                    None, tracer, stats,
                )
            layer_stats_per_pass.append(
                {f"{s}.{k}": v for s in STRATEGIES for k, v in stats[s].metrics().items()}
            )
        else:
            solves = run_pass(
                workload, instances, rng, run_deadline, setup_samples,
                stop_at if all_solves else None,
            )
        all_solves.append(solves)
        if time.perf_counter() >= stop_at:
            break
    for i in range(len(instances)):
        cross_check([p[s, i] for p in all_solves for s in STRATEGIES if (s, i) in p])

    setup = _median_by_key(setup_samples)
    attempted = sum(len(s) for s in all_solves)
    failed = sum(1 for s in all_solves for x in s.values() if x.errors)
    if args.trace:
        metrics = {
            "wcsp_io.write_s": setup["wcsp_io.write_s"],
            "wcsp_io.parse_s": setup["wcsp_io.parse_s"],
            **_median_by_key(layer_stats_per_pass),
        }
    else:
        metrics = {
            "setup_s": setup["setup_s"],
            **run_metrics(all_solves),
            "ok_frac": 1.0 - failed / attempted,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }

    report = {
        "provenance": provenance(args, workload),
        "passes": len(all_solves),
        "solves": sum(len(p) for p in all_solves),
        "setup_samples": len(setup_samples),
        "pass_metrics": [run_metrics([p]) for p in all_solves],
        "pass_wall_s": [pass_wall(p) for p in all_solves],
        "host_slowdown": {
            "median": statistics.median(
                x.slowdown for p in all_solves for x in p.values()
            ),
            "min": min(x.slowdown for p in all_solves for x in p.values()),
            "max": max(x.slowdown for p in all_solves for x in p.values()),
        },
        "instances": [
            {
                "seed": inst.seed,
                "reference": inst.reference,
                **{
                    s: {
                        "status": x.status,
                        "lb": x.lb,
                        "ub": None if x.ub == math.inf else x.ub,
                        "final_gap": round(x.final_gap, 4),
                        "wall_s": round(x.wall_s, 4),
                        "first_ub_ms": None if x.first_ub_s is None
                        else round(1000.0 * x.first_ub_s, 2),
                        "digest": x.digest,
                    }
                    for s in STRATEGIES
                    for x in [all_solves[0][s, i]]
                },
            }
            for i, inst in enumerate(instances)
        ],
        "mean_final_gap": {
            s: statistics.mean(x.final_gap for (k, _), x in all_solves[0].items() if k == s)
            for s in STRATEGIES
        },
        "digests_stable": all(
            len({p[s, i].digest for p in all_solves if (s, i) in p}) == 1
            for s in DIGESTED
            for i in range(len(instances))
        ),
        "errors": sorted({
            f"{x.strategy}/{x.seed}: {e}"
            for p in all_solves for x in p.values() for e in x.errors
        }),
    }
    for e in report["errors"]:
        print(f"FAIL {e}")
    for name, value in metrics.items():
        print(f"{name:<40} {value:>14.6f} {unit_of(name)}")
    print(json.dumps({"report": report}, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
