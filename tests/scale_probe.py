"""Scale probe: how fast the SAT side runs on a large generated instance.

Runs `hs_lub` (or, with `--alg lb` or `--alg ub`, `hs_lb` or `hs_ub`)
under a time limit on `generate(1, n, 3, 2n, cost_range=3,
hard_density=0.1)` and prints the number of `CdclSolver.solve` calls, the
calls per CPU second of the solve, the number of hitting-search nodes
it entered (counted as `tests/test_trace_pins.py` counts them), the
number of cores it pooled, the calls per pooled core (`-` when it pooled
none), the number of calls answered SAT (`sat_calls`; core growth's
model rotation answers some SAT probes without a call), the bounds it
ended with, the least evaluated total of the witnesses its pool holds
(`held_total`; the solve ends once lb reaches it) and the evaluated
total of the witness behind ub. The node and call counts show how a
change splits its work between the hitting search and the SAT side;
held_total against ub shows how far the vector-cost ub lags the
witnesses the solve already has.

A second line splits the hitting search by kind: the min-cost search's
IDA* tries (`try`), the lex-min pass's checks (`lexmin`) and the bounded
searches of the ub loop (`bounded`), each by outcome: `found` a hitter,
`refuted` (none below the budget) or `cut` by the time limit. Each gives
calls/nodes/CPU seconds, so it shows which search holds a stall and
whether the nodes a change saves are cheap ones.

Most solves at n = 300 end at the limit, so the call rate and the core
count are the figures to compare between versions: the call rate for the
SAT side, the core count for how much the whole solve got done. The
bounds depend on how far the solve got. The core count is sensitive to
load: at n = 300 with `--alg ub` it fell from 106-108 cores on an idle
2-CPU host to 55-67 while a test run shared the CPUs, so quote it only
from runs on an otherwise idle host. Run it from the repository root:

    python3 tests/scale_probe.py 300 3
    python3 tests/scale_probe.py 300 3 --alg lb

pytest does not collect this file.
"""

import argparse
import pathlib
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

import hswcsp.cdcl as cdcl  # noqa: E402
import hswcsp.hitting as hitting  # noqa: E402
from hswcsp import CorePool, generate, hs_lb, hs_lub, hs_ub  # noqa: E402

ALGS = {"lb": hs_lb, "ub": hs_ub, "lub": hs_lub}
# each search kind by the function that runs its searches
CALLERS = {
    "min_cost_hitting_vector": "try",
    "_lex_min_at_cost": "lexmin",
    "cost_bounded_hitting_vector": "bounded",
}
KINDS = [f"{k}_{o}" for k in CALLERS.values() for o in ("found", "refuted", "cut")]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("n", type=int, help="number of variables")
    parser.add_argument("time_limit", type=float, help="seconds")
    parser.add_argument("--alg", choices=ALGS, default="lub", help="loop to run (default: lub)")
    args = parser.parse_args()
    w = generate(1, args.n, 3, 2 * args.n, cost_range=3, hard_density=0.1)
    calls = sat_calls = nodes = 0
    solve = cdcl.CdclSolver.solve
    make_poll = hitting._make_stop_poll
    search = hitting._branch_and_bound
    split = {}  # search kind -> [calls, nodes, CPU seconds]

    def counted_solve(self, *a, **kw):
        nonlocal calls, sat_calls
        calls += 1
        answer = solve(self, *a, **kw)
        sat_calls += answer
        return answer

    # every search node polls once, so counting polls counts nodes
    def counting(should_stop):
        poll = make_poll(should_stop)

        def counted():
            nonlocal nodes
            nodes += 1
            poll()

        return counted

    def split_search(p, bound, should_stop, prefix=(), **kw):
        kind = CALLERS[sys._getframe(1).f_code.co_name]
        outcome = "cut"
        start, cpu = nodes, time.process_time()
        try:
            found, least = search(p, bound, should_stop, prefix, **kw)
            outcome = "refuted" if found is None else "found"
            return found, least
        finally:
            row = split.setdefault(f"{kind}_{outcome}", [0, 0, 0.0])
            row[0] += 1
            row[1] += nodes - start
            row[2] += time.process_time() - cpu

    cdcl.CdclSolver.solve = counted_solve
    hitting._make_stop_poll = counting
    hitting._branch_and_bound = split_search
    pool = CorePool()
    try:
        cpu = time.process_time()
        r = ALGS[args.alg](w, pool=pool, time_limit=args.time_limit)
        cpu = time.process_time() - cpu
    finally:
        cdcl.CdclSolver.solve = solve
        hitting._make_stop_poll = make_poll
        hitting._branch_and_bound = search
    witness = "-" if r.witness is None else w.evaluate(r.witness).total
    per_core = f"{calls / r.cores_used:.1f}" if r.cores_used else "-"
    print(f"n={args.n} status={r.status} cdcl_calls={calls} "
          f"calls_per_cpu_s={calls / cpu:.0f} nodes={nodes} cores={r.cores_used} "
          f"calls_per_core={per_core} sat_calls={sat_calls} lb={r.lb} ub={r.ub} "
          f"held_total={pool.held_total} witness_total={witness}")
    print("searches " + " ".join(
        f"{k}={split[k][0]}/{split[k][1]}/{split[k][2]:.2f}s" for k in KINDS if k in split
    ))


if __name__ == "__main__":
    main()
