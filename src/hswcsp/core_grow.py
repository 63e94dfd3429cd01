"""Growing an infeasible cost vector into a componentwise-maximal core.

A core stays a core when a component is raised and the induced CSP stays
UNSAT. Growth probes one single-level raise at a time, in repeated passes
over the components, cheapest next increment first, until a full pass
changes nothing. Every SAT probe met on the way is a solution vector, so
its cost goes to the caller's offer_ub callback as an upper-bound
candidate, witness attached; the engine passes one that offers it to the
core pool, which keeps it only if it improves the bound. That holds for
the first probe too, of the start vector itself: a start vector that is
not a core is offered and growth returns None, so a caller needs no
query of its own to tell a solution from a core.

Each UNSAT verdict carries a core that dominates its query, built from the
oracle's failed assumptions. Growth keeps the core of the last UNSAT
verdict as a bound: a raise that stays componentwise below it is UNSAT by
implication and is applied without calling the oracle. Skipping such a
probe changes nothing but the work done, because the skipped answer is
the one the oracle would have given.

With recall=True, a probe that this bound does not settle is first
looked up in the oracle's memory of the verdicts of every earlier query
on it (`SatOracle.recall`), and reaches the backend only when no
remembered solution fits under it and no remembered core dominates it.
The answers are the same, so the raises, the grown core and the offered
values are too. What changes is the work, and with it the models: a
remembered witness stands in for a fresh one, and fewer queries leave
the solver in another state. The loops' growth recalls, because its
offers are probe vector costs, which depend only on SAT/UNSAT answers.
Seeding does not: `seed_disjoint_cores` offers the evaluated total of
its last SAT query's witness, which depends on the model the solver
returns, so recall in its growth would change the bound it offers.
"""

from __future__ import annotations

from typing import Callable, Sequence

from .model import SearchAborted
from .sat_oracle import OracleVerdict, SatOracle

__all__ = ["maximal_core"]


def maximal_core(
    oracle: SatOracle,
    h: Sequence[int],
    offer_ub: Callable[[int, tuple[int, ...]], object] | None = None,
    recall: bool = False,
) -> tuple[int, ...] | None:
    """Grow the core h until every single-component raise is satisfiable.

    The result k dominates h, is itself a core, and no component of k can
    be raised one level without the induced CSP becoming satisfiable.
    When h is not a core, the first probe already answers SAT: the result
    is None, after offer_ub(cost of h, witness).

    Growth order: each pass visits the not-yet-settled components in
    increasing order of their next-level cost increment (ties by index),
    applying accepted raises immediately; passes repeat until one changes
    nothing. Once a component's raise probes SAT it is never probed again:
    later raises of other components only loosen the induced CSP, so the
    SAT outcome is final.

    Every SAT probe calls offer_ub(vector cost, witness) in probe order.
    A raise that the last UNSAT verdict's core dominates is applied
    without a probe. With recall, a probe that the oracle's remembered
    verdicts settle is answered from them instead of the backend.
    The oracle's `should_stop` is polled before each raise and by every
    backend call; a True answer raises SearchAborted.
    """
    w = oracle.w
    funcs = w.cost_functions
    should_stop = oracle.should_stop

    def ask(vector: list[int]) -> OracleVerdict:
        verdict = oracle.recall(vector) if recall else None
        if verdict is None:
            verdict = oracle.solve_under_vector(vector)
        return verdict

    v = list(h)
    idx = w.level_indices(v)  # checks that h is a vector of levels
    first = ask(v)
    if first.satisfiable:
        if offer_ub is not None:
            offer_ub(sum(v), first.witness)
        return None
    bound = first.core  # v <= bound throughout, and bound is a core

    settled = [False] * len(v)
    while True:
        order = sorted(
            (funcs[i].levels[idx[i] + 1] - v[i], i)
            for i in range(len(v))
            if not settled[i] and idx[i] + 1 < len(funcs[i].levels)
        )
        if not order:
            return tuple(v)
        changed = False
        for _, i in order:
            if should_stop is not None and should_stop():
                raise SearchAborted("stopped during core growth")
            raised = funcs[i].levels[idx[i] + 1]
            if raised > bound[i]:
                probe = list(v)
                probe[i] = raised
                verdict = ask(probe)
                if verdict.satisfiable:
                    settled[i] = True
                    if offer_ub is not None:
                        offer_ub(sum(probe), verdict.witness)
                    continue
                bound = verdict.core
            v[i] = raised
            idx[i] += 1
            changed = True
        if not changed:
            return tuple(v)
