"""Growing an infeasible cost vector into a componentwise-maximal core.

A core stays a core when a component is raised and the induced CSP stays
UNSAT. Growth probes one single-level raise at a time, in repeated passes
over the components, cheapest next increment first, until a full pass
changes nothing. Every SAT probe met on the way is a solution vector, so
its cost goes to the caller's offer_ub callback as an upper-bound
candidate, witness attached. The engine calls growth from its
disjoint-core phase, once per probe. In the loops' phase, from a hitter,
the cost is offered to the core pool, which keeps it only if it improves
the bound; in seeding's phase, from the minimum vector, the witness's
evaluated total is offered instead. That holds for the first probe too,
of the start vector itself: a start vector that is not a core is offered
and growth returns None, so a caller needs no query of its own to tell a
solution from a core, and the phase ends there.

Each UNSAT verdict carries a core that dominates its query, built from the
oracle's failed assumptions. Growth keeps the core of the last UNSAT
verdict as a bound: a raise that stays componentwise below it is UNSAT by
implication and is applied without calling the oracle. Skipping such a
probe changes nothing but the work done, because the skipped answer is
the one the oracle would have given.

A probe that this bound does not settle is first looked up in the
oracle's memory of the verdicts of every earlier query on it
(`SatOracle.recall`), and reaches the backend only when no remembered
solution fits under it and no remembered core dominates it. A raise is
applied exactly when the raised vector is UNSAT, however that answer is
obtained, so the memory changes neither the raises nor the grown core.
What it changes is the work, and the witnesses: a remembered witness
stands in for a fresh one, so a caller that evaluates the witnesses it
is offered may see other totals.

A backend's SAT answer to a raise of v also fills that memory for the
raises still to come, by recursive model rotation (Marques-Silva & Lynce,
SAT 2011; Belov & Marques-Silva, FMCAD 2011). Its witness breaks only the
raised function's bound in v. Changing one variable of that function's
scope so that the function fits v again and exactly one other function j
goes over v_j, by one level, gives a witness for the raise of j, found
without the backend; rotation goes on from it to further functions. Each
such witness is checked in full and recorded in the oracle's memory, and
`recall` answers j's probe with it when growth gets there. The witness
proves what the backend would have answered, so rotation, like the
memory, changes neither the raises nor the grown core; and growth still
offers each SAT probe's vector cost when it reaches the probe, so the
offered values and their order stay the same too.
"""

from __future__ import annotations

from typing import Callable, Sequence

from .model import SearchAborted
from .sat_oracle import SatOracle

__all__ = ["maximal_core"]


def maximal_core(
    oracle: SatOracle,
    h: Sequence[int],
    offer_ub: Callable[[int, tuple[int, ...]], object],
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
    without a probe, and a probe that the oracle's remembered verdicts
    settle is answered from them instead of the backend. Each SAT answer
    of the backend is rotated (`_rotate`) into remembered answers for
    other raises.
    The oracle's `should_stop` is polled before each raise and by every
    backend call; a True answer raises SearchAborted.
    """
    w = oracle.w
    funcs = w.cost_functions
    should_stop = oracle.should_stop

    v = list(h)
    idx = w.level_indices(v)  # checks that h is a vector of levels
    first = oracle.recall(v) or oracle.solve_under_vector(v)
    if first.satisfiable:
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
        for _, i in order:
            if should_stop is not None and should_stop():
                raise SearchAborted("stopped during core growth")
            raised = funcs[i].levels[idx[i] + 1]
            if raised > bound[i]:
                probe = list(v)
                probe[i] = raised
                verdict = oracle.recall(probe)
                if verdict is None:
                    verdict = oracle.solve_under_vector(probe)
                    if verdict.satisfiable:
                        _rotate(oracle, v, idx, settled, i, *oracle.solutions[-1])
                if verdict.satisfiable:
                    settled[i] = True
                    offer_ub(sum(probe), verdict.witness)
                    continue
                bound = verdict.core
            v[i] = raised
            idx[i] += 1


def _rotate(
    oracle: SatOracle,
    v: Sequence[int],
    idx: Sequence[int],
    settled: Sequence[bool],
    i: int,
    witness: tuple[int, ...],
    cost: tuple[int, ...],
) -> None:
    """Recursive model rotation from a backend's SAT answer to the probe
    v + raise(i), where v is a core: record in the oracle's memory further
    witnesses that answer the probes of other raises of v.

    The witness, of cost vector `cost`, breaks only f_i's bound in v. A
    move sets one variable in the broken function's scope to another
    value, and re-checks only the hard constraints and cost functions on
    that variable. A move is kept when the result is feasible, fits v on
    the broken function and breaks exactly one other bound j, by one
    level; j must be unsettled, raisable and not yet a target of this
    rotation. The kept witness answers v + raise(j) SAT. Unless a
    remembered solution already covers it, it is recorded
    (`SatOracle.record_solution`) and rotation continues from it.
    """
    w = oracle.w
    funcs, hards = w.cost_functions, w.hard_constraints
    on, domains = w.on_variable, w.domains
    # the largest cost a kept move may give each function: its next level
    # on a target still open, its component of v elsewhere
    limit = list(v)
    for j, f in enumerate(funcs):
        if j != i and not settled[j] and idx[j] + 1 < len(f.levels):
            limit[j] = f.levels[idx[j] + 1]
    stack = [(i, list(witness), list(cost))]
    while stack:
        broken, a, c = stack.pop()
        for x in funcs[broken].scope:
            fs, hs = on[x]
            old = a[x]
            for value in range(domains[x]):
                if value == old:
                    continue
                a[x] = value
                j, moved = -1, []
                for k in fs:
                    f = funcs[k]
                    ck = f.table[f.key(a)]
                    if ck > v[k]:
                        if j >= 0 or ck > limit[k]:
                            break
                        j = k
                    moved.append(ck)
                else:
                    if any(hards[h].key(a) in hards[h].forbidden for h in hs):
                        continue
                    if j < 0:
                        raise RuntimeError(f"rotation found a solution under core {v}")
                    rotated = list(c)
                    for k, ck in zip(fs, moved):
                        rotated[k] = ck
                    limit[j] = v[j]
                    if oracle.record_solution(tuple(a), tuple(rotated)):
                        stack.append((j, list(a), rotated))
            a[x] = old
