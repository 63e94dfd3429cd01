"""CNF oracle answering "is this cost vector a solution vector?".

Direct encoding: one boolean per (variable, value) with exactly-one
clauses, one unconditional clause per forbidden tuple (listed by a hard
constraint, or a table entry at top), and per cost function one
assumption selector per non-minimum level. Asserting selector s(i, j)
forbids every tuple of function i costing exactly levels[j], so asserting
the selectors of all levels strictly above v_i enforces f_i <= v_i. With
no assumptions the formula is satisfiable exactly when some assignment
avoids every forbidden tuple.

Every UNSAT verdict carries a core: a cost vector that dominates the query
and is itself UNSAT. The backend reports which selectors failed (its
`conflict`); each failed s(i, j) bounds component i by levels[j - 1], and a
component with no failed selector goes to its maximum level. The failed
selectors are a subset of the core's own assumptions, so the core is UNSAT,
and every vector it dominates is UNSAT as well.

The oracle remembers its verdicts. A SAT answer settles every vector that
its witness's cost vector fits under, and an UNSAT answer every vector its
core dominates, so `recall(v)` answers from that memory when it can,
without the backend. The memory is two families of bitsets indexed like
`HittingProblem.below`, by function i and level index t: bit s of
`fits[i][t]` is set when remembered solution s costs at most levels[t] on
function i, and bit k of `under[i][t]` when remembered core k is at least
levels[t] there. The AND over i of the masks at v's level indices is the
set of verdicts that settle v; the lowest set bit answers, so the answer
is deterministic. `solve_under_vector` records every verdict and never
recalls: it always asks the backend, so its calls and the backend's
match one to one. In a solve it runs only after `recall(v)` missed, so
its verdict is new: a SAT answer's cost vector fits under v and an UNSAT
answer's core dominates v, which no remembered verdict does. A caller
that asks one vector twice records it twice; recall answers from the
earlier record. Both check their vector in the one pass that maps it
to level indices (`Wcsp.level_indices`), which also serves the query:
the selector slices of `assumptions_for`, or the memory's masks. Core
growth also records witnesses it finds without the backend
(`record_solution`); each is checked in full first, and skipped when a
remembered solution already fits under its cost vector.

The oracle holds the one stop predicate of the SAT side, `should_stop`,
given once when it is built, as an IPASIR solver's terminate callback
is set once: the build polls it between clause batches, every query
hands it to the backend, and core growth and seeding read it from the
oracle. A True answer raises SearchAborted.

A backend is a factory: anything that builds an object with new_var,
add_clause, a solve that answers True or False or raises SearchAborted,
and two lists it sets: `model` after a True answer (`model[v]` is 1 when
variable v is true, -1 when it is false) and `conflict` after a False
one. A witness is decoded straight from `model`. The default is the
CdclSolver class; tests plug a reference backend in through the same
factory, to cross-check the oracle's verdicts.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Iterator, Protocol, Sequence

from .cdcl import CdclSolver
from .model import SearchAborted, Wcsp


@dataclass(frozen=True)
class OracleVerdict:
    """A SAT answer carries a witness assignment, an UNSAT answer a core
    vector that dominates the query (see the module docstring), never both."""

    witness: tuple[int, ...] | None = None
    core: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        if (self.witness is None) == (self.core is None):
            raise ValueError("a verdict has either a witness or a core")

    @property
    def satisfiable(self) -> bool:
        return self.witness is not None


class SatBackend(Protocol):
    # after a True solve: model[v] is 1 when variable v is true, else -1
    model: list[int]
    # after a False solve: assumption literals that are UNSAT on their own
    conflict: list[int]

    def new_var(self) -> int: ...

    def add_clause(self, lits) -> bool: ...

    def solve(
        self,
        assumptions: Sequence[int] = (),
        should_stop: Callable[[], bool] | None = None,
    ) -> bool: ...


class Encoding:
    """Variable numbering and clauses for one instance.

    Owns the maps from (csp variable, value) to boolean ids and from
    (function, level index >= 1) to selector ids: `selector_var[i][j - 1]`
    is s(i, j). The value booleans come first, each variable's on
    consecutive ids, so `decode` reads a variable off one slice of a
    model. `clauses` generates the clauses on demand, so a caller can
    stop between any two of them.
    """

    def __init__(self, w: Wcsp):
        self.w = w
        counter = itertools.count(1)
        self.value_var: list[list[int]] = [
            [next(counter) for _ in range(d)] for d in w.domains
        ]
        self.selector_var: list[list[int]] = [
            [next(counter) for _ in f.levels[1:]] for f in w.cost_functions
        ]
        self.num_vars = next(counter) - 1
        # selector id -> (function, level index)
        self.selector_owner: dict[int, tuple[int, int]] = {
            s: (i, j)
            for i, sel in enumerate(self.selector_var)
            for j, s in enumerate(sel, 1)
        }

    def clauses(self) -> Iterator[list[int]]:
        """Every clause of the instance, in a fixed order: per variable an
        exactly-one group, then one clause per tuple a hard constraint
        forbids, then per cost function and tuple, in table order, an
        unconditional clause if the tuple's entry is at top, or a guarded
        clause tying it to its level selector if it costs a non-minimum
        level."""
        w = self.w
        for x, d in enumerate(w.domains):
            vv = self.value_var[x]
            yield list(vv)
            for a in range(d):
                for b in range(a + 1, d):
                    yield [-vv[a], -vv[b]]
        for hc in w.hard_constraints:
            for t in sorted(hc.forbidden):
                yield [-self.value_var[x][val] for x, val in zip(hc.scope, t)]
        for i, f in enumerate(w.cost_functions):
            for t in sorted(f.table):
                j = f.index.get(f.table[t])  # None: at top, forbidden outright
                if j == 0:
                    continue  # minimum level: no clause
                lits = [-self.value_var[x][val] for x, val in zip(f.scope, t)]
                yield lits if j is None else [-self.selector_var[i][j - 1]] + lits

    def assumptions_for(self, v: Sequence[int]) -> list[int]:
        """Selector literals asserting f_i <= v_i for every function: the
        s(i, j) of every level levels[j] above v_i, in function order.
        Raises ValueError unless v is a vector of levels."""
        out = []
        for sel, t in zip(self.selector_var, self.w.level_indices(v)):
            out += sel[t:]
        return out

    def core_for(self, failed: Sequence[int]) -> tuple[int, ...]:
        """The cost vector whose assumptions include every failed selector
        and no other: failed s(i, j) caps f_i at levels[j - 1], and the
        other components stay at their maximum level."""
        funcs = self.w.cost_functions
        core = [f.levels[-1] for f in funcs]
        for lit in failed:
            owner = self.selector_owner.get(lit)
            if owner is None:
                raise RuntimeError(f"failed assumption {lit} is not a selector")
            i, j = owner
            below = funcs[i].levels[j - 1]
            if below < core[i]:
                core[i] = below
        return tuple(core)

    def decode(self, model: Sequence[int]) -> tuple[int, ...]:
        """Read a CSP assignment off a propositional model, a backend's
        `model` list (true variables hold 1)."""
        out = []
        for x, vv in enumerate(self.value_var):
            row = model[vv[0]:vv[-1] + 1]
            if row.count(1) != 1:
                raise RuntimeError(f"variable {x} holds {row.count(1)} values")
            out.append(row.index(1))
        return tuple(out)


# clauses built and loaded between two polls of should_stop; a batch takes
# about a millisecond
_LOAD_BATCH = 256


class SatOracle:
    """An Encoding loaded into a backend, answering vector queries.

    Not thread-safe; build one per solve, shared by its loops. The
    backend keeps learned clauses between calls, which is the whole point
    of the selector scheme, and the oracle keeps its verdicts for `recall`.
    The clauses are generated and loaded into the backend one at a time,
    with a poll of `should_stop`, the SAT side's one stop predicate (see
    the module docstring), every _LOAD_BATCH clauses.
    """

    def __init__(
        self,
        w: Wcsp,
        backend: Callable[[], SatBackend] = CdclSolver,
        should_stop: Callable[[], bool] | None = None,
    ):
        self.w = w
        self.should_stop = should_stop
        self.encoding = Encoding(w)
        self.solver: SatBackend = backend()
        for _ in range(self.encoding.num_vars):
            self.solver.new_var()
        for n, c in enumerate(self.encoding.clauses()):
            if n % _LOAD_BATCH == 0 and should_stop is not None and should_stop():
                raise SearchAborted("oracle build interrupted")
            self.solver.add_clause(c)
        # verdict memory (see the module docstring)
        self.fits: list[list[int]] = [
            [0] * len(f.levels) for f in w.cost_functions
        ]
        self.under: list[list[int]] = [
            [0] * len(f.levels) for f in w.cost_functions
        ]
        self.solutions: list[tuple[tuple[int, ...], tuple[int, ...]]] = []
        self.cores: list[tuple[int, ...]] = []

    def _run(self, assumptions: list[int]) -> OracleVerdict:
        if not self.solver.solve(assumptions, should_stop=self.should_stop):
            return OracleVerdict(core=self.encoding.core_for(self.solver.conflict))
        return OracleVerdict(witness=self.encoding.decode(self.solver.model))

    def solve_csp(self) -> OracleVerdict:
        """Whether any assignment avoids every forbidden tuple (no cost bounds)."""
        return self._run([])

    def solve_under_vector(self, v: Sequence[int]) -> OracleVerdict:
        """SAT iff v is a solution vector of the instance. An UNSAT verdict's
        core dominates v."""
        v = tuple(v)
        verdict = self._run(self.encoding.assumptions_for(v))
        if verdict.satisfiable:
            ev = self.w.evaluate(verdict.witness)
            if not ev.feasible or any(
                c > vi for c, vi in zip(ev.per_function, v)
            ):
                raise RuntimeError("witness does not respect the queried bounds")
            self._remember_solution(verdict.witness, ev.per_function)
        elif any(c < vi for c, vi in zip(verdict.core, v)):
            raise RuntimeError(f"core {verdict.core} does not dominate {v}")
        else:
            self._remember_core(verdict.core)
        return verdict

    def record_solution(
        self, witness: tuple[int, ...], cost: tuple[int, ...]
    ) -> bool:
        """Remember a witness found without the backend, whose cost vector
        the caller computed as `cost`, unless `recall` already covers
        that cost vector; returns whether it was recorded. A recorded
        witness is evaluated once in full first: RuntimeError unless it is
        feasible and costs exactly `cost`."""
        covered = self.recall(cost)
        if covered is not None and covered.satisfiable:
            return False
        ev = self.w.evaluate(witness)
        if not ev.feasible or ev.per_function != cost:
            raise RuntimeError(f"witness does not cost {cost}")
        self._remember_solution(witness, cost)
        return True

    def _remember_solution(
        self, witness: tuple[int, ...], cost: tuple[int, ...]
    ) -> None:
        bit = 1 << len(self.solutions)
        self.solutions.append((witness, cost))
        for row, first in zip(self.fits, self.w.level_indices(cost)):
            for t in range(first, len(row)):
                row[t] |= bit

    def _remember_core(self, core: tuple[int, ...]) -> None:
        bit = 1 << len(self.cores)
        self.cores.append(core)
        for row, last in zip(self.under, self.w.level_indices(core)):
            for t in range(last + 1):
                row[t] |= bit

    def recall(self, v: Sequence[int]) -> OracleVerdict | None:
        """A remembered verdict that settles v, or None: the earliest
        remembered solution whose cost vector fits under v (SAT), else the
        earliest remembered core that dominates v (UNSAT). Never calls the
        backend."""
        v = tuple(v)
        ts = self.w.level_indices(v)
        fit = (1 << len(self.solutions)) - 1
        for row, t in zip(self.fits, ts):
            if not fit:
                break
            fit &= row[t]
        if fit:
            witness, cost = self.solutions[(fit & -fit).bit_length() - 1]
            if any(c > vi for c, vi in zip(cost, v)):
                raise RuntimeError(f"remembered solution {cost} does not fit {v}")
            return OracleVerdict(witness=witness)
        over = (1 << len(self.cores)) - 1
        for row, t in zip(self.under, ts):
            if not over:
                break
            over &= row[t]
        if over:
            core = self.cores[(over & -over).bit_length() - 1]
            if any(c < vi for c, vi in zip(core, v)):
                raise RuntimeError(f"remembered core {core} does not dominate {v}")
            return OracleVerdict(core=core)
        return None
