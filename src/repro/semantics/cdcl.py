"""A CDCL SAT solver: watched literals, 1UIP learning, VSIDS, restarts.

This replaces plain DPLL as the engine behind the finite-countermodel
search.  Literals are non-zero integers (positive = variable true); clauses
are lists of literals.  The solver is incremental in the MiniSat sense
(Eén & Sörensson, SAT 2003): clauses may be added between solves, and
learnt clauses and VSIDS activities carry over.  It is self-contained and
has no external dependencies.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from typing import Iterable, Sequence

from ..analysis.sanitizers import cdcl_sanitizer
from ..obs import current_tracer
from ..runtime import Budget


class Solver:
    """Incremental CDCL solver over a fixed set of variables.

    :meth:`add_clause` may be called between calls to :meth:`solve`; each
    solve starts from decision level 0 and keeps the learnt clauses and
    VSIDS activities of the earlier ones, which is sound because the
    clause set only grows.  Once a solve answers UNSAT, every later solve
    does too.  ``sanitize`` enables the runtime invariant checkers of
    :mod:`repro.analysis.sanitizers` (default: the ``REPRO_SANITIZE``
    environment variable).
    """

    def __init__(self, num_vars: int, clauses: Iterable[Sequence[int]],
                 sanitize: bool | None = None):
        self._san = cdcl_sanitizer(sanitize)
        self.num_vars = num_vars
        self.clauses: list[list[int]] = []
        # assignment state
        self.assign: list[int] = [0] * (num_vars + 1)   # 0 unset, +1 true, -1 false
        self.level: list[int] = [0] * (num_vars + 1)
        self.reason: list[list[int] | None] = [None] * (num_vars + 1)
        self.trail: list[int] = []
        self.trail_lim: list[int] = []
        self._qhead = 0   # trail position of the next literal to propagate
        # watched literals: literal -> clause indices watching it
        self.watches: dict[int, list[int]] = {}
        self.activity: list[float] = [0.0] * (num_vars + 1)
        self.var_inc = 1.0
        # decision order: a lazy binary heap of (-activity, var).  Every
        # unassigned variable has an entry carrying its current activity;
        # entries of assigned variables are stale and skipped by _decide.
        # An unassigned variable's older entries carry a lower activity
        # (activities only grow between rebuilds), so they never surface
        # before the current one.
        self._heap: list[tuple[float, int]] = [
            (-0.0, v) for v in range(1, num_vars + 1)]
        self.ok = True
        for clause in clauses:
            self.add_clause(clause)

    # -- clause management ----------------------------------------------------

    def add_clause(self, lits: Iterable[int]) -> None:
        """Add a clause, also after :meth:`solve` (incremental use).

        Backtracks to level 0, then simplifies against the level-0
        assignment: a clause with a true literal is dropped and false
        literals are stripped.  What is left becomes UNSAT (empty), a
        level-0 unit, or a watched clause.
        """
        if not self.ok:
            return
        self._backtrack(0)
        lits = sorted(set(lits), key=abs)
        seen = set(lits)
        # a tautology, or a clause satisfied at level 0, adds nothing
        if any(-l in seen or self._value(l) == 1 for l in lits):
            return
        lits = [l for l in lits if self._value(l) == 0]
        if not lits:
            self.ok = False
            return
        if len(lits) == 1:
            self._enqueue(lits[0], None)
            return
        idx = len(self.clauses)
        self.clauses.append(lits)
        for lit in lits[:2]:
            self.watches.setdefault(-lit, []).append(idx)

    def _value(self, lit: int) -> int:
        v = self.assign[abs(lit)]
        return v if lit > 0 else -v

    def _enqueue(self, lit: int, reason: list[int] | None) -> bool:
        val = self._value(lit)
        if val == 1:
            return True
        if val == -1:
            return False
        var = abs(lit)
        self.assign[var] = 1 if lit > 0 else -1
        self.level[var] = len(self.trail_lim)
        self.reason[var] = reason
        self.trail.append(lit)
        return True

    # -- propagation ------------------------------------------------------------

    def _propagate(self) -> list[int] | None:
        """Unit propagation; returns a conflicting clause or None."""
        head = self._qhead
        while head < len(self.trail):
            lit = self.trail[head]
            head += 1
            watching = self.watches.get(lit, [])
            i = 0
            while i < len(watching):
                cidx = watching[i]
                clause = self.clauses[cidx]
                # ensure clause[0] is the other watched literal
                if clause[0] == -lit:
                    clause[0], clause[1] = clause[1], clause[0]
                if self._value(clause[0]) == 1:
                    i += 1
                    continue
                # find a new literal to watch
                moved = False
                for k in range(2, len(clause)):
                    if self._value(clause[k]) != -1:
                        clause[1], clause[k] = clause[k], clause[1]
                        self.watches.setdefault(-clause[1], []).append(cidx)
                        watching[i] = watching[-1]
                        watching.pop()
                        moved = True
                        break
                if moved:
                    continue
                # clause is unit or conflicting on clause[0]
                if not self._enqueue(clause[0], clause):
                    self._qhead = len(self.trail)
                    return clause
                i += 1
        self._qhead = head
        return None

    # -- analysis ---------------------------------------------------------------

    def _bump(self, var: int) -> None:
        self.activity[var] += self.var_inc
        if self.activity[var] > 1e100:
            for v in range(1, self.num_vars + 1):
                self.activity[v] *= 1e-100
            self.var_inc *= 1e-100
            self._rebuild_heap()
        elif self.assign[var] == 0:
            heappush(self._heap, (-self.activity[var], var))

    def _rebuild_heap(self) -> None:
        self._heap = [(-self.activity[v], v)
                      for v in range(1, self.num_vars + 1)
                      if self.assign[v] == 0]
        heapify(self._heap)

    def _analyze(self, conflict: list[int]) -> tuple[list[int], int]:
        """1UIP conflict analysis: returns (learnt clause, backjump level)."""
        learnt: list[int] = []
        seen = [False] * (self.num_vars + 1)
        counter = 0
        p: int | None = None  # the trail literal whose reason is processed
        reason: list[int] | None = conflict
        idx = len(self.trail) - 1
        cur_level = len(self.trail_lim)
        while True:
            assert reason is not None
            for q in reason:
                if p is not None and q == p:
                    continue  # skip the asserted literal itself
                var = abs(q)
                if not seen[var] and self.level[var] > 0:
                    seen[var] = True
                    self._bump(var)
                    if self.level[var] == cur_level:
                        counter += 1
                    else:
                        learnt.append(q)
            # pick the next trail literal at the current level
            while not seen[abs(self.trail[idx])]:
                idx -= 1
            p = self.trail[idx]
            var = abs(p)
            seen[var] = False
            counter -= 1
            idx -= 1
            if counter == 0:
                break
            reason = self.reason[var]
        assert p is not None
        learnt = [-p] + learnt
        if len(learnt) == 1:
            return learnt, 0
        back = max(self.level[abs(q)] for q in learnt[1:])
        return learnt, back

    def _backtrack(self, target_level: int) -> None:
        while self.trail_lim and len(self.trail_lim) > target_level:
            boundary = self.trail_lim.pop()
            while len(self.trail) > boundary:
                lit = self.trail.pop()
                var = abs(lit)
                self.assign[var] = 0
                self.reason[var] = None
                heappush(self._heap, (-self.activity[var], var))
        self._qhead = min(self._qhead, len(self.trail))
        if len(self._heap) > 4 * self.num_vars + 64:
            self._rebuild_heap()  # drop the stale entries

    def _decide(self) -> int:
        """Highest activity, then lowest variable; 0 when all are assigned."""
        heap = self._heap
        while heap:
            var = heappop(heap)[1]
            if self.assign[var] == 0:
                return -var  # prefer False (sparser models)
        return 0

    # -- main loop ----------------------------------------------------------------

    def solve(self, max_conflicts: int | None = None,
              budget: Budget | None = None) -> dict[int, bool] | None:
        """Return a satisfying assignment or None (UNSAT).

        ``max_conflicts`` bounds the effort; exceeding it raises
        ``RuntimeError`` (callers may retry with a larger budget).  A
        :class:`repro.runtime.Budget` makes every learnt conflict (and,
        strided, every decision) a cooperative checkpoint, raising
        :class:`repro.runtime.BudgetExceeded` on deadline expiry or
        conflict-limit exhaustion.  The search starts from level 0; a SAT
        answer leaves its assignment on the trail until the next
        :meth:`add_clause` or :meth:`solve`.
        """
        # One span per solve; the decide/propagate/conflict loop reports
        # its counters as span attributes, and a BudgetExceeded escaping
        # the block marks the span failed (repro.obs).
        with current_tracer().span(
                "cdcl.solve", vars=self.num_vars,
                clauses=len(self.clauses)) as span:
            if not self.ok:
                span.set(result="unsat", conflicts=0, decisions=0, restarts=0)
                return None
            self._backtrack(0)
            conflicts = 0
            decisions = 0
            restarts = 0
            restart_limit = 64
            since_restart = 0

            def finish(result: str) -> None:
                span.set(result=result, conflicts=conflicts,
                         decisions=decisions, restarts=restarts,
                         learnt=len(self.clauses))

            while True:
                conflict = self._propagate()
                if conflict is not None:
                    conflicts += 1
                    since_restart += 1
                    if not self.trail_lim:
                        # conflict at level 0: UNSAT, for later solves too,
                        # even if a budget aborts this one just below
                        self.ok = False
                    if budget is not None:
                        budget.tick_conflict()
                    if max_conflicts is not None and conflicts > max_conflicts:
                        finish("aborted")
                        raise RuntimeError("CDCL conflict budget exceeded")
                    if not self.ok:
                        finish("unsat")
                        return None
                    learnt, back = self._analyze(conflict)
                    self._backtrack(back)
                    if self._san:
                        self._san.check_learned(self, learnt, back)
                        self._san.check_heap(self)
                    if len(learnt) == 1:
                        if not self._enqueue(learnt[0], None):
                            self.ok = False
                            finish("unsat")
                            return None
                    else:
                        idx = len(self.clauses)
                        self.clauses.append(learnt)
                        self.watches.setdefault(-learnt[0], []).append(idx)
                        self.watches.setdefault(-learnt[1], []).append(idx)
                        self._enqueue(learnt[0], learnt)
                    self.var_inc *= 1.05
                    if since_restart >= restart_limit:
                        since_restart = 0
                        restarts += 1
                        restart_limit = int(restart_limit * 1.5)
                        self._backtrack(0)
                    continue
                if budget is not None:
                    budget.poll("cdcl.decide")
                lit = self._decide()
                if lit == 0:
                    if self._san:
                        self._san.check_trail(self)
                        self._san.check_watches(self)
                        self._san.check_model(self)
                    finish("sat")
                    return {
                        v: self.assign[v] == 1
                        for v in range(1, self.num_vars + 1)
                    }
                decisions += 1
                self.trail_lim.append(len(self.trail))
                self._enqueue(lit, None)


def solve_cnf(num_vars: int, clauses: Iterable[Sequence[int]],
              assumptions: Iterable[int] = (),
              budget: Budget | None = None) -> dict[int, bool] | None:
    """Convenience wrapper: solve with optional assumption units."""
    all_clauses = [list(c) for c in clauses]
    all_clauses.extend([lit] for lit in assumptions)
    return Solver(num_vars, all_clauses).solve(budget=budget)
