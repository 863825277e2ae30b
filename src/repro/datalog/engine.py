"""Bottom-up evaluation of Datalog(≠) programs.

Provides both semi-naive evaluation (the default) and naive evaluation
(full re-derivation each round; kept for the ablation benchmark and the
differential property suite).

The semi-naive join is *delta-driven*: for every rule and every relational
body-atom position, the backtracking join is seeded from the tuples derived
in the previous round, so per-round work is proportional to the new facts,
not the whole database.  Concretely, a rule body ``B1 & ... & Bn`` is
evaluated once per seed position ``i`` with

* ``Bi`` matched against the **delta** (facts new since the last round),
* ``Bj`` for ``j < i`` matched against the **old** facts only (full set
  minus delta), and
* ``Bj`` for ``j > i`` matched against the **full** fact set,

which partitions the assignments that touch at least one delta fact —
every such assignment is enumerated exactly once across the seeds.  Each
non-seed atom pulls its candidates from the interpretation's
``(pred, position, value)`` hash indexes (:class:`repro.logic.instance.
Interpretation`), never from a scan.

A program is compiled once (:func:`compile_program`) into join plans that
every later evaluation reuses: body variables become integer slots of a
flat environment list, and each join step knows in advance which
argument positions are constants, already-bound slots, new bindings or
repeats of a variable bound earlier in the same atom.  Rules whose
bodies are equal up to variable renaming share one compiled body: it is
joined once and every head fires from each match.  The compiled form is
cached on the :class:`~repro.datalog.program.Program` object itself, so
it lives and dies with the program and never enters its pickles,
equality or hash.

``join_counter`` counts candidate tuples touched; the differential test
suite uses it to assert that round work scales with ``|delta|`` and the
``datalog.round`` tracer spans record it per round for ``repro trace
summarize`` profiles.  A shared body is counted once per join, however
many heads it fires.
"""

from __future__ import annotations

from typing import Callable, Iterator

from ..logic.instance import Interpretation
from ..logic.syntax import Atom, Element, Var
from ..obs import current_tracer
from .program import BodyLiteral, Neq, Program, Rule


class JoinCounter:
    """Join-work accounting: candidate tuples touched and body matches.

    ``candidates`` counts every tuple pulled from an index bucket and
    tested against the partial assignment — the unit of join work.  The
    module-global :data:`join_counter` is updated by every evaluation;
    tests reset it to prove semi-naive rounds scale with the delta.
    """

    __slots__ = ("candidates", "matches")

    def __init__(self) -> None:
        self.candidates = 0
        self.matches = 0

    def reset(self) -> None:
        self.candidates = 0
        self.matches = 0

    def snapshot(self) -> dict[str, int]:
        return {"candidates": self.candidates, "matches": self.matches}


#: Global join-work counters (reset via ``join_counter.reset()``).
join_counter = JoinCounter()

# Where a join step reads its candidates from (see the module docstring).
_FULL, _DELTA, _OLD = 0, 1, 2


class _Step:
    """One relational atom of a join order, with its argument positions
    split by what is known about them before the step runs."""

    __slots__ = ("pred", "source", "consts", "const_keys", "bound",
                 "checked", "binds", "repeats")

    def __init__(self, pred: str, args: tuple, source: int,
                 bound_before: set[int]):
        self.pred = pred
        self.source = source
        # (position, element) for constant arguments, and their index keys.
        self.consts = tuple((p, a) for p, a in enumerate(args)
                            if a.__class__ is not int)
        self.const_keys = tuple((pred, p, a) for p, a in self.consts)
        # (position, slot) for variables bound by an earlier step.
        self.bound = tuple((p, a) for p, a in enumerate(args)
                           if a.__class__ is int and a in bound_before)
        # With one known position its index bucket already agrees on it.
        self.checked = len(self.consts) + len(self.bound) > 1
        binds: list[tuple[int, int]] = []
        repeats: list[tuple[int, int]] = []
        first: dict[int, int] = {}
        for p, a in enumerate(args):
            if a.__class__ is int and a not in bound_before:
                if a in first:
                    repeats.append((p, first[a]))
                else:
                    first[a] = p
                    binds.append((p, a))
        # (position, slot) for the first occurrence of each new variable,
        # and (position, earlier position) for its repeats in this atom.
        self.binds = tuple(binds)
        self.repeats = tuple(repeats)


def _steps(atoms: tuple, order, seed: int) -> tuple[_Step, ...]:
    """The steps of one join order; *seed* is the delta atom's authoring
    index, or -1 for a join over the full fact set."""
    bound: set[int] = set()
    steps = []
    for j in order:
        pred, args = atoms[j]
        if seed < 0:
            source = _FULL
        else:
            source = _DELTA if j == seed else _OLD if j < seed else _FULL
        steps.append(_Step(pred, args, source, bound))
        bound.update(a for a in args if a.__class__ is int)
    return tuple(steps)


def _seed_order(atom_vars: list[frozenset[int]], seed: int) -> list[int]:
    """Join order for one seed: the delta atom first, then greedily the
    atom sharing the most already-bound variables (fewest new variables,
    then authoring order, as tie-breaks)."""
    remaining = [i for i in range(len(atom_vars)) if i != seed]
    order = [seed]
    bound = set(atom_vars[seed])
    while remaining:
        def gain(i: int) -> tuple:
            vs = atom_vars[i]
            return (-len(vs & bound), len(vs - bound), i)
        nxt = min(remaining, key=gain)
        order.append(nxt)
        remaining.remove(nxt)
        bound |= atom_vars[nxt]
    return order


class _Body:
    """A rule body compiled once: ``(seed predicate, steps)`` per
    semi-naive seed, and the authoring-order steps of naive evaluation
    (built on first use)."""

    __slots__ = ("atoms", "neqs", "nslots", "seeded", "_naive")

    def __init__(self, atoms: tuple, neqs: tuple, nslots: int):
        self.atoms = atoms
        self.neqs = neqs
        self.nslots = nslots
        atom_vars = [frozenset(a for a in args if a.__class__ is int)
                     for _, args in atoms]
        if atoms:
            self.seeded = tuple(
                (atoms[seed][0],
                 _steps(atoms, _seed_order(atom_vars, seed), seed))
                for seed in range(len(atoms)))
        else:
            # A body of builtins only matches whenever its (constant)
            # inequalities do.  Firing is idempotent, so re-matching it
            # each round only re-derives an already-known head fact.
            self.seeded = ((None, ()),)
        self._naive: tuple[_Step, ...] | None = None

    def match(self, facts: Interpretation, delta: Interpretation | None,
              emit: Callable[[list], None]) -> None:
        """Call *emit* with the environment of every satisfying assignment.

        With *delta* given, the delta drives the join (semi-naive): every
        match grounds at least one relational atom inside the delta, and
        each such match is emitted exactly once.  *emit* must not keep the
        environment list: the join overwrites it in place.
        """
        env = [None] * self.nslots
        if delta is None:
            # Naive full join in authoring order (the optimizer's
            # order_body already placed bound-first atoms up front).
            if self._naive is None:
                self._naive = _steps(self.atoms, range(len(self.atoms)), -1)
            _join(self._naive, self.neqs, facts, None, env, emit)
            return
        in_delta = delta.join_index()[0]
        for seed_pred, steps in self.seeded:
            if seed_pred is None or seed_pred in in_delta:
                _join(steps, self.neqs, facts, delta, env, emit)


def _join(steps: tuple[_Step, ...], neqs: tuple, facts: Interpretation,
          delta: Interpretation | None, env: list,
          emit: Callable[[list], None]) -> None:
    """The join kernel: backtracking over *steps*, binding slots of *env*
    in place, with the inequalities *neqs* filtering each complete
    assignment.  A ``_DELTA`` step reads *delta*; an ``_OLD`` step reads
    *facts* and skips tuples in *delta*.  Each step draws its candidates
    from the smallest index bucket over its known positions, exactly as
    :meth:`Interpretation.candidate_tuples` does."""
    n = len(steps)
    counter = join_counter
    full = facts.join_index()
    new = delta.join_index() if delta is not None else full

    def rec(k: int) -> None:
        if k == n:
            for left, right in neqs:
                if left.__class__ is int:
                    left = env[left]
                if right.__class__ is int:
                    right = env[right]
                if left is right or left == right:
                    return
            counter.matches += 1
            emit(env)
            return
        step = steps[k]
        pred = step.pred
        by_pred, index = new if step.source == _DELTA else full
        candidates = by_pred.get(pred)
        if not candidates:
            return
        size = len(candidates)
        for key in step.const_keys:
            bucket = index.get(key)
            if bucket is None:
                return
            if len(bucket) < size:
                candidates, size = bucket, len(bucket)
        for p, s in step.bound:
            bucket = index.get((pred, p, env[s]))
            if bucket is None:
                return
            if len(bucket) < size:
                candidates, size = bucket, len(bucket)
        counter.candidates += size
        if step.checked:
            check = step.consts + tuple([(p, env[s]) for p, s in step.bound])
        else:
            check = ()
        skip = new[0].get(pred, ()) if step.source == _OLD else ()
        binds, repeats = step.binds, step.repeats
        for args in candidates:
            if args in skip:
                continue  # already enumerated with an earlier seed
            for p, value in check:
                a = args[p]
                if a is not value and a != value:
                    break
            else:
                for p, q in repeats:
                    a, b = args[p], args[q]
                    if a is not b and a != b:
                        break
                else:
                    for p, s in binds:
                        env[s] = args[p]
                    rec(k + 1)

    rec(0)


def _compile_body(body: tuple[BodyLiteral, ...]) -> tuple[tuple, dict]:
    """The canonical form of a body: variables numbered by first occurrence
    in the relational atoms, so bodies equal up to renaming get the same
    key.  Returns the key and the rule's variable-to-slot map.

    In compiled atoms, heads and inequalities an ``int`` argument is an
    environment slot and anything else a constant (elements are never
    ints)."""
    slots: dict[Var, int] = {}
    atoms = []
    for lit in body:
        if isinstance(lit, Atom):
            args = tuple(slots.setdefault(t, len(slots))
                         if isinstance(t, Var) else t for t in lit.args)
            atoms.append((lit.pred, args))
    neqs = []
    for lit in body:
        if isinstance(lit, Neq):
            sides = []
            for t in (lit.left, lit.right):
                if isinstance(t, Var):
                    if t not in slots:
                        # A rule that bypassed Rule/Program validation.
                        raise ValueError(
                            f"unsafe rule: inequality variable {t!r} is "
                            "not bound by any relational body atom")
                    t = slots[t]
                sides.append(t)
            neqs.append(tuple(sides))
    return (tuple(atoms), tuple(neqs)), slots


class CompiledProgram:
    """The join plans of one program, shared by every evaluation of it.

    ``rule_body[i]`` is the compiled body of rule ``i`` and
    ``rule_head[i]`` its head as ``(pred, slotted args)``; rules with
    bodies equal up to renaming share one :class:`_Body`.
    """

    __slots__ = ("rule_body", "rule_head", "_groups")

    def __init__(self, rules: tuple[Rule, ...]):
        bodies: dict[tuple, _Body] = {}
        self.rule_body: list[_Body] = []
        self.rule_head: list[tuple[str, tuple]] = []
        for rule in rules:
            key, slots = _compile_body(rule.body)
            body = bodies.get(key)
            if body is None:
                body = bodies[key] = _Body(*key, nslots=len(slots))
            head_args = tuple(slots[t] if isinstance(t, Var) else t
                              for t in rule.head.args)
            self.rule_body.append(body)
            self.rule_head.append((rule.head.pred, head_args))
        self._groups: dict = {}

    def groups(self, rule_ids: tuple[int, ...]
               ) -> tuple[tuple[_Body, tuple], ...]:
        """The rules *rule_ids* as ``(body, heads)`` groups, one per
        distinct body, in order of first appearance."""
        cached = self._groups.get(rule_ids)
        if cached is None:
            heads: dict[_Body, list] = {}
            for i in rule_ids:
                heads.setdefault(self.rule_body[i], []).append(
                    self.rule_head[i])
            cached = self._groups[rule_ids] = tuple(
                (body, tuple(hs)) for body, hs in heads.items())
        return cached


def compile_program(program: Program) -> CompiledProgram:
    """The program's compiled join plans, built on first use and cached on
    the program object (``Program.__getstate__`` leaves them out)."""
    compiled = program.__dict__.get("_compiled")
    if compiled is None:
        compiled = CompiledProgram(program.rules)
        object.__setattr__(program, "_compiled", compiled)
    return compiled


def _fire_into(heads: tuple, facts: Interpretation,
               sink: Callable[[Atom], None]) -> Callable[[list], None]:
    """An ``emit`` callback deriving every head from one match and passing
    each fact not yet in *facts* to *sink*."""
    def emit(env: list) -> None:
        for pred, spec in heads:
            args = tuple([env[t] if t.__class__ is int else t
                          for t in spec])
            if not facts.has_tuple(pred, args):
                sink(Atom(pred, args))
    return emit


def _match_body(
    rule: Rule,
    facts: Interpretation,
    delta: Interpretation | None,
) -> Iterator[dict[Var, Element]]:
    """Enumerate satisfying assignments of one rule body as variable
    bindings — the compiled kernel seen one rule at a time (tests)."""
    key, slots = _compile_body(rule.body)
    envs: list[list] = []
    _Body(*key, nslots=len(slots)).match(
        facts, delta, lambda env: envs.append(list(env)))
    for env in envs:
        yield {v: env[s] for v, s in slots.items()}


def evaluate(program: Program, instance: Interpretation,
             semi_naive: bool = True, tracer=None,
             strata: "tuple[tuple[int, ...], ...] | None" = None,
             budget=None) -> Interpretation:
    """Compute the least fixpoint of the program over the instance.

    Returns the instance extended with all derived IDB facts (including
    goal facts).  *tracer* (a :class:`repro.obs.Tracer`) defaults to the
    ambient :func:`repro.obs.current_tracer`; every fixpoint round becomes
    a ``datalog.round`` span recording its delta size and the candidate
    tuples its joins touched.

    *strata* (from :func:`repro.analysis.program.stratify`) partitions the
    rule indexes into groups that only read equal-or-earlier groups; the
    semi-naive loop then runs each stratum to its own fixpoint in order,
    never re-matching the rules of finished strata — the same least
    fixpoint, fewer wasted joins.  *budget* (a
    :class:`repro.runtime.Budget`) is polled once per round via
    ``check_deadline``, so a runaway fixpoint raises
    :class:`~repro.runtime.BudgetExceeded` instead of hanging a server.
    """
    if tracer is None:
        tracer = current_tracer()
    compiled = compile_program(program)
    facts = instance.copy()
    rounds = 0
    counter = join_counter
    with tracer.span("datalog.evaluate", rules=len(program.rules),
                     semi_naive=semi_naive, edb=len(facts),
                     strata=len(strata) if strata is not None else 1) as span:
        if semi_naive:
            for stratum in (strata if strata is not None
                            else (tuple(range(len(program.rules))),)):
                groups = compiled.groups(tuple(stratum))
                # Each stratum restarts semi-naive with everything known so
                # far as the delta: its rules have not seen any of it yet.
                delta = facts.copy()
                while len(delta):
                    rounds += 1
                    if budget is not None:
                        budget.check_deadline("datalog.round")
                    with tracer.span("datalog.round", round=rounds) as rspan:
                        before = counter.candidates
                        new_delta = Interpretation()
                        for body, heads in groups:
                            body.match(facts, delta,
                                       _fire_into(heads, facts, new_delta.add))
                        for fact in new_delta:
                            facts.add(fact)
                        delta = new_delta
                        rspan.set(delta=len(new_delta),
                                  candidates=counter.candidates - before)
        else:
            groups = compiled.groups(tuple(range(len(program.rules))))
            changed = True
            while changed:
                rounds += 1
                if budget is not None:
                    budget.check_deadline("datalog.round")
                with tracer.span("datalog.round", round=rounds) as rspan:
                    before = counter.candidates
                    changed = False
                    fresh: list[Atom] = []
                    for body, heads in groups:
                        body.match(facts, None,
                                   _fire_into(heads, facts, fresh.append))
                    derived = 0
                    for fact in fresh:
                        if fact not in facts:
                            facts.add(fact)
                            derived += 1
                            changed = True
                    rspan.set(delta=derived,
                              candidates=counter.candidates - before)
        span.set(rounds=rounds, facts=len(facts),
                 derived=len(facts) - len(instance))
    return facts


def goal_answers(program: Program, instance: Interpretation,
                 semi_naive: bool = True,
                 strata: "tuple[tuple[int, ...], ...] | None" = None,
                 budget=None) -> set[tuple[Element, ...]]:
    """All derived goal tuples: ``{a | D |= Pi(a)}``."""
    fixpoint = evaluate(program, instance, semi_naive,
                        strata=strata, budget=budget)
    return set(fixpoint.tuples(program.goal))


def entails_goal(program: Program, instance: Interpretation,
                 answer: tuple[Element, ...] = ()) -> bool:
    """Decide ``D |= Pi(answer)``."""
    return answer in goal_answers(program, instance)
