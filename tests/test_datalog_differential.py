"""Differential suite for the delta-driven semi-naive engine.

Seeded random programs and the example corpus run through old-naive
evaluation (the reference semantics: full re-derivation each round) and
the new delta-driven semi-naive join — with and without strata, and under
``REPRO_FAULTS`` starvation — and must produce identical fixpoints.  A
join-counter test then proves the complexity claim: per-round candidate
enumeration scales with the delta, not the database.
"""

import pathlib
import pickle
import random

import pytest

from repro.analysis.program import optimize_program, stratify
from repro.datalog import Neq, Program, Rule, evaluate
from repro.datalog.engine import _match_body, join_counter
from repro.datalog.program import parse_program
from repro.logic.instance import Interpretation, disjoint_union
from repro.logic.syntax import Atom, Const, Null, Var
from repro.obs import Tracer
from repro.runtime import Budget, BudgetExceeded, FaultPlan, FaultSpec

from test_datalog_property import random_instance, random_program

EXAMPLES = pathlib.Path(__file__).parent.parent / "examples"

X, Y, Z = Var("x"), Var("y"), Var("z")


def fixpoint_or_starved(program, instance, *, semi_naive, strata=None,
                        budget=None):
    try:
        return set(evaluate(program, instance, semi_naive=semi_naive,
                            strata=strata, budget=budget))
    except BudgetExceeded:
        return "starved"


class TestDifferentialFixpoints:
    @pytest.mark.parametrize("seed", range(40))
    def test_random_programs_agree(self, seed):
        rng = random.Random(7000 + seed)
        program = random_program(rng)
        instance = random_instance(rng)
        naive = fixpoint_or_starved(program, instance, semi_naive=False)
        semi = fixpoint_or_starved(program, instance, semi_naive=True)
        assert naive == semi, f"divergence on seed {seed}:\n{program!r}"

    @pytest.mark.parametrize("seed", range(20))
    def test_random_programs_agree_with_strata(self, seed):
        rng = random.Random(8000 + seed)
        program = random_program(rng)
        instance = random_instance(rng)
        naive = fixpoint_or_starved(program, instance, semi_naive=False)
        strat = fixpoint_or_starved(program, instance, semi_naive=True,
                                    strata=stratify(program))
        assert naive == strat, f"divergence on seed {seed}:\n{program!r}"

    @pytest.mark.parametrize("seed", range(10))
    def test_optimized_programs_agree(self, seed):
        rng = random.Random(9000 + seed)
        program = random_program(rng)
        instance = random_instance(rng)
        result = optimize_program(program)
        naive = fixpoint_or_starved(program, instance, semi_naive=False)
        opt = fixpoint_or_starved(result.program, instance, semi_naive=True,
                                  strata=result.strata)
        assert {f for f in naive if f.pred == program.goal} == \
            {f for f in opt if f.pred == program.goal}

    def test_corpus_program_agrees(self):
        text = (EXAMPLES / "programs" / "reachability.dlog").read_text()
        program = parse_program(text)
        inst = Interpretation()
        for fact in ("start(a)", "edge(a,b)", "edge(b,c)", "edge(c,a)",
                     "edge(c,d)", "label(d)", "label(b)"):
            pred, args = fact.split("(")
            args = tuple(Const(a) for a in args.rstrip(")").split(","))
            inst.add(Atom(pred, args))
        naive = fixpoint_or_starved(program, inst, semi_naive=False)
        semi = fixpoint_or_starved(program, inst, semi_naive=True)
        strat = fixpoint_or_starved(program, inst, semi_naive=True,
                                    strata=stratify(program))
        assert naive == semi == strat
        assert {f.args[0].name for f in naive if f.pred == "goal"} \
            == {"a", "b", "c"}

    def test_atomless_rule_fires_like_naive(self):
        # An all-builtin body used to never fire under semi-naive (the
        # `used_delta` flag never became true) while naive fired it.
        program = Program([
            Rule(Atom("goal", ()), [Neq(Const("a"), Const("b"))]),
        ])
        inst = Interpretation([Atom("E", (Const("a"),))])
        naive = fixpoint_or_starved(program, inst, semi_naive=False)
        semi = fixpoint_or_starved(program, inst, semi_naive=True)
        assert naive == semi
        assert Atom("goal", ()) in semi

    @pytest.mark.parametrize("seed", range(6))
    def test_both_engines_starve_identically(self, seed):
        rng = random.Random(100 + seed)
        program = random_program(rng)
        instance = random_instance(rng)

        def starved_budget():
            return Budget(timeout=60.0,
                          faults=FaultPlan([FaultSpec("deadline", period=1)]))

        naive = fixpoint_or_starved(program, instance, semi_naive=False,
                                    budget=starved_budget())
        semi = fixpoint_or_starved(program, instance, semi_naive=True,
                                   budget=starved_budget())
        assert naive == "starved" and semi == "starved"

    @pytest.mark.parametrize("seed", range(6))
    def test_env_faults_hit_both_engines(self, seed, monkeypatch):
        from repro.runtime import faults

        monkeypatch.setenv("REPRO_FAULTS", "deadline:@1")
        rng = random.Random(200 + seed)
        program = random_program(rng)
        instance = random_instance(rng)
        for semi_naive in (False, True):
            # deadline:@1 is a one-shot plan; re-arm it for each engine.
            monkeypatch.setattr(faults, "_cache", None)
            assert fixpoint_or_starved(
                program, instance, semi_naive=semi_naive,
                budget=Budget(timeout=60.0)) == "starved"


# -- complexity: round work tracks the delta, not the database ------------


def chain_reachability(n: int) -> tuple[Program, Interpretation]:
    """Single-source reachability over an n-edge chain: every semi-naive
    round derives exactly one new fact, so round work must stay O(1)."""
    program = Program([
        Rule(Atom("P", (X,)), [Atom("Src", (X,))]),
        Rule(Atom("P", (Y,)), [Atom("P", (X,)), Atom("E", (X, Y))]),
        Rule(Atom("goal", (X,)), [Atom("P", (X,))]),
    ])
    inst = Interpretation([Atom("Src", (Const("n0"),))])
    for i in range(n):
        inst.add(Atom("E", (Const(f"n{i}"), Const(f"n{i+1}"))))
    return program, inst


def semi_naive_candidates(n: int) -> int:
    program, inst = chain_reachability(n)
    join_counter.reset()
    evaluate(program, inst, semi_naive=True)
    return join_counter.candidates


class TestJoinWorkScalesWithDelta:
    def test_total_work_linear_not_quadratic(self):
        # n rounds of |delta| = 1 each: the delta-driven join does O(1)
        # work per round, so total candidates grow linearly in n.  The
        # old filter-on-delta engine re-enumerated all n P-facts against
        # the chain every round — Theta(n^2) — and fails this bound.
        small, large = semi_naive_candidates(50), semi_naive_candidates(200)
        assert large <= 6 * small, (small, large)
        assert large <= 40 * 200, large

    def test_per_round_candidates_bounded_by_delta(self):
        # Spans record candidates per round; after the first round (where
        # delta == the whole EDB) each round's join work must be a small
        # constant multiple of its delta, independent of database size.
        program, inst = chain_reachability(150)
        tracer = Tracer()
        evaluate(program, inst, semi_naive=True, tracer=tracer)
        rounds = [s for s in tracer.to_dicts()
                  if s["name"] == "datalog.round"]
        assert len(rounds) > 100
        for span in rounds[1:]:
            delta = span["attrs"]["delta"]
            candidates = span["attrs"]["candidates"]
            assert candidates <= 8 * (delta + 1), (
                span["attrs"], "round work must track |delta|, not |DB|")

    def test_match_body_only_reads_delta_buckets(self):
        # Direct unit check: with a one-fact delta, _match_body touches a
        # bounded number of candidates no matter how large `facts` is.
        program, inst = chain_reachability(400)
        fixpoint = evaluate(program, inst, semi_naive=True)
        delta = Interpretation([Atom("P", (Const("n42"),))])
        join_counter.reset()
        matches = list(_match_body(program.rules[1], fixpoint, delta))
        assert len(matches) == 1  # P(n42) & E(n42, n43)
        assert join_counter.candidates <= 8, join_counter.candidates


# -- the compiled kernel: slot plans, repeated variables, shared bodies ---


def all_fixpoints(program, instance):
    """Naive, semi-naive and stratified fixpoints, asserted equal."""
    naive = fixpoint_or_starved(program, instance, semi_naive=False)
    semi = fixpoint_or_starved(program, instance, semi_naive=True)
    strat = fixpoint_or_starved(program, instance, semi_naive=True,
                                strata=stratify(program))
    assert naive == semi == strat
    return semi


def names(fixpoint, pred):
    return {tuple(a.name for a in f.args) for f in fixpoint if f.pred == pred}


class TestCompiledKernel:
    # S is derived from R one round after the EDB, so the S atoms below
    # are also seeded from a non-initial delta.  S(c,d) and S(d,c) make
    # both index buckets of S(y,y) at y = c non-empty, with no loop at c.
    REPEATS = Interpretation(
        Atom(pred, (Const(u), Const(v))) for pred, u, v in (
            ("E", "a", "b"), ("E", "a", "c"), ("E", "d", "d"),
            ("E", "e", "c"), ("R", "b", "b"), ("R", "c", "d"),
            ("R", "d", "c"), ("R", "d", "d")))

    def test_repeated_variable_in_seed_atom(self):
        program = Program([
            Rule(Atom("S", (X, Y)), [Atom("R", (X, Y))]),
            Rule(Atom("Loop", (Y,)), [Atom("S", (Y, Y))]),
            # Seeded from S: y repeats inside the seed atom itself.
            Rule(Atom("Hit", (X,)), [Atom("E", (X, Y)), Atom("S", (Y, Y))]),
        ])
        fixpoint = all_fixpoints(program, self.REPEATS)
        assert names(fixpoint, "Loop") == {("b",), ("d",)}
        assert names(fixpoint, "Hit") == {("a",), ("d",)}

    def test_repeated_variable_in_later_atom(self):
        program = Program([
            Rule(Atom("S", (X, Y)), [Atom("R", (X, Y))]),
            # Seeded from E: z is new at S and repeats inside it.
            Rule(Atom("Far", (X, Z)),
                 [Atom("E", (X, Y)), Atom("S", (Z, Z)), Neq(Y, Z)]),
            # Seeded from E: y is bound before S and fills both positions.
            Rule(Atom("Hit", (X,)), [Atom("E", (X, Y)), Atom("S", (Y, Y))]),
            # Seeded from E(x, x): the repeat is in the seed, S is later.
            Rule(Atom("Self", (X,)), [Atom("E", (X, X)), Atom("S", (X, Y))]),
        ])
        fixpoint = all_fixpoints(program, self.REPEATS)
        assert names(fixpoint, "Far") == {
            ("a", "b"), ("a", "d"), ("d", "b"), ("e", "b"), ("e", "d")}
        assert names(fixpoint, "Hit") == {("a",), ("d",)}
        assert names(fixpoint, "Self") == {("d",)}

    def test_shared_body_joins_once_and_fires_every_head(self):
        # The second body equals the first up to renaming (y,x,z for
        # x,y,z), so the two rules share one compiled body.
        path = Rule(Atom("P", (X, Z)), [Atom("E", (X, Y)), Atom("E", (Y, Z))])
        mid = Rule(Atom("M", (X,)), [Atom("E", (Y, X)), Atom("E", (X, Z))])
        inst = Interpretation(
            Atom("E", (Const(f"n{i}"), Const(f"n{i + 1}"))) for i in range(6))
        costs = {}
        for label, program in (("one", Program([path])),
                               ("two", Program([path, mid]))):
            join_counter.reset()
            fixpoint = evaluate(program, inst)
            costs[label] = join_counter.candidates
        assert names(fixpoint, "P") == {
            (f"n{i}", f"n{i + 2}") for i in range(5)}
        assert names(fixpoint, "M") == {(f"n{i}",) for i in range(1, 6)}
        assert costs["two"] == costs["one"] > 0

    def test_program_freed_once_clear_caches_drops_its_plan(self):
        import gc
        import weakref

        from repro.logic.instance import make_instance
        from repro.logic.ontology import ontology
        from repro.serving import clear_caches, compile_omq

        clear_caches()
        onto = ontology("forall x,y (R(x,y) -> (A(x) -> A(y)))")
        plan = compile_omq(onto, "q(x) <- A(x)", fastpath="auto")
        assert plan.plan_kind == "datalog-fastpath"
        plan.evaluate(make_instance("A(a)", "R(a,b)"))
        program = weakref.ref(plan.program)
        del plan
        clear_caches()
        gc.collect()
        assert program() is None

    def test_compiled_plans_stay_out_of_pickles(self):
        program, inst = chain_reachability(20)
        before = pickle.dumps(program)
        evaluate(program, inst)
        evaluate(program, inst, semi_naive=False)
        assert len(pickle.dumps(program)) == len(before)
        assert pickle.loads(before) == program


# -- regressions riding along ---------------------------------------------


class TestDisjointUnionCollisions:
    def test_const_and_null_clash_stay_distinct(self):
        # Both Const("x") and Null("x") clash with part 0; the old rename
        # mapped both to Null("du1_x"), silently merging them.
        part0 = Interpretation([
            Atom("A", (Const("x"),)), Atom("A", (Null("x"),))])
        part1 = Interpretation([
            Atom("B", (Const("x"), Null("x")))])
        union = disjoint_union([part0, part1])
        assert len(union.dom()) == 4
        (b_args,) = union.tuples("B")
        assert b_args[0] != b_args[1]

    def test_rename_avoids_existing_elements(self):
        # A pre-existing element spelled like a rename target must not be
        # captured by the renaming.
        part0 = Interpretation([Atom("A", (Const("x"),))])
        part1 = Interpretation([
            Atom("B", (Const("x"), Null("du1_c0_x")))])
        union = disjoint_union([part0, part1])
        assert len(union.dom()) == 3

    def test_disjoint_parts_untouched(self):
        part0 = Interpretation([Atom("A", (Const("a"),))])
        part1 = Interpretation([Atom("B", (Const("b"),))])
        union = disjoint_union([part0, part1])
        assert Atom("A", (Const("a"),)) in union
        assert Atom("B", (Const("b"),)) in union


class TestIterationCache:
    def test_iteration_is_canonical_and_cached(self):
        inst = Interpretation([Atom("R", (Const("b"), Const("a"))),
                               Atom("E", (Const("z"),))])
        first = list(inst)
        assert first == sorted(first, key=lambda a: (a.pred, repr(a)))
        assert list(inst) == first

    def test_mutation_invalidates_cache(self):
        inst = Interpretation([Atom("E", (Const("a"),))])
        list(inst)
        inst.add(Atom("E", (Const("b"),)))
        assert len(list(inst)) == 2
        inst.discard(Atom("E", (Const("a"),)))
        assert list(inst) == [Atom("E", (Const("b"),))]

    def test_copy_shares_then_diverges(self):
        inst = Interpretation([Atom("E", (Const("a"),))])
        clone = inst.copy()
        clone.add(Atom("E", (Const("b"),)))
        assert len(list(inst)) == 1 and len(list(clone)) == 2


class TestInterning:
    def test_terms_are_interned(self):
        assert Const("a") is Const("a")
        assert Null("n1") is Null("n1")
        assert Var("x") is Var("x")
        assert Const("a") != Null("a")

    def test_pickle_round_trip_reinterns(self):
        for term in (Const("a"), Null("n1"), Var("x")):
            clone = pickle.loads(pickle.dumps(term))
            assert clone is term
        atom = Atom("R", (Const("a"), Null("n1")))
        clone = pickle.loads(pickle.dumps(atom))
        assert clone == atom and hash(clone) == hash(atom)


class TestUnsafeRuleRejection:
    def test_program_rejects_bypassed_unsafe_rule(self):
        # Build a rule without running Rule.__init__ (as unpickling or
        # hand-built frozen instances can) — Program still rejects it.
        bad = object.__new__(Rule)
        object.__setattr__(bad, "head", Atom("goal", (X,)))
        object.__setattr__(bad, "body", (Atom("E", (X,)), Neq(X, Y)))
        with pytest.raises(ValueError, match="inequality variable"):
            Program([bad])

    def test_engine_raises_clear_error_not_keyerror(self):
        bad = object.__new__(Rule)
        object.__setattr__(bad, "head", Atom("goal", (X,)))
        object.__setattr__(bad, "body", (Atom("E", (X,)), Neq(X, Y)))
        facts = Interpretation([Atom("E", (Const("a"),))])
        delta = facts.copy()
        with pytest.raises(ValueError, match="not bound by any relational"):
            list(_match_body(bad, facts, delta))
