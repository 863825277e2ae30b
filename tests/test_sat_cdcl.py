"""Unit tests for the SAT layer: grounding, CNF encoding, CDCL, DPLL."""

import itertools

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.logic.instance import make_instance
from repro.logic.model_check import evaluate
from repro.logic.parser import parse_formula
from repro.logic.syntax import And, Atom, Bottom, Const, Not, Or, Top, Var
from repro.semantics.cdcl import Solver, solve_cnf
from repro.semantics.sat import (
    CNF, add_formula, add_formula_iff, dpll, dpll_basic, ground,
    model_to_interpretation,
)

a, b = Const("a"), Const("b")


class TestGrounding:
    def test_forall_expands(self):
        phi = ground(parse_formula("forall x (x = x -> A(x))"), [a, b])
        assert isinstance(phi, And)
        assert len(phi.conjuncts) == 2

    def test_exists_expands(self):
        phi = ground(parse_formula("exists x (A(x) & B(x))"), [a, b])
        assert isinstance(phi, Or)

    def test_equality_resolves(self):
        phi = ground(parse_formula("forall x,y (R(x,y) -> x = y)"), [a, b])
        # R(a,b) -> a=b grounds to ~R(a,b); R(a,a) -> Top vanishes
        cnf = CNF()
        add_formula(cnf, phi)
        model = dpll(cnf)
        assert model is not None
        # R(a,b) must be false in every model
        var = cnf.var_of.get(("R", (a, b)))
        assert var is None or not model[var]

    def test_counting_over_small_domain(self):
        phi = ground(parse_formula("exists>=2 y (R(x,y))"), [a, b],
                     {Var("x"): a})
        cnf = CNF()
        add_formula(cnf, phi)
        model = dpll(cnf)
        assert model is not None
        interp = model_to_interpretation(cnf, model)
        assert len(interp.tuples("R")) == 2

    def test_counting_infeasible(self):
        phi = ground(parse_formula("exists>=3 y (R(x,y))"), [a, b],
                     {Var("x"): a})
        assert phi == Bottom()

    def test_guard_none_forall(self):
        phi = ground(parse_formula("forall x (A(x) | B(x))"), [a])
        cnf = CNF()
        add_formula(cnf, phi)
        assert dpll(cnf) is not None

    def test_nested_shadowed_variable(self):
        phi = parse_formula(
            "forall x (x = x -> (A(x) -> exists y (R(x,y) & "
            "exists x (S(y,x) & B(x)))))")
        g = ground(phi, [a, b])
        cnf = CNF()
        add_formula(cnf, g)
        assert dpll(cnf) is not None


class TestEncoding:
    def test_add_formula_iff_positive(self):
        cnf = CNF()
        ind = cnf.aux_var()
        add_formula_iff(cnf, ind, Atom("A", (a,)))
        atom_var = cnf.atom_var(("A", (a,)))
        # indicator true forces atom true
        model = solve_cnf(cnf.num_vars, cnf.clauses, [ind])
        assert model is not None and model[atom_var]
        # indicator false forces atom false
        model2 = solve_cnf(cnf.num_vars, cnf.clauses, [-ind])
        assert model2 is not None and not model2[atom_var]

    def test_add_formula_iff_valid(self):
        cnf = CNF()
        ind = cnf.aux_var()
        add_formula_iff(cnf, ind, Top())
        model = dpll(cnf)
        assert model is not None and model[ind]

    def test_add_formula_iff_unsat(self):
        cnf = CNF()
        ind = cnf.aux_var()
        add_formula_iff(cnf, ind, Bottom())
        model = dpll(cnf)
        assert model is not None and not model[ind]

    def test_tautology_clause_dropped(self):
        solver = Solver(2, [[1, -1]])
        assert solver.solve() is not None

    def test_empty_clause_unsat(self):
        solver = Solver(1, [[]])
        assert solver.solve() is None


class TestCDCL:
    def test_simple_unsat(self):
        assert solve_cnf(2, [[1], [-1]]) is None

    def test_implication_chain(self):
        # 1 -> 2 -> 3 -> ... -> -1: contradiction
        clauses = [[1], [-1, 2], [-2, 3], [-3, -1]]
        assert solve_cnf(3, clauses) is None

    def test_pigeonhole_3_2(self):
        """3 pigeons in 2 holes: classically UNSAT (exercises learning)."""
        # var p_{i,h} = 1 + i*2 + h for i in 0..2, h in 0..1
        def v(i, h):
            return 1 + i * 2 + h

        clauses = [[v(i, 0), v(i, 1)] for i in range(3)]
        for h in range(2):
            for i, j in itertools.combinations(range(3), 2):
                clauses.append([-v(i, h), -v(j, h)])
        assert solve_cnf(6, clauses) is None

    def test_satisfiable_with_assumptions(self):
        model = solve_cnf(3, [[1, 2], [-1, 3]], assumptions=[1])
        assert model is not None
        assert model[1] and model[3]

    def test_conflicting_assumptions(self):
        assert solve_cnf(2, [[1]], assumptions=[-1]) is None

    def test_dpll_basic_agrees_with_cdcl(self):
        """Ablation check: the reference DPLL agrees with CDCL."""
        from repro.logic.parser import parse_formula

        cases = [
            "forall x (x = x -> (A(x) | B(x)))",
            "forall x (x = x -> (A(x) -> ~A(x)))",
            "exists x (A(x) & ~A(x))",
        ]
        for text in cases:
            phi = ground(parse_formula(text), [a, b])
            cnf1 = CNF()
            add_formula(cnf1, phi)
            cnf2 = CNF()
            add_formula(cnf2, phi)
            assert (dpll(cnf1) is None) == (dpll_basic(cnf2) is None)


def _satisfies(model, clauses):
    return all(any(model[abs(l)] == (l > 0) for l in c) for c in clauses)


def _brute_force_projections(num_vars, clauses, projection):
    out = set()
    for values in itertools.product((False, True), repeat=num_vars):
        model = dict(enumerate(values, start=1))
        if _satisfies(model, clauses):
            out.add(tuple(model[v] for v in projection))
    return out


@st.composite
def _cnf_with_projection(draw):
    num_vars = draw(st.integers(1, 6))
    lit = st.integers(1, num_vars).flatmap(lambda v: st.sampled_from([v, -v]))
    clauses = draw(st.lists(st.lists(lit, min_size=1, max_size=4),
                            max_size=14))
    projection = draw(st.lists(st.integers(1, num_vars), min_size=1,
                               max_size=num_vars, unique=True))
    return num_vars, clauses, projection


class TestIncremental:
    """One solver, clauses added between solves."""

    @settings(max_examples=150, deadline=None)
    @given(_cnf_with_projection())
    def test_allsat_matches_brute_force(self, case):
        num_vars, clauses, projection = case
        solver = Solver(num_vars, clauses)
        found = []
        while (model := solver.solve()) is not None:
            assert _satisfies(model, clauses)
            assert len(found) < 2 ** len(projection), "a blocked model recurs"
            bits = tuple(model[v] for v in projection)
            found.append(bits)
            solver.add_clause(
                [-v if bit else v for v, bit in zip(projection, bits)])
        assert len(found) == len(set(found))
        assert set(found) == _brute_force_projections(
            num_vars, clauses, projection)

    def test_unsat_is_sticky(self):
        solver = Solver(2, [[1, 2]])
        assert solver.solve() is not None
        solver.add_clause([-1])
        solver.add_clause([-2])
        assert solver.solve() is None
        assert not solver.ok
        solver.add_clause([1, 2])
        assert solver.solve() is None

    def test_unsat_found_by_search_is_sticky(self):
        clauses = [[1, 2], [1, -2], [-1, 2], [-1, -2]]
        solver = Solver(2, clauses)
        assert solver.solve() is None
        assert solver.solve() is None

    def test_aborted_solve_keeps_a_level_zero_conflict(self):
        # the unit comes last, so the conflict is found by propagation
        solver = Solver(3, [[-1, 2], [-2, 3], [-2, -3], [1]])
        with pytest.raises(RuntimeError):
            solver.solve(max_conflicts=0)
        assert solver.solve() is None

    def test_solve_after_abort_resumes(self):
        clauses = [[1, 2], [-1, 2], [1, -2], [2, 3], [-3, 1]]
        solver = Solver(3, clauses)
        with pytest.raises(RuntimeError):
            solver.solve(max_conflicts=0)
        model = solver.solve()
        assert model is not None and _satisfies(model, clauses)

    def test_clause_satisfied_at_level_zero_is_dropped(self):
        solver = Solver(3, [[1], [2, 3]])
        assert solver.solve() is not None
        n = len(solver.clauses)
        solver.add_clause([1, -2, -3])
        assert len(solver.clauses) == n
        assert solver.solve() is not None

    def test_clause_falsified_at_level_zero_makes_unsat(self):
        solver = Solver(2, [[1], [-2]])
        assert solver.solve() is not None
        solver.add_clause([-1, 2])
        assert not solver.ok
        assert solver.solve() is None

    def test_clause_left_unit_at_level_zero_is_enqueued(self):
        solver = Solver(3, [[1], [-3, 2]])
        assert solver.solve() is not None
        solver.add_clause([-1, 3])
        model = solver.solve()
        assert model is not None and model[3] and model[2]


class TestModelExtraction:
    def test_positive_atoms_only(self):
        cnf = CNF()
        va = cnf.atom_var(("A", (a,)))
        vb = cnf.atom_var(("B", (b,)))
        cnf.add_clause([va])
        cnf.add_clause([-vb])
        model = dpll(cnf)
        interp = model_to_interpretation(cnf, model)
        assert Atom("A", (a,)) in interp
        assert Atom("B", (b,)) not in interp

    def test_grounding_roundtrip_with_model_check(self):
        """A SAT model of a grounded sentence satisfies the sentence."""
        sentence = parse_formula(
            "forall x (x = x -> (A(x) -> exists y (R(x,y) & B(y))))")
        cnf = CNF()
        cnf.add_clause([cnf.atom_var(("A", (a,)))])
        add_formula(cnf, ground(sentence, [a, b]))
        model = dpll(cnf)
        assert model is not None
        interp = model_to_interpretation(cnf, model)
        assert evaluate(sentence, interp)
