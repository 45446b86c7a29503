"""Tests for team-semantics evaluation: examples from the operation
contracts, frozen by hand enumeration where derived."""

import pytest

from deplogic import (
    And,
    Apply,
    BudgetExceededError,
    Const,
    Dep,
    Eq,
    Exists,
    Forall,
    Model,
    Not,
    Or,
    Rel,
    SearchBudget,
    Team,
    Var,
    Vocabulary,
    dep_holds,
    duplicate,
    equiv_on_small_models,
    eval_term,
    fo_satisfies,
    make_team,
    parse_formula,
    restrict,
    satisfies,
    sentence_true,
    supplement,
)
from deplogic.semantics import (
    Assignment,
    FreeVariableError,
    NotFirstOrderError,
    SentenceError,
    TeamError,
    UnboundVariableError,
)

from helpers import THETA1_TEXT, EXAMPLE3_TEXT, VOC_C

x, y, z = Var("x"), Var("y"), Var("z")
EXAMPLE3_FLAT_TEXT = "forall x. exists y. exists z. (dep(y,z) & x = z & ~(y = c))"


def asg(**kwargs):
    return Assignment.of(kwargs)


class TestEvalTerm:
    MODEL = Model(2, functions={"f": {(0,): 1, (1,): 0}}, constants={"c": 0})

    def test_table_lookup_composition(self):
        assert eval_term(self.MODEL, Assignment(), Apply("f", (Const("c"),))) == 1

    def test_variable(self):
        assert eval_term(self.MODEL, asg(x=2), x) == 2

    def test_unbound_variable(self):
        with pytest.raises(UnboundVariableError):
            eval_term(self.MODEL, asg(x=2), y)


class TestFoSatisfies:
    MODEL = Model(2)

    def test_reflexivity(self):
        assert fo_satisfies(self.MODEL, asg(x=0), Eq(x, x))

    def test_negated_equality(self):
        assert fo_satisfies(self.MODEL, asg(x=0, y=1), Not(Eq(x, y)))

    def test_rejects_dependence_atom(self):
        with pytest.raises(NotFirstOrderError):
            fo_satisfies(self.MODEL, asg(x=0), Dep((x,)))

    def test_quantifiers(self):
        assert fo_satisfies(self.MODEL, Assignment(), Forall("x", Exists("y", Eq(x, y))))


class TestDepHolds:
    MODEL = Model(3)

    def test_empty_atom_universally_true(self):
        team = make_team(["x"], [{"x": 0}, {"x": 1}])
        assert dep_holds(self.MODEL, team, ())

    def test_constancy_fails_on_two_values(self):
        team = make_team(["x"], [{"x": 0}, {"x": 1}])
        assert not dep_holds(self.MODEL, team, (x,))

    def test_binary_dependence_hand_enumerated(self):
        # two rows agree on x but differ on y: dependence fails
        team1 = make_team(["x", "y"], [{"x": 0, "y": 1}, {"x": 0, "y": 2}])
        assert not dep_holds(self.MODEL, team1, (x, y))
        # distinct x-values: vacuously functional
        team2 = make_team(["x", "y"], [{"x": 0, "y": 1}, {"x": 1, "y": 1}])
        assert dep_holds(self.MODEL, team2, (x, y))

    def test_empty_team_vacuous(self):
        assert dep_holds(self.MODEL, Team(frozenset({"x"}), frozenset()), (x,))


class TestTeamAlgebra:
    MODEL = Model(2)

    def test_duplicate_from_empty_assignment(self):
        team = Team(frozenset(), frozenset({Assignment()}))
        out = duplicate(team, self.MODEL, "x")
        assert out == make_team(["x"], [{"x": 0}, {"x": 1}])

    def test_duplicate_empty_team(self):
        team = Team(frozenset(), frozenset())
        assert duplicate(team, self.MODEL, "x").rows == frozenset()

    def test_duplicate_overwrites(self):
        team = make_team(["x"], [{"x": 0}])
        assert duplicate(team, self.MODEL, "x") == make_team(
            ["x"], [{"x": 0}, {"x": 1}]
        )

    def test_supplement_by_callable(self):
        team = make_team(["y"], [{"y": 0}, {"y": 1}])
        out = supplement(team, lambda s: s.value("y"), "x")
        assert out == make_team(["x", "y"], [{"y": 0, "x": 0}, {"y": 1, "x": 1}])

    def test_supplement_empty_team_with_empty_function(self):
        team = Team(frozenset(), frozenset())
        assert supplement(team, {}, "x").rows == frozenset()

    def test_supplement_partial_map_rejected(self):
        team = make_team(["y"], [{"y": 0}])
        with pytest.raises(TeamError):
            supplement(team, {}, "x")

    def test_restrict_merges_rows(self):
        team = make_team(["x", "y"], [{"x": 0, "y": 1}, {"x": 0, "y": 0}])
        assert restrict(team, {"x"}) == make_team(["x"], [{"x": 0}])

    def test_restrict_to_full_domain_is_identity(self):
        team = make_team(["x", "y"], [{"x": 0, "y": 1}])
        assert restrict(team, {"x", "y"}) == team

    def test_restrict_beyond_domain_rejected(self):
        team = make_team(["x"], [{"x": 0}])
        with pytest.raises(TeamError):
            restrict(team, {"x", "y"})


class TestSatisfies:
    MODEL = Model(2, constants={"c": 0})

    def test_empty_team_satisfies_everything(self):
        for text in ("dep(x)", "~(x = x)", "exists u. dep(u, x)"):
            phi = parse_formula(text, VOC_C)
            team = Team(frozenset({"x"}), frozenset())
            assert satisfies(self.MODEL, team, phi)

    def test_theta1_false_on_two_elements(self):
        phi = parse_formula(THETA1_TEXT, VOC_C)
        assert not sentence_true(self.MODEL, phi)

    def test_first_order_formula_is_flat(self):
        phi = parse_formula("x = c | ~(x = c)", VOC_C)
        team = make_team(["x"], [{"x": 0}, {"x": 1}])
        assert satisfies(self.MODEL, team, phi) == all(
            fo_satisfies(self.MODEL, s, phi) for s in team.rows
        )

    def test_free_variable_violation(self):
        phi = parse_formula("dep(x, y)", VOC_C)
        team = make_team(["x"], [{"x": 0}])
        with pytest.raises(FreeVariableError):
            satisfies(self.MODEL, team, phi)

    def test_disjunction_needs_a_split(self):
        # dep(x) | dep(x) holds on a 2-row team by splitting singletons
        phi = parse_formula("dep(x) | dep(x)", VOC_C)
        team = make_team(["x"], [{"x": 0}, {"x": 1}])
        assert satisfies(self.MODEL, team, phi)
        # three distinct values cannot split into two constant halves
        phi3 = parse_formula("dep(x) | dep(x)", VOC_C)
        m3 = Model(3)
        team3 = make_team(["x"], [{"x": 0}, {"x": 1}, {"x": 2}])
        assert not satisfies(m3, team3, phi3)

    def test_existential_over_empty_team(self):
        phi = parse_formula("exists u. (dep(u) & ~(u = u))", VOC_C)
        team = Team(frozenset(), frozenset())
        assert satisfies(self.MODEL, team, phi)


class TestSentenceTrue:
    def test_tautology(self):
        phi = parse_formula("forall x. x = x", VOC_C)
        for k in (1, 2, 3):
            assert sentence_true(Model(k, constants={"c": 0}), phi)

    def test_rejects_open_formula(self):
        with pytest.raises(SentenceError):
            sentence_true(Model(2, constants={"c": 0}), Dep((x,)))

    def test_example3_false_on_size_two(self):
        phi = parse_formula(EXAMPLE3_TEXT, VOC_C)
        assert not sentence_true(Model(2, constants={"c": 0}), phi)


class TestBudget:
    def test_budget_exceeded_raises(self):
        phi = parse_formula(THETA1_TEXT, VOC_C)
        with pytest.raises(BudgetExceededError):
            sentence_true(Model(4, constants={"c": 0}), phi, SearchBudget(3))

    def test_budget_is_monotone(self):
        phi = parse_formula(EXAMPLE3_TEXT, VOC_C)
        m = Model(2, constants={"c": 0})
        small = sentence_true(m, phi, SearchBudget(50_000))
        large = sentence_true(m, phi, SearchBudget(5_000_000))
        assert small == large

    def test_budget_must_be_positive(self):
        with pytest.raises(Exception):
            SearchBudget(0)

    def test_bracket_free_example3_is_pruned(self):
        # The bracket-free spelling nests its conjunction to the left; the
        # first-order conjuncts still prune the witness search.
        flat = parse_formula(EXAMPLE3_FLAT_TEXT, VOC_C)
        m = Model(3, constants={"c": 0})
        assert not sentence_true(m, flat, SearchBudget(35))

    def test_both_spellings_need_the_same_choice_points(self):
        m = Model(3, constants={"c": 0})
        for text in (EXAMPLE3_TEXT, EXAMPLE3_FLAT_TEXT):
            phi = parse_formula(text, VOC_C)
            assert not sentence_true(m, phi, SearchBudget(35))
            with pytest.raises(BudgetExceededError):
                sentence_true(m, phi, SearchBudget(34))


class TestEquivOracle:
    def test_formula_equivalent_to_itself(self):
        phi = parse_formula("forall x. (dep(x) | x = x)", VOC_C)
        assert equiv_on_small_models(phi, phi, 3).equivalent

    def test_dep_x_vs_dep_empty_counterexample(self):
        result = equiv_on_small_models(Dep((x,)), Dep(()), 2)
        assert not result.equivalent
        ce = result.counterexample
        assert ce.team == make_team(["x"], [{"x": 0}, {"x": 1}])
        assert not ce.left_value and ce.right_value

    def test_theta1_and_example3_agree_on_finite_models(self):
        theta1 = parse_formula(THETA1_TEXT, VOC_C)
        ex3 = parse_formula(EXAMPLE3_TEXT, VOC_C)
        assert equiv_on_small_models(theta1, ex3, 3).equivalent
