"""Tests for team-semantics evaluation: examples from the operation
contracts, frozen by hand enumeration where derived."""

import functools
import itertools
import random
import re

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
    Formula,
    Model,
    Not,
    Or,
    Rel,
    SearchBudget,
    Team,
    Term,
    Var,
    Vocabulary,
    build_approximation,
    check_proof,
    equiv_on_small_models,
    free_vars,
    infer_vocabulary,
    is_first_order,
    parse_formula,
    parse_proof,
    print_formula,
    satisfies,
    sentence_true,
    to_normal_form,
)
from deplogic.normalform import reassemble
from deplogic.semantics import (
    Counterexample,
    FreeVariableError,
    SemanticsError,
    SentenceError,
    enumerate_models,
)

from helpers import (
    CORPUS,
    EMPTY_DOMAIN_SINGLETON,
    EXAMPLE3_TEXT,
    SMALL_BUDGET,
    THETA1_TEXT,
    VOC_C,
    VOC_F1,
    VOC_F1C,
    VOC_R1C,
    VOC_R1S1C,
    enumerate_teams,
    make_team,
    random_fo_formula,
    random_formula,
    random_model,
    random_normal_form,
    tarski,
    team_holds,
)
from deplogic.syntax import conjoin, walk

x, y, z = Var("x"), Var("y"), Var("z")
EXAMPLE3_FLAT_TEXT = "forall x. exists y. exists z. (dep(y,z) & x = z & ~(y = c))"
VOC_PR = Vocabulary(relations={"P": 1, "R": 2})
MODEL_PR = Model(3, relations={"P": {(0,)}, "R": {(0, 1), (0, 2), (1, 2), (2, 0)}})


def holds_at(m, phi, **env):
    """First-order truth at one assignment: `satisfies` on its one-row team."""
    return satisfies(m, make_team(env, [env]), phi)


class TestEvalTerm:
    """Terms are read by table lookup, seen through equality atoms."""

    MODEL = Model(2, functions={"f": {(0,): 1, (1,): 0}}, constants={"c": 0})

    def test_table_lookup_composition(self):
        assert holds_at(self.MODEL, Eq(Apply("f", (Const("c"),)), x), x=1)
        assert not holds_at(self.MODEL, Eq(Apply("f", (Const("c"),)), x), x=0)

    def test_variable(self):
        # Each variable reads its own slot of the row.
        assert holds_at(self.MODEL, Eq(x, Const("c")), x=0, y=1)
        assert not holds_at(self.MODEL, Eq(y, Const("c")), x=0, y=1)


class TestFoSatisfies:
    """First-order truth at one assignment, through `satisfies` on one-row
    teams and `sentence_true`."""

    MODEL = Model(2)

    def test_reflexivity(self):
        assert holds_at(self.MODEL, Eq(x, x), x=0)

    def test_negated_equality(self):
        assert holds_at(self.MODEL, Not(Eq(x, y)), x=0, y=1)

    def test_quantifiers(self):
        assert sentence_true(self.MODEL, Forall("x", Exists("y", Eq(x, y))))
        assert holds_at(self.MODEL, Forall("x", Exists("y", Eq(x, y))))

    def test_rebinding_shadows_the_outer_variable(self):
        # forall x. exists x. x = y: the inner x is free to equal y.
        phi = Forall("x", Exists("x", Eq(x, y)))
        assert holds_at(self.MODEL, phi, y=1)
        # exists x. (x = y & forall x. x = y) fails on two elements.
        assert not holds_at(self.MODEL, Exists("x", And(Eq(x, y), Forall("x", Eq(x, y)))), y=1)

    def test_missing_symbols_raise_only_when_reached(self):
        m = Model(2, relations={"P": frozenset({(0,)})})
        phi = Or(Rel("P", (x,)), Rel("Q", (Const("c"),)))
        assert holds_at(m, phi, x=0)
        with pytest.raises(SemanticsError, match="^constant c not interpreted$"):
            holds_at(m, phi, x=1)
        applied = Eq(Apply("f", (x,)), x)
        assert holds_at(m, Or(Eq(x, x), applied), x=1)
        with pytest.raises(SemanticsError, match="^function f not interpreted$"):
            holds_at(m, Or(Not(Eq(x, x)), applied), x=1)


class TestCompiledAgainstTarski:
    """`satisfies` on one-row teams and first-order `sentence_true` against
    the plain recursive evaluator of the test helpers, on every model of
    size <= 2."""

    @pytest.mark.parametrize("voc", [VOC_R1S1C, VOC_F1], ids=["R1S1C", "F1"])
    def test_random_formulas_agree(self, voc):
        rng = random.Random(8)
        shapes = set()
        models = [m for size in (1, 2) for m in enumerate_models(voc, size)]
        for _ in range(120):
            phi = random_fo_formula(rng, voc, ["x", "y"], depth=4, rebind=True)
            shapes |= _shapes(phi)
            closed = Forall("x", Forall("y", phi))
            for m in models:
                for a, b in itertools.product(range(m.size), repeat=2):
                    env = {"x": a, "y": b}
                    assert holds_at(m, phi, **env) == tarski(m, env, phi), (phi, m, env)
                assert sentence_true(m, closed) == tarski(m, {}, closed), (closed, m)
        assert shapes == {"rebinds", "quantifier under ~", "quantifier under |"}

    def test_deep_approximation_still_evaluates(self):
        # Phi^40 of example 3 nests 120 quantifiers; on one element it is
        # false.  The chain check stops at Phi^1 there, so it is built here.
        nf = to_normal_form(parse_formula(EXAMPLE3_TEXT, VOC_C))
        phi40 = build_approximation(nf, 40)
        assert not sentence_true(Model(1, constants={"c": 0}), phi40)
        assert print_formula(phi40).count("forall") == 40


def _shapes(phi):
    out = set()
    for f, binders in walk(phi):
        if isinstance(f, (Exists, Forall)) and f.var in binders + ("x", "y"):
            out.add("rebinds")
        if isinstance(f, (Not, Or)) and any(
            isinstance(g, (Exists, Forall)) for g, _ in walk(f)
        ):
            out.add(f"quantifier under {'~' if isinstance(f, Not) else '|'}")
    return out


class TestDepHolds:
    MODEL = Model(3)

    def test_empty_atom_universally_true(self):
        team = make_team(["x"], [{"x": 0}, {"x": 1}])
        assert satisfies(self.MODEL, team, Dep(()))

    def test_constancy_fails_on_two_values(self):
        team = make_team(["x"], [{"x": 0}, {"x": 1}])
        assert not satisfies(self.MODEL, team, Dep((x,)))

    def test_binary_dependence_hand_enumerated(self):
        # two rows agree on x but differ on y: dependence fails
        team1 = make_team(["x", "y"], [{"x": 0, "y": 1}, {"x": 0, "y": 2}])
        assert not satisfies(self.MODEL, team1, Dep((x, y)))
        # distinct x-values: vacuously functional
        team2 = make_team(["x", "y"], [{"x": 0, "y": 1}, {"x": 1, "y": 1}])
        assert satisfies(self.MODEL, team2, Dep((x, y)))

    def test_empty_team_vacuous(self):
        assert satisfies(self.MODEL, Team(frozenset({"x"}), frozenset()), Dep((x,)))


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
            tarski(self.MODEL, s.as_dict(), phi) for s in team.rows
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

    @pytest.mark.parametrize("kind, filler", [(And, Eq(x, x)), (Or, Not(Eq(x, x)))])
    @pytest.mark.parametrize("to_left", [True, False])
    def test_chain_5000_operands_deep(self, kind, filler, to_left):
        # Past the recursion limit; the filler is neutral, so the last
        # operand decides the chain.
        for last, expected in [(Eq(x, x), True), (Not(Eq(x, x)), False)]:
            parts = [filler] * 4999 + [last]
            if to_left:
                chain = functools.reduce(kind, parts)
            else:
                chain = functools.reduce(lambda acc, p: kind(p, acc), reversed(parts))
            phi = Forall("x", chain)
            assert satisfies(self.MODEL, EMPTY_DOMAIN_SINGLETON, phi) is expected

    @pytest.mark.parametrize("last, expected", [(Eq(y, x), True), (Not(Eq(x, y)), False)])
    def test_existential_over_4999_equalities(self, last, expected):
        body = conjoin([Dep((x, y))] + [Eq(y, x)] * 4998 + [last])
        phi = Forall("x", Exists("y", body))
        assert satisfies(self.MODEL, EMPTY_DOMAIN_SINGLETON, phi) is expected

    @pytest.mark.parametrize("values, expected", [((0, 1), True), ((0, 1, 2), False)])
    def test_disjunction_with_3000_operand_chain(self, values, expected):
        # P holds at 0 only, so the rows off P go to dep(x): one fits, two do not.
        phi = Or(Dep((x,)), conjoin([Rel("P", (x,))] * 3000))
        m = Model(3, relations={"P": {(0,)}})
        team = make_team(["x"], [{"x": a} for a in values])
        assert satisfies(m, team, phi) is expected


class TestSentenceTrue:
    def test_tautology(self):
        phi = parse_formula("forall x. x = x", VOC_C)
        for k in (1, 2, 3):
            assert sentence_true(Model(k, constants={"c": 0}), phi)

    def test_rejects_open_formula(self):
        with pytest.raises(SentenceError):
            sentence_true(Model(2, constants={"c": 0}), Dep((x,)))

    def test_rejects_open_first_order_formula(self):
        with pytest.raises(SentenceError, match=re.escape("free variables ['x', 'y']")):
            sentence_true(Model(2), Eq(x, y))

    def test_example3_false_on_size_two(self):
        phi = parse_formula(EXAMPLE3_TEXT, VOC_C)
        assert not sentence_true(Model(2, constants={"c": 0}), phi)

    @pytest.mark.parametrize("kind, filler", [(And, Eq(x, x)), (Or, Not(Eq(x, x)))])
    @pytest.mark.parametrize("to_left", [True, False])
    def test_chain_5000_operands_deep(self, kind, filler, to_left):
        # Past the recursion limit; the filler is neutral, so the last
        # operand decides the chain.
        m = Model(2)
        for last, expected in [(Eq(x, x), True), (Not(Eq(x, x)), False)]:
            parts = [filler] * 4999 + [last]
            if to_left:
                chain = functools.reduce(kind, parts)
            else:
                chain = functools.reduce(lambda acc, p: kind(p, acc), reversed(parts))
            assert sentence_true(m, Forall("x", chain)) is expected

    @pytest.mark.parametrize("count, expected", [(3000, True), (3001, False)])
    def test_negation_chain_3000_deep(self, count, expected):
        # Past the recursion limit; a chain of ~ compiles to one parity flip.
        body = Eq(x, x)
        for _ in range(count):
            body = Not(body)
        assert sentence_true(Model(2), Forall("x", body)) is expected


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
        # first-order conjuncts still prune the team search.
        flat = parse_formula(EXAMPLE3_FLAT_TEXT, VOC_C)
        m = Model(3, constants={"c": 0})
        assert not satisfies(m, EMPTY_DOMAIN_SINGLETON, flat, SearchBudget(35))

    def test_both_spellings_need_the_same_choice_points(self):
        m = Model(3, constants={"c": 0})
        for text in (EXAMPLE3_TEXT, EXAMPLE3_FLAT_TEXT):
            phi = parse_formula(text, VOC_C)
            assert not satisfies(m, EMPTY_DOMAIN_SINGLETON, phi, SearchBudget(35))
            with pytest.raises(BudgetExceededError):
                satisfies(m, EMPTY_DOMAIN_SINGLETON, phi, SearchBudget(34))

    def test_both_spellings_need_the_same_skolem_points(self):
        # 33 values tried at size 3, table lookups included: the spellings
        # share one normal form, so the Skolem search runs the same way.
        m = Model(3, constants={"c": 0})
        for text in (EXAMPLE3_TEXT, EXAMPLE3_FLAT_TEXT):
            phi = parse_formula(text, VOC_C)
            assert not sentence_true(m, phi, SearchBudget(33))
            with pytest.raises(BudgetExceededError):
                sentence_true(m, phi, SearchBudget(32))

    def test_split_points_on_a_team(self):
        # The splits of three rows are tried in ascending order; the fifth,
        # row 2 against rows 0 and 1, is the first that works.
        team = make_team(["x", "y"], [{"x": 0, "y": 0}, {"x": 0, "y": 1}, {"x": 1, "y": 0}])
        phi = parse_formula("dep(x,y) | P(x)", VOC_PR)
        assert satisfies(MODEL_PR, team, phi, SearchBudget(5))
        with pytest.raises(BudgetExceededError):
            satisfies(MODEL_PR, team, phi, SearchBudget(4))

    def test_split_points_follow_sorted_rows(self):
        # The duplicated team's rows are numbered in sorted order: with u
        # before x the rows with u = 0 are the first two, the fourth split;
        # with y after x they alternate, the sixth.
        team = make_team(["x"], [{"x": 0}, {"x": 1}])
        for var, points in (("u", 4), ("y", 6)):
            phi = parse_formula(f"forall {var}. (dep({var}) | dep({var}))", VOC_PR)
            assert satisfies(Model(2), team, phi, SearchBudget(points))
            with pytest.raises(BudgetExceededError):
                satisfies(Model(2), team, phi, SearchBudget(points - 1))

    def test_supplement_points_on_a_team(self):
        # x tells the two rows apart, so the first supplement works: one
        # point, the smallest budget there is.
        team = make_team(["x"], [{"x": 0}, {"x": 1}])
        phi = parse_formula("exists y. (dep(x,y) & R(x,y))", VOC_PR)
        assert satisfies(MODEL_PR, team, phi, SearchBudget(1))
        # Admissible values [1, 2] and [2]: the second supplement works.
        constant = parse_formula("exists y. (dep(y) & R(x,y))", VOC_PR)
        assert satisfies(MODEL_PR, team, constant, SearchBudget(2))
        with pytest.raises(BudgetExceededError):
            satisfies(MODEL_PR, team, constant, SearchBudget(1))

    def test_first_order_sentence_spends_no_budget(self):
        phi = parse_formula("forall x. exists y. ~(x = y)", VOC_C)
        assert sentence_true(Model(3, constants={"c": 0}), phi, SearchBudget(1))


class TestSkolemSearch:
    """`sentence_true` against the team search of `satisfies`, the reference."""

    @staticmethod
    def agree(m, phi):
        try:
            expected = satisfies(m, EMPTY_DOMAIN_SINGLETON, phi, SMALL_BUDGET)
        except BudgetExceededError:
            return False
        assert sentence_true(m, phi) == expected
        return True

    @pytest.mark.parametrize("name, text, voc", CORPUS, ids=[c[0] for c in CORPUS])
    def test_corpus_agrees_with_team_search(self, name, text, voc):
        phi = parse_formula(text, voc)
        for size in (1, 2, 3):
            for m in enumerate_models(voc, size):
                assert self.agree(m, phi)

    def test_random_normal_forms_agree_with_team_search(self):
        rng = random.Random(23)
        checked = 0
        for _ in range(400):
            nf = random_normal_form(rng)
            m = random_model(rng, VOC_R1C, rng.randint(1, 3))
            checked += self.agree(m, reassemble(nf))
        assert checked >= 390

    def test_table_keyed_by_earlier_existential(self):
        # forall x. exists y. exists z. (dep(y, z) & z = x): z must be a
        # function of y, so y must tell the universal tuples apart.
        phi = parse_formula("forall x. exists y. exists z. (dep(y, z) & z = x)", VOC_C)
        assert sentence_true(Model(3, constants={"c": 0}), phi)
        constant = parse_formula("forall x. exists y. exists z. (dep(y, z) & z = x & y = c)", VOC_C)
        assert not sentence_true(Model(3, constants={"c": 0}), constant)

    def test_deep_universal_block_needs_no_recursion(self):
        # 4**6 = 4096 universal tuples, one slot each: a search recursing
        # once per slot would pass the interpreter's recursion limit.
        variables = [f"x{i}" for i in range(6)]
        phi = Exists("y", And(Dep((Var("y"),)), Eq(Var("y"), Var("y"))))
        for v in reversed(variables):
            phi = Forall(v, phi)
        assert sentence_true(Model(4), phi)


class TestEquivOracle:
    def test_deep_chain_under_disjunction(self):
        tautology = Or(Rel("P", (x,)), Not(Rel("P", (x,))))
        deep = Or(Dep((x,)), conjoin([tautology] * 3000))
        assert equiv_on_small_models(deep, Or(Dep((x,)), Eq(x, x)), 2).equivalent

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

    @pytest.mark.parametrize(
        "left, right, size",
        [
            ("dep(x) | P(x)", "dep(x)", 2),
            ("dep(x, y) & P(x)", "dep(x, y) | P(x)", 1),
            ("forall y. (dep(x, y) | P(y))", "P(x) | ~P(x)", 2),
            # Two values per x fit a split into two functions; three do not.
            ("forall y. (dep(x, y) | dep(x, y))", "x = x", 3),
        ],
    )
    def test_counterexample_is_the_first_disagreement(self, left, right, size):
        phi, psi = parse_formula(left, VOC_PR), parse_formula(right, VOC_PR)
        fv = free_vars(phi) | free_vars(psi)
        voc = infer_vocabulary(phi).merged(infer_vocabulary(psi))
        first = next(
            Counterexample(m, team, a, b)
            for k in (1, 2, 3)
            for m in enumerate_models(voc, k)
            for team in enumerate_teams(k, fv)
            for a, b in [(satisfies(m, team, phi), satisfies(m, team, psi))]
            if a != b
        )
        assert first.model.size == size
        assert equiv_on_small_models(phi, psi, 3).counterexample == first


class TestNoFormulaHashed:
    """The team search, the proof reader and the proof kernel keep no table
    keyed by formulas: with hashing of every formula and term node made to
    fail, their results stand."""

    PAIRS = [
        ("dep(x, y) | P(x)", "P(x) | dep(x, y)"),
        ("(dep(x, y) & P(x)) & R(x, y)", "dep(x, y) & (P(x) & R(x, y))"),
        ("dep(x, y) | dep(x, y)", "dep(x, y)"),
        ("dep(x) | P(x)", "dep(x)"),
        ("dep(x, y) & P(x)", "dep(x, y) | P(x)"),
        ("forall y. (dep(x, y) | P(y))", "P(x) | ~P(x)"),
    ]

    @staticmethod
    def _forbid_hashing(monkeypatch):
        def unhashable(node):
            raise AssertionError(f"{type(node).__name__} node hashed")

        for base in (Formula, Term):
            for cls in [base, *base.__subclasses__()]:
                monkeypatch.setattr(cls, "__hash__", unhashable)
        with pytest.raises(AssertionError):
            hash(Forall("x", Eq(Apply("f", (x,)), Const("c"))))

    def test_satisfies_on_corpus(self, monkeypatch):
        rng = random.Random(20)
        cases = []
        for _, text, voc in CORPUS:
            phi = parse_formula(text, voc)
            m = random_model(rng, voc, 2)
            cases.append((m, phi, satisfies(m, EMPTY_DOMAIN_SINGLETON, phi)))
        self._forbid_hashing(monkeypatch)
        for m, phi, expected in cases:
            assert satisfies(m, EMPTY_DOMAIN_SINGLETON, phi) is expected

    def test_equiv_on_template_pairs(self, monkeypatch):
        pairs = [(parse_formula(a, VOC_PR), parse_formula(b, VOC_PR)) for a, b in self.PAIRS]
        expected = [equiv_on_small_models(a, b, 2) for a, b in pairs]
        self._forbid_hashing(monkeypatch)
        assert [equiv_on_small_models(a, b, 2) for a, b in pairs] == expected

    def test_proof_script_with_repeats(self, monkeypatch):
        voc = Vocabulary(relations={"P": 1, "R": 2}, constants={"c"})
        script = (
            "1. exists x. forall y. R(x, y) assume\n"
            "2. forall y. exists x. (dep(x) & R(x, y)) dep_intro 1\n"
            "3. P(c) assume\n"
            "4. P(c) assume\n"
            "5. P(c) & P(c) and_i 3 4\n"
            "6. P(c) and_e_r 5\n"
            "7. P(c) | R(c, c) or_i_l 6\n"
            "8. exists x. forall y. R(x, y) assume\n"
            "9. P(c) | R(c, c) or_i_r 6\n"
        )
        hypotheses = [parse_formula(h, voc) for h in ("exists x. forall y. R(x, y)", "P(c)")]
        expected = check_proof(parse_proof(script, voc), hypotheses).failures
        assert [i for i, _ in expected] == [9]
        self._forbid_hashing(monkeypatch)
        assert check_proof(parse_proof(script, voc), hypotheses).failures == expected


class TestTeamSearchReference:
    """`satisfies` against `helpers.team_holds`, the clauses transcribed with
    no pruning and no memo."""

    def test_random_formulas_on_every_small_team(self):
        # VOC_F1C puts function and constant terms into dependence atoms.
        for voc in (VOC_R1C, VOC_F1C):
            rng = random.Random(11)
            shapes: set[str] = set()
            rebound = checked = 0
            while checked < 60:
                phi = random_formula(rng, voc, ["x", "y"], depth=3, rebind=rng.random() < 0.3)
                searched = [f for f, _ in walk(phi) if not is_first_order(f)]
                quantifiers = [f for f in searched if isinstance(f, (Exists, Forall))]
                # Two nested quantifiers over four rows already make the
                # reference try 2**8 supplements per team.
                if not searched or len(quantifiers) > 2:
                    continue
                shapes |= {type(f).__name__ for f in searched}
                shapes |= {
                    f"dep over {type(t).__name__}"
                    for f in searched if isinstance(f, Dep) for t in f.args
                }
                rebound += any(f.var in ("x", "y") for f in quantifiers)
                checked += 1
                for size in (1, 2):
                    for m in enumerate_models(voc, size):
                        for team in enumerate_teams(size, frozenset({"x", "y"})):
                            rows = [s.as_dict() for s in team.sorted_rows()]
                            assert satisfies(m, team, phi) == team_holds(m, rows, phi), (
                                phi, m, team
                            )
            assert shapes >= {"Exists", "Forall", "Or", "Dep"}, voc
            assert rebound, voc
        assert shapes >= {"dep over Apply", "dep over Const"}
