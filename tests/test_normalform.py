"""Tests for the normal-form pipeline: preprocessing, prenexing, hoisting,
and prefix conversion, with the exhaustive small-model oracle as the
semantic referee."""

import functools
import random

import pytest

from deplogic import (
    And,
    Apply,
    Const,
    Dep,
    Eq,
    Exists,
    Forall,
    Not,
    Or,
    Rel,
    Var,
    Vocabulary,
    equiv_on_small_models,
    free_vars,
    is_first_order,
    parse_formula,
    print_formula,
)
from deplogic.normalform import (
    NormalFormError,
    NormalFormSentence,
    ShapeError,
    hoist_dep_atoms,
    match_normal_form,
    preprocess,
    pull_existentials_left,
    reassemble,
    split_dep_atoms,
    to_normal_form,
    to_prenex,
)
from deplogic.syntax import (
    alpha_key,
    bound_vars,
    conjoin,
    identical,
    is_quantifier_free,
    quantify,
    strip_prefix,
    walk,
)

from helpers import (
    CORPUS,
    EXAMPLE3_TEXT,
    THETA1_TEXT,
    VOC_C,
    VOC_EMPTY,
    VOC_R1,
    random_formula,
)

x, y, z = Var("x"), Var("y"), Var("z")
VOC_RS = Vocabulary(relations={"R": 1, "S": 1})
VOC_RFC = Vocabulary(relations={"R": 1}, functions={"f": 1}, constants={"c"})


def oracle_equiv(phi, psi, max_size=3):
    return equiv_on_small_models(phi, psi, max_size).equivalent


class TestPreprocess:
    def test_renames_second_binder(self):
        phi = parse_formula("(exists x. R(x)) & (exists x. S(x))", VOC_RS)
        out = preprocess(phi)
        assert out.left == Exists("x", Rel("R", (x,)))
        assert isinstance(out.right, Exists)
        assert out.right.var != "x"
        assert oracle_equiv(phi, out)

    def test_unnests_complex_dependence_terms(self):
        voc = Vocabulary(functions={"f": 1})
        phi = parse_formula("dep(f(x), y)", voc)
        out = preprocess(phi)
        assert isinstance(out, Exists)
        assert isinstance(out.body, And)
        assert isinstance(out.body.left, Dep)
        assert all(isinstance(t, Var) for t in out.body.left.args)
        assert oracle_equiv(phi, out)

    def test_clean_formula_unchanged(self):
        phi = parse_formula(EXAMPLE3_TEXT, VOC_C)
        assert preprocess(phi) == phi

    def test_no_variable_both_free_and_bound(self):
        phi = parse_formula("R(x) & exists x. S(x)", VOC_RS)
        out = preprocess(phi)
        assert not (free_vars(out) & bound_vars(out))
        assert oracle_equiv(phi, out)

    def test_unnesting_before_a_binder_named_z(self):
        # The unnesting variable is picked where its atom is reached, so it
        # takes the name z and the later binder z another one.
        voc = Vocabulary(relations={"R": 1}, functions={"f": 1})
        phi = parse_formula("forall x. (dep(f(x), x) & exists z. R(z))", voc)
        out = preprocess(phi)
        binders = [f.var for f, _ in walk(out) if isinstance(f, (Exists, Forall))]
        assert binders == ["x", "z", "z_1"]
        assert not (free_vars(out) & bound_vars(out))
        deps = [f for f, _ in walk(out) if isinstance(f, Dep)]
        assert deps and all(isinstance(t, Var) for d in deps for t in d.args)
        assert oracle_equiv(phi, out, max_size=2)

    def test_unnesting_variables_are_named_outermost_first(self):
        voc = Vocabulary(functions={"f": 1})
        fx, fy, z_1 = Apply("f", (x,)), Apply("f", (y,)), Var("z_1")
        out = preprocess(parse_formula("dep(f(x), f(y))", voc))
        inner = Exists("z_1", And(Dep((z, z_1)), Eq(z_1, fy)))
        assert out == Exists("z", And(inner, Eq(z, fx)))


class TestToPrenex:
    def test_disjunction_left_prefix_first(self):
        phi = parse_formula("(exists x. R(x)) | (forall y. S(y))", VOC_RS)
        out = to_prenex(preprocess(phi))
        assert out == Exists("x", Forall("y", Or(Rel("R", (x,)), Rel("S", (y,)))))
        assert oracle_equiv(phi, out)

    def test_no_quantifiers_is_fixed_point(self):
        phi = parse_formula("R(c)", Vocabulary(relations={"R": 1}, constants={"c"}))
        assert to_prenex(phi) == phi

    def test_conjunction_with_existential(self):
        phi = parse_formula("dep(x,y) & exists u. R(u)", VOC_R1)
        out = to_prenex(preprocess(phi))
        assert out == Exists("u", And(Dep((x, y)), Rel("R", (Var("u"),))))
        assert oracle_equiv(phi, out)

    def test_negation_flips_quantifiers(self):
        phi = parse_formula("~(exists x. R(x))", VOC_RS)
        out = to_prenex(phi)
        assert out == Forall("x", Not(Rel("R", (x,))))
        assert oracle_equiv(phi, out)


class TestHoistDepAtoms:
    def test_single_atom_pattern(self):
        theta = parse_formula("dep(y, x)", VOC_C)
        out = hoist_dep_atoms(theta)
        assert isinstance(out, Exists)
        fresh = out.var
        assert out.body == And(Dep((y, Var(fresh))), Eq(Var(fresh), x))
        assert oracle_equiv(theta, out)

    def test_first_order_untouched(self):
        theta = parse_formula("R(x)", VOC_R1)
        assert hoist_dep_atoms(theta) == theta

    def test_disjunction_merges_blocks(self):
        theta = parse_formula("dep(x,y) | dep(u,v)", VOC_C)
        out = hoist_dep_atoms(theta)
        assert isinstance(out, Exists) and isinstance(out.body, Exists)
        inner = out.body.body
        a, b = out.var, out.body.var
        assert inner == And(
            Dep((x, Var(a))),
            And(Dep((Var("u"), Var(b))), Or(Eq(Var(a), y), Eq(Var(b), Var("v")))),
        )
        # exhaustive equivalence on a two-variable instance (4 variables
        # would mean 2^16 teams), then sampled teams for the full shape
        small = parse_formula("dep(x) | dep(y)", VOC_C)
        assert oracle_equiv(small, hoist_dep_atoms(small), max_size=2)
        self._sampled_team_agreement(theta, out)

    @staticmethod
    def _sampled_team_agreement(phi, psi, samples=150):
        import random

        from deplogic import Model, satisfies
        from helpers import SMALL_BUDGET, random_team

        rng = random.Random(52)
        variables = sorted(free_vars(phi) | free_vars(psi))
        model = Model(2)
        for _ in range(samples):
            team = random_team(rng, variables, 2, max_rows=5)
            assert satisfies(model, team, phi, SMALL_BUDGET) == satisfies(
                model, team, psi, SMALL_BUDGET
            )

    def test_empty_dep_atom(self):
        theta = Dep(())
        out = hoist_dep_atoms(theta)
        assert isinstance(out, Exists)
        assert oracle_equiv(theta, out)

    def test_rejects_quantified_input(self):
        # A quantifier inside the matrix: the input is not prenex.
        with pytest.raises(ShapeError):
            hoist_dep_atoms(And(Eq(x, x), Exists("y", Dep((y,)))))

    def test_keeps_the_prefix_of_a_prenex_input(self):
        x_1 = Var("x_1")
        out = hoist_dep_atoms(Exists("x", Dep((x,))))
        assert out == Exists("x", Exists("x_1", And(Dep((x_1,)), Eq(x_1, x))))

    def test_keeps_the_bracketing_of_the_matrix(self):
        # Each atom is replaced where it stands; an & chain is not re-nested.
        phi = parse_formula("forall x. (x = x | (dep(c) & dep(x)))", VOC_C)
        nf = to_normal_form(phi)
        assert print_formula(nf.matrix) == "(x = x | ((z_1 = z & z = c) & x_1 = x))"
        right = parse_formula("x = x | (z_1 = z & (z = c & x_1 = x))", VOC_C)
        assert alpha_key(nf.matrix) == alpha_key(right)
        assert nf.dep_atoms == (((), "z_1"), ((), "x_1"))

    def test_an_error_in_a_matrix_that_is_not_prenex(self):
        # A quantifier is reported before an atom that is not unnested.
        with pytest.raises(ShapeError, match="prenex"):
            hoist_dep_atoms(And(Dep((Const("c"),)), Exists("y", Eq(y, y))))
        with pytest.raises(ShapeError, match="unnested"):
            hoist_dep_atoms(Exists("y", And(Dep((Const("c"),)), Dep((y,)))))


class TestPullExistentialsLeft:
    def test_already_shaped(self):
        phi = parse_formula("forall x. exists y. (dep(x, y) & y = x)", VOC_C)
        nf = pull_existentials_left(phi)
        assert nf.universals == ("x",)
        assert nf.existentials == ("y",)
        assert nf.dep_atoms == ((("x",), "y"),)

    def test_exists_forall_gets_constancy_atom(self):
        phi = parse_formula("exists x. forall y. ~(x = y)", VOC_C)
        nf = pull_existentials_left(phi)
        assert nf.universals == ("y",)
        assert nf.existentials == ("x",)
        assert nf.dep_atoms == (((), "x"),)
        assert nf.matrix == Not(Eq(x, y))
        assert oracle_equiv(phi, reassemble(nf))

    def test_context_variables_recorded(self):
        # moving x past u leaves it depending on the outer universal w
        phi = parse_formula(
            "forall w. exists x. forall u. (R(x) | ~(w = u))", VOC_R1
        )
        nf = to_normal_form(phi)
        assert nf.universals == ("w", "u")
        assert nf.dep_atoms == ((("w",), "x"),)
        assert oracle_equiv(phi, reassemble(nf))

    def test_malformed_shape_rejected(self):
        with pytest.raises(ShapeError):
            pull_existentials_left(parse_formula("exists x. (R(x) & dep(x))", VOC_R1))


class TestToNormalForm:
    def test_example3_already_normal(self):
        phi = parse_formula(EXAMPLE3_TEXT, VOC_C)
        nf = to_normal_form(phi)
        assert reassemble(nf) == phi
        assert nf.universals == ("x",)
        assert nf.existentials == ("y", "z")
        assert nf.dep_atoms == ((("y",), "z"),)

    def test_universal_only_sentence(self):
        phi = parse_formula("forall x. R(x)", VOC_R1)
        nf = to_normal_form(phi)
        assert nf.universals == ("x",)
        assert nf.existentials == ()
        assert nf.dep_atoms == ()
        assert nf.matrix == Rel("R", (x,))

    def test_theta1_oracle_verified(self):
        phi = parse_formula(THETA1_TEXT, VOC_C)
        nf = to_normal_form(phi)
        assert oracle_equiv(phi, reassemble(nf))

    def test_rejects_open_formulas(self):
        with pytest.raises(NormalFormError):
            to_normal_form(Dep((x,)))

    def test_output_shape_invariants(self):
        for name, text, voc in CORPUS:
            nf = to_normal_form(parse_formula(text, voc))
            assert is_quantifier_free(nf.matrix), name
            assert is_first_order(nf.matrix), name
            determined = [v for _, v in nf.dep_atoms]
            assert len(determined) == len(set(determined)), name

    def test_deterministic(self):
        for name, text, voc in CORPUS:
            phi = parse_formula(text, voc)
            assert to_normal_form(phi) == to_normal_form(phi), name

    def test_preserves_sentencehood(self):
        for name, text, voc in CORPUS:
            nf = to_normal_form(parse_formula(text, voc))
            assert free_vars(reassemble(nf)) == frozenset(), name

    def test_hoisting_names_avoid_prefix_variables(self):
        # dep(x,y) hoists through a witness named y_1 unless the name is
        # chosen to avoid the vacuous universal outside the matrix too.
        phi = parse_formula("forall y_1. forall x. exists y. (dep(x,y) | x = y)", VOC_EMPTY)
        nf = to_normal_form(phi)
        assert oracle_equiv(phi, reassemble(nf), max_size=2)
        # hoist_dep_atoms sees the prefix of a prenex input, so the public
        # stages pick the same name.
        assert pull_existentials_left(hoist_dep_atoms(to_prenex(preprocess(phi)))) == nf

    def test_one_path_through_the_stages(self):
        # After the shape shortcut, to_normal_form is its public stages.
        rng = random.Random(5)
        randoms = [
            random_formula(rng, VOC_RFC, ["x", "y", "z"], depth=4, rebind=i % 2 == 1)
            for i in range(300)
        ]
        sentences = [parse_formula(text, voc) for _, text, voc in CORPUS] + [
            quantify([(Forall, v) for v in sorted(free_vars(phi))], phi) for phi in randoms
        ]
        for phi in sentences:
            clean = preprocess(phi)
            try:
                expected = match_normal_form(clean)
            except ShapeError:
                expected = pull_existentials_left(hoist_dep_atoms(to_prenex(clean)))
            assert to_normal_form(phi) == expected, phi


class TestPrefix:
    @pytest.mark.parametrize("name, text, voc", CORPUS, ids=[c[0] for c in CORPUS])
    def test_quantify_inverts_strip_prefix(self, name, text, voc):
        phi = parse_formula(text, voc)
        assert quantify(*strip_prefix(phi)) == phi

    @pytest.mark.parametrize("name, text, voc", CORPUS, ids=[c[0] for c in CORPUS])
    def test_existential_prefix_stops_at_first_universal(self, name, text, voc):
        prefix, body = strip_prefix(parse_formula(text, voc), Exists)
        assert all(kind is Exists for kind, _ in prefix)
        assert not isinstance(body, Exists)

    def test_theta1_prefixes(self):
        phi = parse_formula(THETA1_TEXT, VOC_C)
        prefix, body = strip_prefix(phi, Exists)
        assert prefix == [(Exists, "z")]
        assert isinstance(body, Forall)
        assert strip_prefix(phi)[0] == [(Exists, "z"), (Forall, "x"), (Exists, "y")]


class TestMatchNormalForm:
    def test_roundtrip(self):
        phi = parse_formula(EXAMPLE3_TEXT, VOC_C)
        nf = match_normal_form(phi)
        assert reassemble(nf) == phi

    def test_rejects_universal_after_existential(self):
        phi = parse_formula("exists x. forall y. x = y", VOC_C)
        with pytest.raises(ShapeError):
            match_normal_form(phi)

    def test_rejects_dep_in_matrix(self):
        phi = parse_formula("forall x. exists y. (y = x & dep(y))", VOC_C)
        with pytest.raises(ShapeError):
            match_normal_form(phi)


class TestNormalFormSentenceInvariants:
    def test_forward_reference_rejected(self):
        with pytest.raises(NormalFormError):
            NormalFormSentence(("x",), ("y", "w"), ((("w",), "y"),), Eq(x, x))

    def test_duplicate_determination_rejected(self):
        with pytest.raises(NormalFormError):
            NormalFormSentence(
                ("x",), ("y",), ((("x",), "y"), ((), "y")), Eq(x, x)
            )

    def test_matrix_must_be_dep_free(self):
        with pytest.raises(NormalFormError):
            NormalFormSentence(("x",), (), (), Dep((x,)))


VOC_PRC = Vocabulary(relations={"P": 1, "R": 2}, constants={"c"})

# (name, bracketed spelling, bracket-free spelling that the parser nests left)
SPELLINGS = [
    (
        "example3",
        "forall x. exists y. exists z. (dep(y,z) & (x = z & ~(y = c)))",
        "forall x. exists y. exists z. (dep(y,z) & x = z & ~(y = c))",
    ),
    (
        "theta1",
        "exists z. forall x. exists y. (dep(y,x) & (~(y = z) & (P(x) | ~P(x))))",
        "exists z. forall x. exists y. (dep(y,x) & ~(y = z) & (P(x) | ~P(x)))",
    ),
    (
        "two_universal",
        "forall x. forall u. exists y. (dep(x,y) & ((R(x,y) | x = u) & (P(u) | ~P(u))))",
        "forall x. forall u. exists y. (dep(x,y) & (R(x,y) | x = u) & (P(u) | ~P(u)))",
    ),
]


class TestBracketing:
    @pytest.mark.parametrize("name,bracketed,flat", SPELLINGS)
    def test_spellings_share_a_normal_form(self, name, bracketed, flat):
        assert to_normal_form(parse_formula(flat, VOC_PRC)) == to_normal_form(
            parse_formula(bracketed, VOC_PRC)
        )

    def test_flat_example3_is_read_off_without_new_variables(self):
        nf = to_normal_form(parse_formula(SPELLINGS[0][2], VOC_C))
        assert nf == to_normal_form(parse_formula(EXAMPLE3_TEXT, VOC_C))
        assert nf.existentials == ("y", "z")

    def test_split_dep_atoms_reads_either_nesting(self):
        dep, a, b = Dep((y, z)), Eq(x, z), Not(Eq(y, x))
        for body in (And(dep, And(a, b)), And(And(dep, a), b)):
            assert split_dep_atoms(body) == ([(("y",), "z")], And(a, b))

    def test_split_dep_atoms_keeps_last_conjunct_as_matrix(self):
        with pytest.raises(ShapeError):
            split_dep_atoms(And(Dep((x,)), Dep((y,))))


class TestDeepInputs:
    """Every stage returns on formulas 5000 deep, past the recursion limit.
    Results are compared by walking them, since `==` on nested dataclasses
    recurses."""

    N = 5000

    @staticmethod
    def chain(kind, parts, to_left):
        if to_left:
            return functools.reduce(kind, parts)
        return functools.reduce(lambda acc, p: kind(p, acc), reversed(parts))

    @pytest.mark.parametrize("to_left", [True, False])
    def test_normal_form_of_a_conjunction_chain(self, to_left):
        x_1 = Var("x_1")
        phi = Forall("x", self.chain(And, [Eq(x, x)] * (self.N - 1) + [Dep((x,))], to_left))
        nf = to_normal_form(phi)
        assert (nf.universals, nf.existentials, nf.dep_atoms) == (("x",), ("x_1",), (((), "x_1"),))
        assert identical(nf.matrix, conjoin([Eq(x, x)] * (self.N - 1) + [Eq(x_1, x)]))

    @pytest.mark.parametrize("to_left", [True, False])
    def test_normal_form_of_a_disjunction_chain(self, to_left):
        x_1 = Var("x_1")
        phi = Forall("x", self.chain(Or, [Eq(x, x)] * (self.N - 1) + [Dep((x,))], to_left))
        nf = to_normal_form(phi)
        assert (nf.universals, nf.existentials, nf.dep_atoms) == (("x",), ("x_1",), (((), "x_1"),))
        expected = self.chain(Or, [Eq(x, x)] * (self.N - 1) + [Eq(x_1, x)], to_left)
        assert identical(nf.matrix, expected)

    def test_normal_form_under_nested_negations(self):
        nots = Eq(x, x)
        for _ in range(self.N):
            nots = Not(nots)
        nf = to_normal_form(Forall("x", nots))
        assert nf.universals == ("x",) and identical(nf.matrix, nots)
        nf = to_normal_form(Forall("x", And(nots, Dep((x,)))))
        assert nf.existentials == ("x_1",)
        assert identical(nf.matrix, And(nots, Eq(Var("x_1"), x)))

    def test_prenex_of_deep_chains(self):
        inner = Exists("y", Eq(x, y))
        phi = conjoin([Eq(x, x)] * (self.N - 1) + [inner])
        expected = Exists("y", conjoin([Eq(x, x)] * (self.N - 1) + [inner.body]))
        assert identical(to_prenex(phi), expected)
        for flips, kind in ((self.N, Exists), (self.N + 1, Forall)):
            phi, matrix = inner, inner.body
            for _ in range(flips):
                phi, matrix = Not(phi), Not(matrix)
            assert identical(to_prenex(phi), kind("y", matrix))

    def test_preprocess_of_a_deep_chain(self):
        f_y1, y_1 = Apply("f", (Var("y_1"),)), Var("y_1")
        phi = conjoin([Eq(x, y)] * (self.N - 1) + [Exists("y", Dep((Apply("f", (y,)), y)))])
        unnested = Exists("z", And(Dep((z, y_1)), Eq(z, f_y1)))
        expected = conjoin([Eq(x, y)] * (self.N - 1) + [Exists("y_1", unnested)])
        assert identical(preprocess(phi), expected)

    def test_preprocess_of_nested_applications(self):
        term = x
        for _ in range(self.N):
            term = Apply("f", (term,))
        out = preprocess(Forall("x", Dep((term, x))))
        assert identical(out, Forall("x", Exists("z", And(Dep((z, x)), Eq(z, term)))))
