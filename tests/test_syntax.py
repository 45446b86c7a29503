"""Tests for terms, formulas, and structural utilities."""

import copy
import functools
import itertools
import random

import pytest

from deplogic import (
    And,
    Apply,
    CaptureError,
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
    VocabularyError,
    NegationScopeError,
    free_vars,
    fresh_variable,
    infer_vocabulary,
    is_first_order,
    is_sentence,
    substitute,
)
from deplogic.syntax import (
    alpha_key,
    atom_terms,
    bound_vars,
    conjoin,
    conjuncts,
    identical,
    is_quantifier_free,
    map_vars,
    rename_free,
    term_vars,
    walk,
    walk_term,
)

from helpers import VOC_R1C, alpha_equal, random_formula

x, y, z = Var("x"), Var("y"), Var("z")
VOC_R2F1C = Vocabulary(relations={"R": 2}, functions={"f": 1}, constants={"c"})


class TestFreeVars:
    def test_dep_atom_collects_all_term_variables(self):
        phi = Dep((x, Apply("f", (y,))))
        assert free_vars(phi) == {"x", "y"}

    def test_universal_closes_its_variable(self):
        assert free_vars(Forall("x", Rel("R", (x,)))) == frozenset()

    def test_existential_leaves_other_variables_free(self):
        assert free_vars(Exists("y", Eq(x, y))) == {"x"}

    def test_bound_in_one_operand_free_in_another(self):
        assert free_vars(And(Rel("R", (x,)), Exists("x", Rel("R", (x,))))) == {"x"}
        assert free_vars(Or(Forall("x", Eq(x, y)), Not(Eq(z, x)))) == {"x", "y", "z"}

    def test_sentence_iff_no_free_vars(self):
        assert is_sentence(Forall("x", Rel("R", (x,))))
        assert not is_sentence(Eq(x, y))


class TestIsFirstOrder:
    def test_plain_fo(self):
        assert is_first_order(And(Rel("R", (x,)), Not(Eq(x, y))))

    def test_dep_atom_is_not_fo(self):
        assert not is_first_order(Dep((x, y)))

    def test_nested_dep_found(self):
        phi = Exists("z", Or(Dep((z,)), Rel("R", (z,))))
        assert not is_first_order(phi)


class TestNegationScope:
    def test_not_over_dep_rejected(self):
        with pytest.raises(NegationScopeError):
            Not(Dep((x,)))

    def test_not_over_fo_fine(self):
        Not(Forall("x", Rel("R", (x,))))


class TestSubstitute:
    def test_capture_refused(self):
        phi = Exists("y", Eq(x, y))
        with pytest.raises(CaptureError):
            substitute(phi, y, "x")

    def test_simple_replacement(self):
        assert substitute(Rel("R", (x,)), Apply("f", (z,)), "x") == Rel(
            "R", (Apply("f", (z,)),)
        )

    def test_dep_replacement(self):
        assert substitute(Dep((x, y)), Const("c"), "x") == Dep((Const("c"), y))

    def test_capture_names_the_outermost_capturing_binder(self):
        term = Apply("g", (Var("v"), Var("u")))
        inner = Exists("u", Exists("v", Eq(x, y)))
        with pytest.raises(CaptureError, match="would capture u from the term"):
            substitute(inner, term, "x")
        # The atom with a free x lies under v alone; u's atom binds x itself.
        phi = And(Exists("u", Exists("x", Eq(x, y))), Exists("v", Forall("u", Eq(x, y))))
        with pytest.raises(CaptureError, match="would capture v from the term"):
            substitute(phi, term, "x")

    def test_bound_occurrences_untouched(self):
        phi = Exists("x", Eq(x, y))
        assert substitute(phi, z, "x") == phi

    def test_identity_substitution(self):
        rng = random.Random(7)
        for _ in range(50):
            phi = random_formula(rng, VOC_R1C, ["x", "y"], depth=3)
            assert substitute(phi, x, "x") == phi

    def test_free_vars_after_substitution(self):
        rng = random.Random(8)
        checked = 0
        for _ in range(200):
            phi = random_formula(rng, VOC_R1C, ["x", "y"], depth=3)
            if "x" not in free_vars(phi):
                continue
            t = Var("q")
            try:
                out = substitute(phi, t, "x")
            except CaptureError:
                continue
            assert free_vars(out) == (free_vars(phi) - {"x"}) | term_vars(t)
            checked += 1
        assert checked > 50


class TestRenameFree:
    def test_renames_simultaneously(self):
        phi = And(Eq(x, y), Rel("R", (Apply("f", (y,)),)))
        expected = And(Eq(y, x), Rel("R", (Apply("f", (x,)),)))
        assert rename_free(phi, {"x": "y", "y": "x"}) == expected

    @pytest.mark.parametrize("depth", [0, 100])
    def test_rejects_a_quantifier_at_any_depth(self, depth):
        phi = Exists("z", Eq(z, x))
        for _ in range(depth):
            phi = Not(Or(Eq(x, y), phi))
        with pytest.raises(ValueError, match="quantifier-free"):
            rename_free(phi, {"x": "y"})


class TestFreshVariable:
    def test_hint_kept_when_free(self):
        assert fresh_variable({"x", "y"}, "z") == "z"

    def test_first_decorated_name(self):
        assert fresh_variable({"z"}, "z") == "z_1"

    def test_counter_advances(self):
        assert fresh_variable({"z", "z_1"}, "z") == "z_2"

    def test_returned_name_is_claimed(self):
        used = {"z"}
        name = fresh_variable(used, "z")
        assert used == {"z", name}
        assert fresh_variable(used, "z") == "z_2"


class TestAlphaEqual:
    def test_renamed_binder(self):
        a = Forall("x", Rel("R", (x,)))
        b = Forall("y", Rel("R", (y,)))
        assert alpha_equal(a, b)

    def test_different_relation(self):
        a = Forall("x", Rel("R", (x,)))
        b = Forall("x", Rel("S", (x,)))
        assert not alpha_equal(a, b)

    def test_dep_atoms_are_ordered(self):
        assert not alpha_equal(Dep((x, y)), Dep((y, x)))

    def test_free_variables_must_match_exactly(self):
        assert not alpha_equal(Rel("R", (x,)), Rel("R", (y,)))

    def test_shadowing(self):
        a = Forall("x", Forall("x", Rel("R", (x,))))
        b = Forall("u", Forall("v", Rel("R", (Var("v"),))))
        assert alpha_equal(a, b)

    def test_bracketing_of_and_is_ignored_and_of_or_is_not(self):
        a, b, c = Rel("R", (x,)), Eq(x, y), Dep((x, y))
        renamed = And(Rel("R", (z,)), And(Eq(z, y), Dep((z, y))))
        assert alpha_equal(Exists("x", And(And(a, b), c)), Exists("z", renamed))
        assert not alpha_equal(Or(Or(a, b), c), Or(a, Or(b, c)))
        assert canonical(And(And(a, b), c)) == canonical(And(a, And(b, c)))
        assert canonical(Or(Or(a, b), c)) != canonical(Or(a, Or(b, c)))

    def test_bound_and_free_occurrences_differ(self):
        assert not alpha_equal(Exists("u", Eq(Var("u"), x)), Exists("x", Eq(x, x)))

    def test_equivalence_relation_on_random_formulas(self):
        rng = random.Random(9)
        formulas = [random_formula(rng, VOC_R1C, ["x", "y"], depth=3) for _ in range(60)]
        for phi in formulas:
            assert alpha_equal(phi, phi)
        for phi, psi in zip(formulas, formulas[1:]):
            assert alpha_equal(phi, psi) == alpha_equal(psi, phi)
            if alpha_equal(phi, psi):
                assert free_vars(phi) == free_vars(psi)
        # alpha_key against a reference that renames each binder by its depth
        renamed = [canonical(phi) for phi in formulas]
        pairs = list(zip(formulas, renamed)) + list(zip(formulas, renamed[1:]))
        pairs += list(zip(formulas, formulas[1:]))
        assert any(phi != psi and canonical(phi) == canonical(psi) for phi, psi in pairs)
        for phi, psi in pairs:
            expected = canonical(phi) == canonical(psi)
            assert (alpha_key(phi) == alpha_key(psi)) == expected
            assert alpha_equal(phi, psi) == expected

    def test_a_rebound_name_takes_its_new_depth(self):
        # Three names are bound above z, though only two distinct ones.
        def shadowed(*args):
            return Forall("x", Forall("y", Forall("x", Forall("z", Rel("R", args)))))

        assert alpha_key(shadowed(x, z)) != alpha_key(shadowed(z, x))
        assert alpha_key(shadowed(x, z)) == alpha_key(canonical(shadowed(x, z)))

    def test_alpha_key_against_renaming_under_rebinding(self):
        rng = random.Random(12)
        formulas = [
            random_formula(rng, VOC_R2F1C, ["x", "y"], depth=4, rebind=True) for _ in range(500)
        ]
        renamed = [canonical(phi) for phi in formulas]
        terms = {type(u) for phi in formulas for f, _ in walk(phi)
                 for t in atom_terms(f) for u in walk_term(t)}
        assert terms == {Var, Const, Apply}
        assert any(f.var in binders for phi in formulas for f, binders in walk(phi)
                   if isinstance(f, (Exists, Forall)))
        pairs = list(zip(formulas, renamed)) + list(zip(formulas, renamed[1:]))
        for phi, psi in pairs:
            expected = canonical(phi) == canonical(psi)
            assert (alpha_key(phi) == alpha_key(psi)) == expected, (phi, psi)


class TestIdentical:
    """`identical` against the dataclass `==`, which recurses."""

    def test_agrees_with_eq(self):
        rng = random.Random(13)
        formulas = [random_formula(rng, VOC_R2F1C, ["x", "y"], depth=2) for _ in range(400)]
        pairs = [(phi, copy.deepcopy(phi)) for phi in formulas]
        pairs += list(itertools.combinations(formulas[:60], 2))
        pairs += [(s, t) for phi, psi in zip(formulas, formulas[1:])
                  for s, t in zip(atom_terms(phi), atom_terms(psi))]
        assert {phi == psi for phi, psi in pairs[400:]} == {True, False}
        for phi, psi in pairs:
            assert identical(phi, psi) == (phi == psi), (phi, psi)

    def test_binder_names_and_bracketing_count(self):
        a, b, c = Rel("R", (x, y)), Eq(x, y), Dep((x, y))
        assert not identical(Exists("x", a), Exists("z", a))
        assert not identical(And(And(a, b), c), And(a, And(b, c)))
        assert not identical(Rel("R", (x, y)), Rel("S", (x, y)))
        assert not identical(Dep((x, y)), Dep((x,)))
        assert not identical(Var("c"), Const("c"))
        assert identical(Apply("f", (x,)), Apply("f", (Var("x"),)))


def canonical(phi, env=None, depth=0):
    """phi with every bound variable renamed to `#<depth of its binder>` and
    every chain of & nested to the right: a reference for alpha-equality
    that shares no code with alpha_key."""
    env = env or {}

    def term(t):
        if isinstance(t, Var):
            return Var(env.get(t.name, t.name))
        if isinstance(t, Apply):
            return Apply(t.func, tuple(map(term, t.args)))
        return t

    if isinstance(phi, Rel):
        return Rel(phi.name, tuple(map(term, phi.args)))
    if isinstance(phi, Eq):
        return Eq(term(phi.left), term(phi.right))
    if isinstance(phi, Dep):
        return Dep(tuple(map(term, phi.args)))
    if isinstance(phi, Not):
        return Not(canonical(phi.body, env, depth))
    if isinstance(phi, And):
        parts, todo = [], [phi]
        while todo:
            f = todo.pop()
            if isinstance(f, And):
                todo += [f.right, f.left]
            else:
                parts.append(canonical(f, env, depth))
        out = parts.pop()
        while parts:
            out = And(parts.pop(), out)
        return out
    if isinstance(phi, Or):
        return Or(canonical(phi.left, env, depth), canonical(phi.right, env, depth))
    name = f"#{depth}"
    return type(phi)(name, canonical(phi.body, {**env, phi.var: name}, depth + 1))


class TestVocabulary:
    def test_names_must_be_disjoint(self):
        with pytest.raises(VocabularyError):
            Vocabulary(relations={"R": 1}, constants={"R"})

    def test_function_arity_positive(self):
        with pytest.raises(VocabularyError):
            Vocabulary(functions={"f": 0})

    @pytest.mark.parametrize("word", ["forall", "exists", "dep"])
    def test_keywords_are_reserved(self, word):
        # A symbol named dep would print as dep(x) and read back as a
        # dependence atom.
        for kind in ({"relations": {word: 1}}, {"functions": {word: 1}}, {"constants": {word}}):
            with pytest.raises(VocabularyError, match="reserved"):
                Vocabulary(**kind)
        with pytest.raises(VocabularyError, match="reserved"):
            infer_vocabulary(Rel(word, (x,)))

    def test_infer_vocabulary(self):
        phi = And(Rel("R", (Apply("f", (x,)),)), Eq(Const("c"), x))
        voc = infer_vocabulary(phi)
        assert voc.relations == {"R": 1}
        assert voc.functions == {"f": 1}
        assert voc.constants == {"c"}

    def test_infer_conflicting_arity(self):
        phi = And(Rel("R", (x,)), Rel("R", (x, y)))
        with pytest.raises(VocabularyError):
            infer_vocabulary(phi)


class TestEmptyDep:
    def test_empty_dep_is_legal(self):
        assert Dep(()).args == ()
        assert free_vars(Dep(())) == frozenset()


class TestConjuncts:
    c = Const("c")

    def test_right_nested(self):
        parts = [Dep((y, z)), Eq(x, z), Not(Eq(y, self.c))]
        assert conjuncts(conjoin(parts)) == parts

    def test_left_nested_with_dep_atom(self):
        dep, a, b = Dep((y, z)), Eq(x, z), Not(Eq(y, self.c))
        assert conjuncts(And(And(dep, a), b)) == [dep, a, b]
        assert conjuncts(And(And(And(dep, a), dep), b)) == [dep, a, dep, b]

    def test_first_order_left_operand_is_split(self):
        a, b = Eq(x, z), Eq(y, z)
        assert conjuncts(And(And(a, b), Dep((x, y)))) == [a, b, Dep((x, y))]
        assert conjuncts(And(And(a, b), Eq(x, y))) == [a, b, Eq(x, y)]

    def test_other_formulas_are_one_conjunct(self):
        a, b = Eq(x, z), Eq(y, z)
        assert conjuncts(Or(And(a, b), a)) == [Or(And(a, b), a)]
        assert conjuncts(Exists("x", And(a, b))) == [Exists("x", And(a, b))]

    def test_both_spellings_give_one_list(self):
        dep, a, b, c = Dep((x, y)), Eq(x, y), Rel("R", (x,)), Eq(y, z)
        assert conjuncts(And(And(And(dep, a), b), c)) == conjuncts(
            conjoin([dep, a, b, c])
        )

    def test_alpha_key_reads_every_bracketing(self):
        a, b, c = Eq(x, y), Rel("R", (x,)), Eq(y, z)
        left = Exists("x", Or(And(And(a, b), c), And(And(b, c), a)))
        right = Exists("x", Or(conjoin([a, b, c]), conjoin([b, c, a])))
        assert left != right
        assert alpha_key(left) == alpha_key(right)
        # the order of conjuncts and the length of a chain still count
        assert alpha_key(left) != alpha_key(Exists("x", Or(conjoin([a, c, b]), conjoin([b, c, a]))))
        assert alpha_key(And(And(a, b), c)) != alpha_key(And(a, b))


class TestDeepFormulas:
    """Walkers that return on chains and negations 5000 deep, past the
    recursion limit.  Results are compared by walking them or through
    alpha_key, since `==` on nested dataclasses recurses."""

    N = 5000

    @pytest.mark.parametrize("kind", [And, Or])
    @pytest.mark.parametrize("to_left", [True, False])
    def test_chain_facts(self, kind, to_left):
        parts = [Eq(x, y)] * (self.N - 1) + [Rel("R", (x,))]
        if to_left:
            chain = functools.reduce(kind, parts)
        else:
            chain = functools.reduce(lambda acc, p: kind(p, acc), reversed(parts))
        assert free_vars(Forall("x", chain)) == {"y"}
        assert is_first_order(Forall("x", chain))
        assert not is_first_order(Forall("x", kind(chain, Dep((x,)))))

    def test_nested_negation_facts(self):
        phi, renamed = Eq(x, y), Eq(z, y)
        for _ in range(self.N):
            phi, renamed = Not(phi), Not(renamed)
        assert free_vars(Forall("x", phi)) == {"y"}
        assert is_first_order(phi)
        assert alpha_key(Forall("x", phi)) == alpha_key(Forall("z", renamed))
        assert alpha_key(Forall("x", phi)) != alpha_key(Forall("x", Not(phi)))

    def test_walkers_return(self):
        matrix = conjoin([Eq(x, y)] * 5000)
        assert is_quantifier_free(matrix)
        assert bound_vars(Exists("x", matrix)) == {"x"}
        renamed = Exists("z", conjoin([Eq(z, y)] * 5000))
        assert alpha_equal(Exists("x", matrix), renamed)
        assert not alpha_equal(Exists("x", matrix), Exists("y", matrix))

    def test_substitute_and_rename_free_return(self):
        chain = conjoin([Eq(x, y)] * self.N)
        assert identical(substitute(chain, z, "x"), conjoin([Eq(z, y)] * self.N))
        swapped = rename_free(chain, {"x": "y", "y": "x"})
        assert identical(swapped, conjoin([Eq(y, x)] * self.N))
        phi, expected = Eq(x, y), Eq(z, y)
        for i in range(self.N):
            phi, expected = Forall(f"u{i}", Not(phi)), Forall(f"u{i}", Not(expected))
        assert identical(substitute(phi, z, "x"), expected)
        with pytest.raises(CaptureError, match="capture u0 "):
            substitute(phi, Var("u0"), "x")
        with pytest.raises(ValueError, match="quantifier-free"):
            rename_free(And(chain, phi), {})

    def test_substitute_into_nested_applications(self):
        term, expected = x, Const("c")
        for _ in range(self.N):
            term, expected = Apply("f", (term,)), Apply("f", (expected,))
        out = substitute(Rel("R", (term, x)), Const("c"), "x")
        assert identical(out, Rel("R", (expected, Const("c"))))
        assert identical(map_vars(term, lambda v: Const("c")), expected)

    def test_identical_returns(self):
        phi, same, other = Eq(x, y), Eq(x, y), Eq(y, x)
        term, same_term = x, Var("x")
        for _ in range(self.N):
            phi, same, other = Not(phi), Not(same), Not(other)
            term, same_term = Apply("f", (term,)), Apply("f", (same_term,))
        assert identical(phi, same)
        assert not identical(phi, other)
        assert identical(term, same_term)
        assert not identical(term, Apply("f", (same_term,)))
