"""Tests for guard sets and the first-order approximations."""

import random

import pytest

from deplogic import (
    And,
    Dep,
    Eq,
    Model,
    Rel,
    Var,
    Vocabulary,
    apply_rule8,
    approximation_chain_check,
    build_approximation,
    build_guard_set,
    build_omega,
    is_first_order,
    parse_formula,
    sentence_true,
)
from deplogic import approximation
from deplogic.normalform import NormalFormSentence, reassemble, to_normal_form
from deplogic.syntax import bound_vars, conjuncts

from helpers import (
    CORPUS,
    EXAMPLE3_TEXT,
    SMALL_BUDGET,
    VOC_C,
    VOC_R1C,
    alpha_equal,
    random_model,
    random_normal_form,
)

x, y, z = Var("x"), Var("y"), Var("z")


def example3_nf() -> NormalFormSentence:
    return to_normal_form(parse_formula(EXAMPLE3_TEXT, VOC_C))


class TestGuardSet:
    def test_example3_default_and_own_atom(self):
        s = build_guard_set(example3_nf())
        assert s == ((("x",), "y"), (("y",), "z"))

    def test_every_existential_determined_keeps_atoms(self):
        nf = NormalFormSentence(("x",), ("y",), ((("x",), "y"),), Eq(y, x))
        assert build_guard_set(nf) == nf.dep_atoms

    def test_all_defaults(self):
        nf = NormalFormSentence(("x",), ("y",), (), Rel("R", (x, y)))
        assert build_guard_set(nf) == ((("x",), "y"),)


class TestBuildApproximation:
    def test_example3_first_approximation_matches_paper(self):
        phi1 = build_approximation(example3_nf(), 1)
        expected = parse_formula(
            "forall x_0. exists y_0. exists z_0. (x_0 = z_0 & ~(y_0 = c))", VOC_C
        )
        assert phi1 == expected

    def test_first_approximation_has_no_guards(self):
        nf = NormalFormSentence(("x",), ("y",), (), Rel("R", (x, y)))
        phi1 = build_approximation(nf, 1)
        voc = Vocabulary(relations={"R": 2})
        assert phi1 == parse_formula("forall x_0. exists y_0. R(x_0, y_0)", voc)

    def test_second_approximation_equals_rule8(self):
        nf = example3_nf()
        assert alpha_equal(apply_rule8(reassemble(nf)), build_approximation(nf, 2))

    def test_output_is_first_order(self):
        rng = random.Random(5)
        for _ in range(20):
            nf = random_normal_form(rng)
            for n in (1, 2, 3):
                assert is_first_order(build_approximation(nf, n))

    def test_rejects_nonpositive_index(self):
        with pytest.raises(ValueError):
            build_approximation(example3_nf(), 0)

    def test_round_variables_are_distinct(self):
        phi3 = build_approximation(example3_nf(), 3)
        assert len(bound_vars(phi3)) == 9  # three rounds of x, y, z


class TestBuildOmega:
    def test_omega1_is_the_sentence_itself(self):
        nf = example3_nf()
        assert build_omega(nf, 1) == reassemble(nf)

    def test_omega2_keeps_innermost_dep_atoms(self):
        nf = example3_nf()
        omega2 = build_omega(nf, 2)
        assert not is_first_order(omega2)
        # outer round: (matrix_0 & <round-1 block>)
        outer = omega2
        while hasattr(outer, "body"):
            outer = outer.body
        assert isinstance(outer, And)
        block1 = outer.right
        while hasattr(block1, "body"):
            block1 = block1.body
        # innermost conjunction: the matrix's conjuncts first, then the
        # renamed dep atom
        parts = conjuncts(block1)
        assert parts[len(conjuncts(nf.matrix))] == Dep((Var("y_1"), Var("z_1")))

    def test_omega_implies_phi_on_small_models(self):
        nf = example3_nf()
        omega2 = build_omega(nf, 2)
        phi2 = build_approximation(nf, 2)
        for size in (1, 2, 3):
            m = Model(size, constants={"c": 0})
            if sentence_true(m, omega2, SMALL_BUDGET):
                assert sentence_true(m, phi2, SMALL_BUDGET)

    def test_no_dep_atoms_means_omega_equals_phi(self):
        nf = NormalFormSentence(("x",), ("y",), (), Rel("R", (x, y)))
        for n in (2, 3):
            assert build_omega(nf, n) == build_approximation(nf, n)


def _all_dep_atoms(phi):
    out = []
    stack = [phi]
    while stack:
        f = stack.pop()
        if isinstance(f, Dep):
            out.append(f)
        for attr in ("body", "left", "right"):
            child = getattr(f, attr, None)
            if child is not None and not isinstance(child, (str, tuple)):
                stack.append(child)
    return out


class TestChainCheck:
    def test_example3_truth_thresholds(self):
        nf = example3_nf()
        m3 = Model(3, constants={"c": 0})
        assert approximation_chain_check(nf, m3, 4) == [True, True, False, False]
        m1 = Model(1, constants={"c": 0})
        assert approximation_chain_check(nf, m1, 2) == [False, False]

    def test_chain_is_monotone_on_random_instances(self):
        # The check stops after the first false value or at k**m, so compare
        # it with every approximation built and evaluated.
        rng = random.Random(11)
        cases = [(to_normal_form(parse_formula(text, voc)), voc) for _, text, voc in CORPUS]
        cases += [(random_normal_form(rng), VOC_R1C) for _ in range(30)]
        settled_true = stopped_false = 0
        for nf, voc in cases:
            for size in (1, 2, 3):
                m = random_model(rng, voc, size)
                n = 5 if size < 3 else 4
                expected = [
                    sentence_true(m, build_approximation(nf, i)) for i in range(1, n + 1)
                ]
                for up_to in range(1, n + 1):
                    assert approximation_chain_check(nf, m, up_to) == expected[:up_to], (nf, m)
                assert expected == sorted(expected, reverse=True)
                settled = size ** len(nf.universals)
                settled_true += expected[-1] and settled < n
                stopped_false += not expected[-1] and expected.index(False) < n - 1
        assert settled_true >= 10 and stopped_false >= 10

    def test_chain_evaluates_only_unsettled_approximations(self, monkeypatch):
        calls = []

        def counting(m, phi):
            calls.append(phi)
            return sentence_true(m, phi)

        monkeypatch.setattr(approximation, "sentence_true", counting)
        m3 = Model(3, constants={"c": 0})
        assert approximation_chain_check(example3_nf(), m3, 40) == [True, True] + [False] * 38
        assert len(calls) == 3

    def test_true_sentence_keeps_all_approximations(self):
        rng = random.Random(13)
        found = 0
        for _ in range(60):
            nf = random_normal_form(rng)
            m = random_model(rng, VOC_R1C, rng.randint(1, 3))
            if sentence_true(m, reassemble(nf), SMALL_BUDGET):
                found += 1
                assert approximation_chain_check(nf, m, 3) == [True] * 3
        assert found >= 10
