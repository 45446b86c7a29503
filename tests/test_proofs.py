"""Tests for the proof kernel: step lookup, open assumptions, repeated
discharges, and the dependence rules 7, 8 and dep_distribute on conjunctions
of any bracketing."""

import pytest

from deplogic import (
    Proof,
    ProofStep,
    Vocabulary,
    apply_rule8,
    check_proof,
    parse_formula,
    parse_proof,
)

from helpers import EXAMPLE3_TEXT, VOC_C

EXAMPLE3_FLAT_TEXT = "forall x. exists y. exists z. (dep(y,z) & x = z & ~(y = c))"
VOC_PQR = Vocabulary(relations={"P": 1, "Q": 1, "R": 1, "S": 1})
VOC_R2PQ = Vocabulary(relations={"R": 2, "P": 1, "Q": 1})


def one_step_proof(premise, conclusion, rule):
    steps = (ProofStep(1, premise, "assume"), ProofStep(2, conclusion, rule, (1,)))
    return Proof(steps)


class TestProofSteps:
    def test_step_looks_up_by_index(self):
        phi = parse_formula("c = c", VOC_C)
        proof = Proof((ProofStep(3, phi, "identity"), ProofStep(7, phi, "identity")))
        assert proof.step(7) is proof.steps[1]
        with pytest.raises(KeyError):
            proof.step(5)

    def test_duplicate_index_rejected(self):
        phi = parse_formula("c = c", VOC_C)
        with pytest.raises(ValueError):
            Proof((ProofStep(1, phi, "identity"), ProofStep(1, phi, "identity")))


class TestOpenAssumptions:
    HYPOTHESIS = "forall y. exists z. (R(x,y) & ~(y = z))"

    @pytest.mark.parametrize(
        "text, accepted",
        [
            ("forall u. exists v. (R(x,u) & ~(u = v))", True),
            ("forall u. exists v. (R(x,u) & ~(u = x))", False),
            ("forall u. exists v. (R(w,u) & ~(u = v))", False),
        ],
    )
    def test_open_assumption_must_be_an_alpha_variant(self, text, accepted):
        hypothesis = parse_formula(self.HYPOTHESIS, VOC_R2PQ)
        proof = Proof((ProofStep(1, parse_formula(text, VOC_R2PQ), "assume"),))
        assert check_proof(proof, [hypothesis]).accepted == accepted

    def test_repeated_discharge_in_one_step(self):
        text = (
            "1. P(x) assume\n"
            "2. ~P(x) assume\n"
            "3. P(x) & ~P(x) and_i 1 2\n"
            "4. ~P(x) neg_i 3 discharge 1 1\n"
        )
        report = check_proof(parse_proof(text, VOC_PQR), [parse_formula("~P(x)", VOC_PQR)])
        messages = [(i, d.message) for i, d in report.failures]
        assert messages == [(4, "the step discharges assumption 1 twice")]


class TestRule7:
    PREMISE = "exists x. forall y. (R(x,y) & P(x) & Q(y))"

    @pytest.mark.parametrize(
        "text",
        [
            "forall y. exists x. (dep(x) & (R(x,y) & P(x) & Q(y)))",
            "forall y. exists x. (dep(x) & R(x,y) & P(x) & Q(y))",
            "forall y. exists x. (dep(x) & (R(x,y) & (P(x) & Q(y))))",
        ],
    )
    def test_any_bracketing_accepted(self, text):
        premise = parse_formula(self.PREMISE, VOC_R2PQ)
        conclusion = parse_formula(text, VOC_R2PQ)
        report = check_proof(one_step_proof(premise, conclusion, "dep_intro"), [premise])
        assert report.accepted, report.failures

    @pytest.mark.parametrize(
        "text",
        [
            "forall y. exists x. (dep(x) & R(x,y) & P(x))",
            "forall y. exists x. (dep(x) & R(x,y) & Q(y) & P(x))",
            "forall y. exists x. (dep(y,x) & R(x,y) & P(x) & Q(y))",
        ],
    )
    def test_other_conclusions_rejected(self, text):
        premise = parse_formula(self.PREMISE, VOC_R2PQ)
        conclusion = parse_formula(text, VOC_R2PQ)
        report = check_proof(one_step_proof(premise, conclusion, "dep_intro"), [premise])
        assert [i for i, _ in report.failures] == [2]


class TestRule8:
    def test_both_spellings_give_one_conclusion(self):
        bracketed = parse_formula(EXAMPLE3_TEXT, VOC_C)
        flat = parse_formula(EXAMPLE3_FLAT_TEXT, VOC_C)
        assert apply_rule8(flat) == apply_rule8(bracketed)

    def test_dep_elim_accepts_the_bracket_free_premise(self):
        flat = parse_formula(EXAMPLE3_FLAT_TEXT, VOC_C)
        proof = one_step_proof(flat, apply_rule8(flat), "dep_elim")
        assert check_proof(proof, [flat]).accepted


class TestDepDistribute:
    PREMISE = (
        "(exists y. (dep(x,y) & P(y) & Q(y))) | (exists w. (dep(x,w) & R(w)))"
    )

    @pytest.mark.parametrize(
        "text",
        [
            "exists y. exists w. (dep(x,y) & (dep(x,w) & ((P(y) & Q(y)) | R(w))))",
            "exists y. exists w. (dep(x,y) & dep(x,w) & ((P(y) & Q(y)) | R(w)))",
        ],
    )
    def test_bracket_free_left_block_accepted(self, text):
        premise = parse_formula(self.PREMISE, VOC_PQR)
        conclusion = parse_formula(text, VOC_PQR)
        report = check_proof(one_step_proof(premise, conclusion, "dep_distribute"), [premise])
        assert report.accepted, report.failures

    def test_missing_atom_rejected(self):
        premise = parse_formula(self.PREMISE, VOC_PQR)
        conclusion = parse_formula(
            "exists y. exists w. (dep(x,y) & ((P(y) & Q(y)) | R(w)))", VOC_PQR
        )
        report = check_proof(one_step_proof(premise, conclusion, "dep_distribute"), [premise])
        assert [i for i, _ in report.failures] == [2]

    FLAT_CORE_PREMISE = (
        "(exists y. (dep(x,y) & P(y) & Q(y) & S(y))) | (exists w. (dep(x,w) & R(w)))"
    )

    @pytest.mark.parametrize(
        "core, accepted",
        [
            ("(P(y) & Q(y) & S(y)) | R(w)", True),
            ("(P(y) & (Q(y) & S(y))) | R(w)", True),
            ("(P(y) & Q(y)) | R(w)", False),
            ("(P(y) & S(y) & Q(y)) | R(w)", False),
        ],
    )
    def test_core_compared_up_to_bracketing(self, core, accepted):
        premise = parse_formula(self.FLAT_CORE_PREMISE, VOC_PQR)
        conclusion = parse_formula(
            f"exists y. exists w. (dep(x,y) & dep(x,w) & ({core}))", VOC_PQR
        )
        report = check_proof(one_step_proof(premise, conclusion, "dep_distribute"), [premise])
        assert report.accepted == accepted, report.failures
