"""Tests for the proof kernel: step lookup and the dependence rules 8 and
dep_distribute on conjunctions of either bracketing."""

import pytest

from deplogic import (
    Proof,
    ProofStep,
    Vocabulary,
    apply_rule8,
    check_proof,
    parse_formula,
)

from helpers import EXAMPLE3_TEXT, VOC_C

EXAMPLE3_FLAT_TEXT = "forall x. exists y. exists z. (dep(y,z) & x = z & ~(y = c))"
VOC_PQR = Vocabulary(relations={"P": 1, "Q": 1, "R": 1})


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
