"""Tests for the proof kernel: step lookup, open assumptions, repeated
discharges, formulas nested past the recursion limit, the dependence rules
7, 8 and dep_distribute on conjunctions of any bracketing and renamed bound
variables, a per-rule corpus, and whole gadgets of the benchmark's proof
generator."""

import random
import sys
from pathlib import Path

import pytest

from deplogic import (
    RULES,
    Proof,
    ProofStep,
    Vocabulary,
    apply_rule8,
    check_proof,
    parse_formula,
    parse_hypotheses,
    parse_proof,
    parse_vocabulary,
)

from helpers import EXAMPLE3_TEXT, VOC_C, entails_on_small_models

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

    @pytest.mark.parametrize(
        "hypothesis, text, accepted",
        [
            ("(P(c) & Q(c)) & R(c)", "1. P(c) & (Q(c) & R(c)) assume\n2. P(c) and_e_l 1\n", True),
            ("(P(c) | Q(c)) | R(c)", "1. P(c) | (Q(c) | R(c)) assume\n", False),
        ],
    )
    def test_open_assumption_may_rebracket_and_only(self, hypothesis, text, accepted):
        # & is associative in team semantics; | has its own rule, disj_assoc.
        voc = Vocabulary(relations={"P": 1, "Q": 1, "R": 1}, constants={"c"})
        report = check_proof(parse_proof(text, voc), [parse_formula(hypothesis, voc)])
        assert report.accepted == accepted

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


class TestDeepProof:
    """Formulas nested past the recursion limit are compared without
    recursion."""

    N = 3000

    def test_and_elimination_under_deep_negation(self):
        voc = Vocabulary(constants={"c"})
        deep = "~" * self.N + "c = c"
        script = f"1. ({deep}) & c = c assume\n2. {deep} and_e_l 1\n"
        hypotheses = parse_hypotheses(f"({deep}) & c = c\n", voc)
        assert check_proof(parse_proof(script, voc), hypotheses).accepted
        mutant = f"1. ({deep}) & c = c assume\n2. ~{deep} and_e_l 1\n"
        report = check_proof(parse_proof(mutant, voc), hypotheses)
        assert [i for i, _ in report.failures] == [2]


class TestRule7:
    PREMISE = "exists x. forall y. (R(x,y) & P(x) & Q(y))"

    @pytest.mark.parametrize(
        "text",
        [
            "forall y. exists x. (dep(x) & (R(x,y) & P(x) & Q(y)))",
            "forall y. exists x. (dep(x) & R(x,y) & P(x) & Q(y))",
            "forall y. exists x. (dep(x) & (R(x,y) & (P(x) & Q(y))))",
            "forall v. exists x. (dep(x) & R(x,v) & P(x) & Q(v))",
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
            "forall v. exists x. (dep(y,x) & R(x,v) & P(x) & Q(v))",
            "forall v. exists x. (dep(v,x) & R(x,v) & P(x) & Q(v))",
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

    PREMISE = "forall x. exists y. exists z. (dep(x,y) & dep(y,z) & R(y,z))"
    OUTER = (
        "forall x_0. exists y_0. exists z_0. "
        "(R(y_0, z_0) & (forall x_1. exists y_1. exists z_1. "
    )
    GUARDS = "(~(x_0 = x_1) | y_0 = y_1) & (~(y_0 = y_1) | z_0 = z_1)"

    @pytest.mark.parametrize(
        "inner, accepted",
        [
            (f"R(y_1, z_1) & ({GUARDS})", True),
            (f"R(y_1, z_1) & {GUARDS}", True),
            ("R(y_1, z_1) & (~(x_0 = x_1) | y_0 = y_1)", False),
        ],
    )
    def test_conclusion_compared_up_to_bracketing(self, inner, accepted):
        premise = parse_formula(self.PREMISE, VOC_R2PQ)
        conclusion = parse_formula(f"{self.OUTER}({inner})))", VOC_R2PQ)
        report = check_proof(one_step_proof(premise, conclusion, "dep_elim"), [premise])
        assert report.accepted == accepted, report.failures


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

    @pytest.mark.parametrize(
        "text, accepted",
        [
            ("exists b. exists w. (dep(x,b) & dep(x,w) & ((P(b) & Q(b)) | R(w)))", True),
            ("exists b. exists w. (dep(x,b) & dep(x,w) & ((P(w) & Q(b)) | R(w)))", False),
        ],
    )
    def test_block_variables_compared_up_to_renaming(self, text, accepted):
        premise = parse_formula(self.PREMISE, VOC_PQR)
        conclusion = parse_formula(text, VOC_PQR)
        report = check_proof(one_step_proof(premise, conclusion, "dep_distribute"), [premise])
        assert report.accepted == accepted, report.failures


# ---------------------------------------------------------------------------
# Per-rule corpus: for every rule an accepted and a rejected script, one
# violation of each of Conditions 1-4, and wrong premise and discharge
# counts for a rule of each shape (1/0, 2/1, 3/2).  Each case names the steps
# the checker must reject; the rule under test is the script's last step.

VOC_RULES = Vocabulary(
    relations={"P": 1, "Q": 1, "R": 2}, functions={"f": 1}, constants={"c", "d"}
)

OR_E_STEPS = (
    "1. P(c) | Q(d) assume",
    "2. P(c) assume",
    "3. Q(d) | P(c) or_i_r 2",
    "4. Q(d) assume",
    "5. Q(d) | P(c) or_i_l 4",
)
EXISTS_E_STEPS = ("1. exists x. P(x) assume", "2. P(x) assume", "3. exists y. P(y) exists_i 2")
NEG_I_STEPS = ("1. P(c) assume", "2. ~P(c) assume", "3. P(c) & ~P(c) and_i 1 2")
DISJ_SUBST_STEPS = ("1. P(c) | Q(d) assume", "2. Q(d) assume", "3. exists x. Q(x) exists_i 2")
DEP_DISTRIBUTE_PREMISE = "(exists y. (dep(x,y) & P(y))) | (exists w. (dep(x,w) & Q(w)))"
RULE8_PREMISE = "forall x. exists y. (dep(x,y) & R(x,y))"

# (rule, case, script lines, hypotheses, rejected steps)
RULE_CORPUS = [
    ("assume", "accepted", ("1. P(c) assume",), ["P(c)"], set()),
    ("assume", "rejected", ("1. P(c) assume",), [], {1}),
    ("and_i", "accepted", ("1. P(c) assume", "2. Q(d) assume", "3. P(c) & Q(d) and_i 1 2"),
     ["P(c)", "Q(d)"], set()),
    ("and_i", "rejected", ("1. P(c) assume", "2. Q(d) assume", "3. Q(d) & P(c) and_i 1 2"),
     ["P(c)", "Q(d)"], {3}),
    ("and_e_l", "accepted", ("1. P(c) & Q(d) assume", "2. P(c) and_e_l 1"), ["P(c) & Q(d)"], set()),
    ("and_e_l", "rejected", ("1. P(c) & Q(d) assume", "2. Q(d) and_e_l 1"), ["P(c) & Q(d)"], {2}),
    ("and_e_l", "two premises", ("1. P(c) & Q(d) assume", "2. P(c) and_e_l 1 1"),
     ["P(c) & Q(d)"], {2}),
    ("and_e_l", "one discharge", ("1. P(c) & Q(d) assume", "2. P(c) and_e_l 1 discharge 1"),
     [], {2}),
    ("and_e_r", "accepted", ("1. P(c) & Q(d) assume", "2. Q(d) and_e_r 1"), ["P(c) & Q(d)"], set()),
    ("and_e_r", "rejected", ("1. P(c) & Q(d) assume", "2. P(c) and_e_r 1"), ["P(c) & Q(d)"], {2}),
    ("or_i_l", "accepted", ("1. P(c) assume", "2. P(c) | Q(d) or_i_l 1"), ["P(c)"], set()),
    ("or_i_l", "rejected", ("1. P(c) assume", "2. Q(d) | P(c) or_i_l 1"), ["P(c)"], {2}),
    ("or_i_r", "accepted", ("1. P(c) assume", "2. Q(d) | P(c) or_i_r 1"), ["P(c)"], set()),
    ("or_i_r", "rejected", ("1. P(c) assume", "2. P(c) | Q(d) or_i_r 1"), ["P(c)"], {2}),
    ("or_e", "accepted", OR_E_STEPS + ("6. Q(d) | P(c) or_e 1 3 5 discharge 2 4",),
     ["P(c) | Q(d)"], set()),
    ("or_e", "rejected", OR_E_STEPS + ("6. Q(d) | P(c) or_e 1 3 5 discharge 4 2",),
     ["P(c) | Q(d)"], {6}),
    ("or_e", "two premises", OR_E_STEPS + ("6. Q(d) | P(c) or_e 1 3 discharge 2 4",),
     ["P(c) | Q(d)"], {6}),
    ("or_e", "one discharge", OR_E_STEPS + ("6. Q(d) | P(c) or_e 1 3 5 discharge 2",),
     ["P(c) | Q(d)"], {4, 6}),
    ("or_e", "condition 1",
     ("1. P(x) | Q(x) assume", "2. P(x) assume", "3. dep(x) assume", "4. Q(x) assume",
      "5. dep(x) or_e 1 3 3 discharge 2 4"),
     ["P(x) | Q(x)", "dep(x)"], {5}),
    ("neg_i", "accepted", NEG_I_STEPS + ("4. ~P(c) neg_i 3 discharge 1",), ["~P(c)"], set()),
    ("neg_i", "rejected", NEG_I_STEPS + ("4. P(c) neg_i 3 discharge 1",), ["~P(c)"], {4}),
    ("neg_i", "condition 2",
     ("1. dep(x) assume", "2. P(c) assume", "3. ~P(c) assume", "4. P(c) & ~P(c) and_i 2 3",
      "5. P(c) neg_i 4 discharge 1"),
     ["P(c)", "~P(c)"], {5}),
    ("neg_e", "accepted", ("1. ~~P(c) assume", "2. P(c) neg_e 1"), ["~~P(c)"], set()),
    ("neg_e", "rejected", ("1. ~~P(c) assume", "2. ~P(c) neg_e 1"), ["~~P(c)"], {2}),
    ("forall_i", "accepted", ("1. x = x identity", "2. forall x. x = x forall_i 1"), [], set()),
    ("forall_i", "rejected", ("1. x = x identity", "2. forall y. y = y forall_i 1"), [], {2}),
    ("forall_i", "condition 3", ("1. P(x) assume", "2. forall x. P(x) forall_i 1"), ["P(x)"], {2}),
    ("forall_e", "accepted", ("1. forall x. R(x,c) assume", "2. R(f(d),c) forall_e 1"),
     ["forall x. R(x,c)"], set()),
    ("forall_e", "rejected", ("1. forall x. R(x,c) assume", "2. R(d,d) forall_e 1"),
     ["forall x. R(x,c)"], {2}),
    ("forall_e", "shadowed occurrence kept",
     ("1. forall x. (P(x) & exists x. Q(x)) assume", "2. P(c) & exists x. Q(x) forall_e 1"),
     ["forall x. (P(x) & exists x. Q(x))"], set()),
    ("forall_e", "shadowed occurrence replaced",
     ("1. forall x. (P(x) & exists x. Q(x)) assume", "2. P(c) & exists x. Q(c) forall_e 1"),
     ["forall x. (P(x) & exists x. Q(x))"], {2}),
    ("forall_e", "shadowed occurrence first",
     ("1. forall x. ((exists x. Q(x)) & P(x)) assume", "2. (exists x. Q(x)) & P(c) forall_e 1"),
     ["forall x. ((exists x. Q(x)) & P(x))"], set()),
    ("forall_e", "capture",
     ("1. forall x. exists y. R(x,y) assume", "2. exists y. R(y,y) forall_e 1"),
     ["forall x. exists y. R(x,y)"], {2}),
    ("forall_e", "nested terms",
     ("1. forall x. R(x, f(x)) assume", "2. R(f(c), f(f(c))) forall_e 1"),
     ["forall x. R(x, f(x))"], set()),
    ("forall_e", "nested terms disagree",
     ("1. forall x. R(x, f(x)) assume", "2. R(f(c), f(c)) forall_e 1"),
     ["forall x. R(x, f(x))"], {2}),
    ("forall_e", "vacuous", ("1. forall x. P(c) assume", "2. P(c) forall_e 1"),
     ["forall x. P(c)"], set()),
    ("forall_e", "vacuous, other formula", ("1. forall x. P(c) assume", "2. P(d) forall_e 1"),
     ["forall x. P(c)"], {2}),
    ("exists_i", "accepted", ("1. R(c,d) assume", "2. exists x. R(x,d) exists_i 1"), ["R(c,d)"], set()),
    ("exists_i", "rejected", ("1. R(c,d) assume", "2. exists x. R(x,x) exists_i 1"), ["R(c,d)"], {2}),
    ("exists_e", "accepted", EXISTS_E_STEPS + ("4. exists y. P(y) exists_e 1 3 discharge 2",),
     ["exists x. P(x)"], set()),
    ("exists_e", "rejected",
     ("1. exists x. P(x) assume", "2. Q(x) assume", "3. exists y. Q(y) exists_i 2",
      "4. exists y. Q(y) exists_e 1 3 discharge 2"),
     ["exists x. P(x)"], {4}),
    ("exists_e", "one premise", EXISTS_E_STEPS + ("4. exists y. P(y) exists_e 1 discharge 2",),
     ["exists x. P(x)"], {4}),
    ("exists_e", "no discharge", EXISTS_E_STEPS + ("4. exists y. P(y) exists_e 1 3",),
     ["exists x. P(x)"], {2, 4}),
    ("exists_e", "condition 4",
     ("1. exists x. P(x) assume", "2. P(x) assume", "3. Q(x) assume", "4. P(x) & Q(x) and_i 2 3",
      "5. exists y. (P(y) & Q(y)) exists_i 4", "6. exists y. (P(y) & Q(y)) exists_e 1 5 discharge 2"),
     ["exists x. P(x)", "Q(x)"], {6}),
    ("disj_subst", "accepted", DISJ_SUBST_STEPS + ("4. P(c) | exists x. Q(x) disj_subst 1 3 discharge 2",),
     ["P(c) | Q(d)"], set()),
    ("disj_subst", "rejected",
     DISJ_SUBST_STEPS + ("4. (exists x. Q(x)) | P(c) disj_subst 1 3 discharge 2",),
     ["P(c) | Q(d)"], {4}),
    ("disj_comm", "accepted", ("1. P(c) | Q(d) assume", "2. Q(d) | P(c) disj_comm 1"),
     ["P(c) | Q(d)"], set()),
    ("disj_comm", "rejected", ("1. P(c) | Q(d) assume", "2. P(c) | Q(d) disj_comm 1"),
     ["P(c) | Q(d)"], {2}),
    ("disj_assoc", "accepted", ("1. (P(c) | Q(d)) | P(d) assume", "2. P(c) | (Q(d) | P(d)) disj_assoc 1"),
     ["(P(c) | Q(d)) | P(d)"], set()),
    ("disj_assoc", "rejected", ("1. (P(c) | Q(d)) | P(d) assume", "2. (P(c) | Q(d)) | P(d) disj_assoc 1"),
     ["(P(c) | Q(d)) | P(d)"], {2}),
    ("scope_forall", "accepted",
     ("1. (forall x. P(x)) | Q(c) assume", "2. forall x. (P(x) | Q(c)) scope_forall 1"),
     ["(forall x. P(x)) | Q(c)"], set()),
    ("scope_forall", "rejected",
     ("1. (forall x. P(x)) | Q(x) assume", "2. forall x. (P(x) | Q(x)) scope_forall 1"),
     ["(forall x. P(x)) | Q(x)"], {2}),
    ("scope_exists", "accepted",
     ("1. (exists x. P(x)) | Q(c) assume", "2. exists x. (P(x) | Q(c)) scope_exists 1"),
     ["(exists x. P(x)) | Q(c)"], set()),
    ("scope_exists", "rejected",
     ("1. (exists x. P(x)) | Q(c) assume", "2. forall x. (P(x) | Q(c)) scope_exists 1"),
     ["(exists x. P(x)) | Q(c)"], {2}),
    ("unnest", "accepted", ("1. dep(f(x), y) assume", "2. exists z. (dep(z, y) & z = f(x)) unnest 1"),
     ["dep(f(x), y)"], set()),
    ("unnest", "rejected", ("1. dep(f(x), y) assume", "2. exists z. (dep(z, y) & z = x) unnest 1"),
     ["dep(f(x), y)"], {2}),
    ("unnest", "variable not fresh",
     ("1. dep(f(x), y) assume", "2. exists x. (dep(x, y) & x = f(x)) unnest 1"),
     ["dep(f(x), y)"], {2}),
    ("unnest", "two positions replaced",
     ("1. dep(f(x), f(x)) assume", "2. exists z. (dep(z, z) & z = f(x)) unnest 1"),
     ["dep(f(x), f(x))"], {2}),
    ("dep_distribute", "accepted",
     (f"1. {DEP_DISTRIBUTE_PREMISE} assume",
      "2. exists y. exists w. (dep(x,y) & dep(x,w) & (P(y) | Q(w))) dep_distribute 1"),
     [DEP_DISTRIBUTE_PREMISE], set()),
    ("dep_distribute", "rejected",
     (f"1. {DEP_DISTRIBUTE_PREMISE} assume",
      "2. exists y. exists w. (dep(x,y) & dep(w) & (P(y) | Q(w))) dep_distribute 1"),
     [DEP_DISTRIBUTE_PREMISE], {2}),
    ("dep_intro", "accepted",
     ("1. exists x. forall y. (R(x,y) | P(z)) assume",
      "2. forall y. exists x. (dep(z,x) & (R(x,y) | P(z))) dep_intro 1"),
     ["exists x. forall y. (R(x,y) | P(z))"], set()),
    ("dep_intro", "context in any order",
     ("1. exists x. forall y. (R(x,u) & R(y,v)) assume",
      "2. forall y. exists x. (dep(v,u,x) & R(x,u) & R(y,v)) dep_intro 1"),
     ["exists x. forall y. (R(x,u) & R(y,v))"], set()),
    ("dep_intro", "rejected",
     ("1. exists x. forall y. (R(x,y) | P(z)) assume",
      "2. forall y. exists x. (dep(y,x) & (R(x,y) | P(z))) dep_intro 1"),
     ["exists x. forall y. (R(x,y) | P(z))"], {2}),
    ("dep_intro", "premise shape",
     ("1. forall y. exists x. R(x,y) assume",
      "2. forall y. exists x. (dep(x) & R(x,y)) dep_intro 1"),
     ["forall y. exists x. R(x,y)"], {2}),
    # A conclusion whose matrix is no conjunction is rejected, not read as one.
    *[
        ("dep_intro", f"matrix {body}",
         ("1. exists x. forall y. R(x,y) assume", f"2. forall y. exists x. {body} dep_intro 1"),
         ["exists x. forall y. R(x,y)"], {2})
        for body in ("P(x)", "x = y", "dep(x)", "(dep(x) | R(x,y))")
    ],
    ("dep_elim", "accepted",
     (f"1. {RULE8_PREMISE} assume",
      "2. forall u. exists v. (R(u,v) & forall w. exists z. (R(w,z) & (~(u = w) | v = z))) dep_elim 1"),
     [RULE8_PREMISE], set()),
    ("dep_elim", "rejected",
     (f"1. {RULE8_PREMISE} assume",
      "2. forall u. exists v. (R(u,v) & forall w. exists z. R(w,z)) dep_elim 1"),
     [RULE8_PREMISE], {2}),
    ("identity", "reflexivity", ("1. f(c) = f(c) identity",), [], set()),
    ("identity", "symmetry", ("1. c = d assume", "2. d = c identity 1"), ["c = d"], set()),
    ("identity", "transitivity", ("1. c = d assume", "2. d = f(c) assume", "3. c = f(c) identity 1 2"),
     ["c = d", "d = f(c)"], set()),
    ("identity", "congruence", ("1. c = d assume", "2. R(c,c) assume", "3. R(d,c) identity 1 2"),
     ["c = d", "R(c,c)"], set()),
    ("identity", "rejected", ("1. c = d assume", "2. P(c) assume", "3. Q(d) identity 1 2"),
     ["c = d", "P(c)"], {3}),
    # The identity axioms discharge nothing; both scripts were accepted
    # with no hypotheses when only a zero-premise step's discharges counted.
    ("identity", "symmetry discharging its premise",
     ("1. c = d assume", "2. d = c identity 1 discharge 1"), [], {2}),
    ("identity", "congruence discharging its premises",
     ("1. c = d assume", "2. P(c) assume", "3. P(d) identity 1 2 discharge 1 2"), [], {3}),
]


def corpus_params(cases):
    return [
        pytest.param(rule, "\n".join(lines) + "\n", hyps, rejected, id=f"{rule}-{case}")
        for rule, case, lines, hyps, rejected in cases
    ]


@pytest.mark.parametrize("rule, script, hypotheses, rejected", corpus_params(RULE_CORPUS))
def test_rule_corpus(rule, script, hypotheses, rejected):
    proof = parse_proof(script, VOC_RULES)
    assert proof.steps[-1].rule == rule
    report = check_proof(proof, [parse_formula(h, VOC_RULES) for h in hypotheses])
    assert {i for i, _ in report.failures} == rejected, report.failures


def test_corpus_covers_every_rule():
    accepted = {rule for rule, _, _, _, rejected in RULE_CORPUS if not rejected}
    rejected = {rule for rule, _, _, _, rejected in RULE_CORPUS if rejected}
    assert accepted == rejected == RULES


# Rules whose instances are inferences from their premises alone: `assume`
# has none, and or_e, neg_i, exists_e, disj_subst and forall_i discharge an
# assumption or carry an eigenvariable condition.
NOT_LOCAL = {"assume", "or_e", "neg_i", "exists_e", "disj_subst", "forall_i"}


@pytest.mark.parametrize(
    "rule, script, hypotheses, rejected",
    corpus_params(c for c in RULE_CORPUS if not c[4] and c[0] not in NOT_LOCAL),
)
def test_accepted_rule_instance_is_sound(rule, script, hypotheses, rejected):
    proof = parse_proof(script, VOC_RULES)
    step = proof.steps[-1]
    premises = [proof.step(i).formula for i in step.premises]
    assert entails_on_small_models(premises, step.formula, max_size=2)


@pytest.mark.parametrize(
    "premises, conclusion",
    [
        (["P(c)"], "Q(c)"),
        (["forall y. exists x. R(x,y)"], "exists x. forall y. R(x,y)"),
        ([], "dep(x)"),
        (["exists x. R(x,y)"], "exists x. (dep(x) & R(x,y))"),
    ],
)
def test_entailment_check_finds_counterexamples(premises, conclusion):
    parse = lambda text: parse_formula(text, VOC_RULES)
    assert not entails_on_small_models([parse(p) for p in premises], parse(conclusion))


# ---------------------------------------------------------------------------
# Whole gadgets of the benchmark's proof generator, `bench/proofgen.py`.
# Each is a correct derivation whose undischarged assumptions are its
# hypotheses, and those must entail its conclusion.  This covers or_e, neg_i,
# exists_e, disj_subst and forall_i, which the single-step property skips.

# `bench/` goes last on the path, so that its modules shadow no other.
sys.path.append(str(Path(__file__).resolve().parent.parent / "bench"))
import proofgen  # noqa: E402
from inputs import VOCAB_TEXT  # noqa: E402
from oracle import text  # noqa: E402


def gadget_script(gadget):
    """The script of one gadget, with 1-based step numbers, and its
    hypotheses: the assumptions that no step of it discharges."""
    discharged = {d for *_, ds in gadget.steps for d in ds}
    lines, hypotheses = [], []
    for i, (formula, rule, premises, ds) in enumerate(gadget.steps):
        refs = "".join(f" {p + 1}" for p in premises)
        refs += " discharge" + "".join(f" {d + 1}" for d in ds) if ds else ""
        lines.append(f"{i + 1}. {text(formula)} {rule}{refs}")
        if rule == "assume" and i not in discharged:
            hypotheses.append(text(formula))
    return "\n".join(lines) + "\n", "\n".join(hypotheses) + "\n"


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("gadget", proofgen.GADGETS, ids=lambda g: g.__name__)
def test_gadget_is_accepted_and_sound(gadget, seed):
    g = gadget(random.Random(seed))
    script, hypotheses_text = gadget_script(g)
    voc = parse_vocabulary(VOCAB_TEXT)
    proof = parse_proof(script, voc)
    hypotheses = parse_hypotheses(hypotheses_text, voc)
    assert len(proof.steps) == len(g.steps)
    report = check_proof(proof, hypotheses)
    assert report.accepted, report.failures
    assert entails_on_small_models(hypotheses, proof.conclusion, max_size=2)
