"""Dependence-logic workbench.

Parse formulas, evaluate them over finite models under team semantics,
transform sentences into universal-existential normal form, build the
first-order approximations of the unrolled quantifier game, and check
natural-deduction proofs.
"""

from .syntax import (
    And,
    Apply,
    CaptureError,
    Const,
    Dep,
    Eq,
    Exists,
    Forall,
    Formula,
    NegationScopeError,
    Not,
    Or,
    Rel,
    Term,
    Var,
    Vocabulary,
    VocabularyError,
    free_vars,
    fresh_variable,
    infer_vocabulary,
    is_first_order,
    is_sentence,
    substitute,
)
from .diagnostics import Diagnostic, ParseError, Span
from .semantics import (
    Assignment,
    BudgetExceededError,
    Counterexample,
    EquivResult,
    Model,
    SearchBudget,
    Team,
    equiv_on_small_models,
    satisfies,
    sentence_true,
)
from .normalform import (
    NormalFormError,
    NormalFormSentence,
    ShapeError,
    hoist_dep_atoms,
    match_normal_form,
    preprocess,
    pull_existentials_left,
    reassemble,
    to_normal_form,
    to_prenex,
)
from .approximation import (
    GuardSet,
    approximation_chain_check,
    build_approximation,
    build_guard_set,
    build_omega,
)
from .proofs import (
    CheckReport,
    Proof,
    ProofStep,
    RULES,
    RuleSchemaError,
    apply_rule7,
    apply_rule8,
    check_proof,
)
from .surface import (
    format_model,
    format_team,
    parse_formula,
    parse_hypotheses,
    parse_model,
    parse_proof,
    parse_team,
    parse_vocabulary,
    print_formula,
)

__all__ = [name for name in dir() if not name.startswith("_")]
