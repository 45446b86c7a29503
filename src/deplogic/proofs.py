"""Natural-deduction proof checking for dependence logic.

Proofs are linear scripts: numbered steps carrying a formula, a rule tag,
premise references, and the assumption steps the rule discharges.  The
checker tracks which assumptions every step's derivation rests on and
enforces the side conditions of the introduction/elimination rules, the
disjunction and scope rules, unnesting, dependence distribution,
dependence introduction/elimination, and the identity axioms.

The table `_RULES` at the end of the module is the one place that defines
a rule: how many premises it cites, how many assumptions it discharges,
and the checker for the rest of its shape.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Optional, Sequence

from .diagnostics import Diagnostic
from .syntax import (
    And,
    Apply,
    Dep,
    Eq,
    Exists,
    Forall,
    Formula,
    Not,
    Or,
    Term,
    Var,
    aligned_terms,
    alpha_equal,
    alpha_key,
    all_vars,
    free_vars,
    is_first_order,
    nest_right,
    strip_prefix,
    substitute,
    term_vars,
    CaptureError,
)
from .normalform import DepAtomSpec, ShapeError, match_normal_form, split_dep_atoms
from .approximation import build_approximation


class RuleSchemaError(Exception):
    """A forward rule application does not match the rule's premise schema."""


@dataclass(frozen=True)
class ProofStep:
    index: int
    formula: Formula
    rule: str
    premises: tuple[int, ...] = ()
    discharged: tuple[int, ...] = ()


@dataclass(frozen=True)
class Proof:
    steps: tuple[ProofStep, ...]
    _position: dict[int, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "steps", tuple(self.steps))
        if not self.steps:
            raise ValueError("a proof needs at least one step")
        position: dict[int, int] = {}
        for pos, step in enumerate(self.steps):
            if step.index in position:
                raise ValueError(f"duplicate step index {step.index}")
            position[step.index] = pos
        object.__setattr__(self, "_position", position)

    @property
    def conclusion(self) -> Formula:
        return self.steps[-1].formula

    def step(self, index: int) -> ProofStep:
        return self.steps[self._position[index]]


@dataclass(frozen=True)
class CheckReport:
    verdict: str  # "accepted" | "rejected"
    failures: tuple[tuple[int, Diagnostic], ...] = ()

    @property
    def accepted(self) -> bool:
        return self.verdict == "accepted"


# ---------------------------------------------------------------------------
# Forward rule application

def apply_rule7(premise: Formula) -> Formula:
    """Dependence introduction: exists x forall y A becomes
    forall y exists x (dep(z..., x) & A), z... the free variables of A
    other than x and y, sorted by name."""
    if not isinstance(premise, Exists) or not isinstance(premise.body, Forall):
        raise RuleSchemaError("premise must have shape exists x forall y A")
    x = premise.var
    y = premise.body.var
    body = premise.body.body
    context = sorted(free_vars(body) - {x, y})
    atom = Dep(tuple(Var(v) for v in context) + (Var(x),))
    return Forall(y, Exists(x, And(atom, body)))


def apply_rule8(premise: Formula) -> Formula:
    """Dependence elimination: a normal-form premise yields the two-round
    first-order unrolling with uniformity guards (the second approximation)."""
    try:
        nf = match_normal_form(premise)
    except ShapeError as e:
        raise RuleSchemaError(f"premise does not match the rule-8 schema: {e}") from e
    if not nf.universals:
        raise RuleSchemaError("rule 8 needs a leading universal block")
    return build_approximation(nf, 2)


# ---------------------------------------------------------------------------
# Checking infrastructure

@dataclass
class _Analysis:
    deps: dict[int, frozenset[int]]  # step index -> open assumptions used
    discharged_at: dict[int, int]  # assumption index -> discharging step
    structural: list[tuple[int, Diagnostic]]


def _analyze(proof: Proof) -> _Analysis:
    position = proof._position
    deps: dict[int, frozenset[int]] = {}
    discharged_at: dict[int, int] = {}
    structural: list[tuple[int, Diagnostic]] = []

    for pos, step in enumerate(proof.steps):
        problems = []
        for ref in step.premises + step.discharged:
            if ref not in position:
                problems.append(f"reference to missing step {ref}")
            elif position[ref] >= pos:
                problems.append(f"reference to step {ref} does not point backwards")
        if step.rule == "assume" and (step.premises or step.discharged):
            problems.append("assumptions take no premises and discharge nothing")
        if problems:
            for p in problems:
                structural.append((step.index, Diagnostic(p)))
            deps[step.index] = frozenset()
            continue

        if step.rule == "assume":
            deps[step.index] = frozenset((step.index,))
            continue

        used: set[int] = set()
        for ref in step.premises:
            for assumption in deps.get(ref, frozenset()):
                closer = discharged_at.get(assumption)
                if closer is not None:
                    structural.append(
                        (
                            step.index,
                            Diagnostic(
                                f"premise {ref} relies on assumption {assumption}, "
                                f"already discharged at step {closer}"
                            ),
                        )
                    )
                else:
                    used.add(assumption)

        for d in step.discharged:
            target = proof.step(d)
            if target.rule != "assume":
                structural.append(
                    (step.index, Diagnostic(f"step {d} is not an assumption"))
                )
                continue
            if d in discharged_at:
                closer = discharged_at[d]
                structural.append(
                    (
                        step.index,
                        Diagnostic(
                            f"the step discharges assumption {d} twice"
                            if closer == step.index
                            else f"assumption {d} was already discharged at step {closer}"
                        ),
                    )
                )
                continue
            discharged_at[d] = step.index
            used.discard(d)

        deps[step.index] = frozenset(used)

    return _Analysis(deps, discharged_at, structural)


def check_proof(proof: Proof, allowed_open: Sequence[Formula]) -> CheckReport:
    """Check every step and the final set of open assumptions."""
    analysis = _analyze(proof)
    failures: list[tuple[int, Diagnostic]] = list(analysis.structural)
    bad_structurally = {i for i, _ in analysis.structural}
    for step in proof.steps:
        if step.index in bad_structurally:
            continue
        for message in _check_rule(proof, step, analysis):
            failures.append((step.index, Diagnostic(message)))

    hypotheses = {alpha_key(h) for h in allowed_open}
    for step in proof.steps:
        if step.rule != "assume" or step.index in analysis.discharged_at:
            continue
        if alpha_key(step.formula) not in hypotheses:
            failures.append(
                (
                    step.index,
                    Diagnostic("assumption is still open and not among the hypotheses"),
                )
            )

    failures.sort(key=lambda pair: pair[0])
    verdict = "accepted" if not failures else "rejected"
    return CheckReport(verdict, tuple(failures))


# ---------------------------------------------------------------------------
# Per-rule checks.  `_check_rule` checks a step's premise and discharge counts
# against its row in `_RULES`, then calls the row's checker with the step's
# conclusion, the formulas of its premises and of its discharged assumptions
# in the order cited, and ctx = (proof, step, analysis).  A checker returns a
# list of problem messages and never counts premises or discharges itself.

def _check_rule(proof: Proof, step: ProofStep, analysis: _Analysis) -> list[str]:
    row = _RULES.get(step.rule)
    if row is None:
        return [f"unknown rule {step.rule!r}"]
    premises, discharged, checker = row
    if checker is None:
        return []  # an assumption, checked by `_analyze`
    if premises is not None and len(step.premises) != premises:
        return [f"rule {step.rule} expects {premises} premise(s), got {len(step.premises)}"]
    if len(step.discharged) != discharged:
        return [
            f"rule {step.rule} discharges {discharged} assumption(s), "
            f"got {len(step.discharged)}"
        ]
    return checker(
        step.formula,
        [proof.step(i).formula for i in step.premises],
        [proof.step(i).formula for i in step.discharged],
        (proof, step, analysis),
    )


def _rests_on(ctx, k: int) -> frozenset[int]:
    """The open assumptions that the step's k-th premise rests on."""
    _, step, analysis = ctx
    return analysis.deps.get(step.premises[k], frozenset())


def _free_in_open(x: str, ctx, k: int, condition: int) -> list[str]:
    """Conditions 3 and 4: x may not be free in an open assumption that the
    k-th premise rests on, other than those the step discharges."""
    proof, step, _ = ctx
    return [
        f"Condition {condition}: {x} is free in open assumption {a}"
        for a in sorted(_rests_on(ctx, k) - set(step.discharged))
        if x in free_vars(proof.step(a).formula)
    ]


def _check_and_i(c, ps, ds, ctx):
    if c != And(*ps):
        return ["conclusion is not the conjunction of the premises in order"]
    return []


def _check_and_e(side, c, ps, ds, ctx):
    (p,) = ps
    if not isinstance(p, And) or c != getattr(p, side):
        return [f"conclusion is not the {side} conjunct of the premise"]
    return []


def _check_or_i(side, c, ps, ds, ctx):
    if not isinstance(c, Or) or getattr(c, side) != ps[0]:
        return [f"conclusion must be a disjunction whose {side} disjunct is the premise"]
    return []


def _check_or_e(c, ps, ds, ctx):
    disj, c1, c2 = ps
    if not isinstance(disj, Or):
        return ["first premise must be a disjunction"]
    problems = []
    if ds[0] != disj.left:
        problems.append("first discharged assumption must be the left disjunct")
    if ds[1] != disj.right:
        problems.append("second discharged assumption must be the right disjunct")
    if c1 != c or c2 != c:
        problems.append("both subderivations must conclude the step's formula")
    if not is_first_order(c):
        problems.append("Condition 1: the conclusion must be first-order")
    a_idx, b_idx = ctx[1].discharged
    if b_idx in _rests_on(ctx, 1):
        problems.append(
            "the left subderivation may not use the right disjunct's assumption"
        )
    if a_idx in _rests_on(ctx, 2):
        problems.append(
            "the right subderivation may not use the left disjunct's assumption"
        )
    return problems


def _check_neg_i(c, ps, ds, ctx):
    (contradiction,), (assumption,) = ps, ds
    problems = []
    if not (
        isinstance(contradiction, And)
        and isinstance(contradiction.right, Not)
        and contradiction.right.body == contradiction.left
    ):
        problems.append("premise must have shape B & ~B")
    if not is_first_order(assumption):
        problems.append("Condition 2: the discharged assumption must be first-order")
        return problems
    if c != Not(assumption):
        problems.append("conclusion must be the negation of the discharged assumption")
    return problems


def _check_neg_e(c, ps, ds, ctx):
    (p,) = ps
    if not (isinstance(p, Not) and isinstance(p.body, Not)):
        return ["premise must be a double negation"]
    if c != p.body.body:
        return ["conclusion must be the doubly negated formula"]
    return []


def _check_forall_i(c, ps, ds, ctx):
    if not isinstance(c, Forall) or c.body != ps[0]:
        return ["conclusion must universally quantify the premise"]
    return _free_in_open(c.var, ctx, 0, 3)


def _instantiation_term(
    template: Formula, instance: Formula, x: str
) -> tuple[bool, Optional[Term]]:
    """Find the unique term t with template(t/x) == instance, if any."""
    witness: list[Term] = []

    def terms(a: Term, b: Term, shadowed: bool) -> bool:
        if isinstance(a, Var) and a.name == x and not shadowed:
            if not witness:
                witness.append(b)
            return witness[0] == b
        if isinstance(a, Apply) and isinstance(b, Apply) and a.func == b.func:
            return len(a.args) == len(b.args) and all(
                terms(s, t, shadowed) for s, t in zip(a.args, b.args)
            )
        return a == b

    pairs = aligned_terms(template, instance)
    ok = pairs is not None and all(terms(s, t, x in bound) for s, t, bound in pairs)
    return ok, (witness[0] if witness else None)


def _check_instantiation(template: Formula, x: str, instance: Formula) -> list[str]:
    ok, t = _instantiation_term(template, instance, x)
    if not ok:
        return ["formulas do not differ by a substitution for the quantified variable"]
    if t is None:
        return []  # x not free; instance equals template
    try:
        if substitute(template, t, x) != instance:
            return ["substitution check failed"]
    except CaptureError:
        return ["a variable of the substituted term would become bound"]
    return []


def _check_forall_e(c, ps, ds, ctx):
    (p,) = ps
    if not isinstance(p, Forall):
        return ["premise must be universally quantified"]
    return _check_instantiation(p.body, p.var, c)


def _check_exists_i(c, ps, ds, ctx):
    if not isinstance(c, Exists):
        return ["conclusion must be existentially quantified"]
    return _check_instantiation(c.body, c.var, ps[0])


def _check_exists_e(c, ps, ds, ctx):
    ex, body_conclusion = ps
    if not isinstance(ex, Exists):
        return ["first premise must be existentially quantified"]
    x = ex.var
    problems = []
    if ds[0] != ex.body:
        problems.append("discharged assumption must be the quantified body")
    if c != body_conclusion:
        problems.append("conclusion must equal the second premise")
    if x in free_vars(c):
        problems.append(f"Condition 4: {x} is free in the conclusion")
    return problems + _free_in_open(x, ctx, 1, 4)


def _check_disj_subst(c, ps, ds, ctx):
    disj, derived = ps
    if not isinstance(disj, Or):
        return ["first premise must be a disjunction"]
    problems = []
    if ds[0] != disj.right:
        problems.append("the discharged assumption must be the right disjunct")
    if c != Or(disj.left, derived):
        problems.append("conclusion must replace the right disjunct by the derived formula")
    return problems


def _check_disj_comm(c, ps, ds, ctx):
    (p,) = ps
    if not isinstance(p, Or) or c != Or(p.right, p.left):
        return ["conclusion must be the premise with disjuncts swapped"]
    return []


def _check_disj_assoc(c, ps, ds, ctx):
    (p,) = ps
    if (
        not isinstance(p, Or)
        or not isinstance(p.left, Or)
        or c != Or(p.left.left, Or(p.left.right, p.right))
    ):
        return ["conclusion must reassociate (A | B) | C to A | (B | C)"]
    return []


def _check_scope(quant, c, ps, ds, ctx):
    (p,) = ps
    if not (isinstance(p, Or) and isinstance(p.left, quant)):
        return ["premise must be a disjunction with a quantified left disjunct"]
    x = p.left.var
    if x in free_vars(p.right):
        return [f"scope extension requires {x} not free in the right disjunct"]
    if c != quant(x, Or(p.left.body, p.right)):
        return ["conclusion must extend the quantifier scope over the disjunction"]
    return []


def _check_unnest(c, ps, ds, ctx):
    (p,) = ps
    if not isinstance(p, Dep) or not p.args:
        return ["premise must be a non-empty dependence atom"]
    if not (
        isinstance(c, Exists)
        and isinstance(c.body, And)
        and isinstance(c.body.left, Dep)
        and isinstance(c.body.right, Eq)
    ):
        return ["conclusion must have shape exists z (dep(...) & z = t)"]
    z = c.var
    atom = c.body.left
    eq = c.body.right
    if eq.left != Var(z):
        return ["the equation must bind the fresh variable on the left"]
    if len(atom.args) != len(p.args):
        return ["unnesting must preserve the atom's arity"]
    replaced = [i for i, (a, b) in enumerate(zip(atom.args, p.args)) if a != b]
    if len(replaced) != 1:
        return ["exactly one argument position must be replaced"]
    i = replaced[0]
    if atom.args[i] != Var(z) or eq.right != p.args[i]:
        return ["the replaced argument must become the fresh variable, equated to it"]
    if any(z in term_vars(t) for t in p.args):
        return ["the introduced variable must be new to the atom"]
    return []


def _parse_dep_block(phi: Formula) -> tuple[list[str], list[DepAtomSpec], Formula]:
    """Split exists y1..yn (dep-atoms & core); requires one atom per bound
    variable, each determining its variable, core without dependence atoms."""
    prefix, body = strip_prefix(phi, Exists)
    bound = [v for _, v in prefix]
    try:
        atoms, core = split_dep_atoms(body)
    except ShapeError as e:
        raise RuleSchemaError(str(e)) from e
    if len(atoms) != len(bound):
        raise RuleSchemaError("expected one dependence atom per quantifier")
    for y, (_, determined) in zip(bound, atoms):
        if determined != y:
            raise RuleSchemaError(f"atom does not determine its quantifier {y}")
    return bound, atoms, core


def _check_dep_distribute(c, ps, ds, ctx):
    (p,) = ps
    if not isinstance(p, Or):
        return ["premise must be a disjunction"]
    try:
        ys_a, atoms_a, core_a = _parse_dep_block(p.left)
        ys_b, atoms_b, core_b = _parse_dep_block(p.right)
    except RuleSchemaError as e:
        return [str(e)]
    problems = []
    if set(ys_a) & all_vars(p.right):
        problems.append("left block variables may not appear in the right disjunct")
    if set(ys_b) & all_vars(p.left):
        problems.append("right block variables may not appear in the left disjunct")
    try:
        conclusion = _parse_dep_block(nest_right(c))
    except RuleSchemaError:
        conclusion = None
    if conclusion != (ys_a + ys_b, atoms_a + atoms_b, nest_right(Or(core_a, core_b))):
        problems.append("conclusion does not match the distributed form")
    return problems


def _rule7_normal(phi: Formula) -> Formula:
    """phi with every & chain nested to the right and, when it has the shape
    forall y exists x (dep(z..., x) & A), the context z... in a fixed order:
    the order of a dependence atom's context does not change its meaning."""
    phi = nest_right(phi)
    if isinstance(phi, Forall) and isinstance(phi.body, Exists):
        inner = phi.body.body
        if isinstance(inner, And) and isinstance(inner.left, Dep) and inner.left.args:
            *context, x = inner.left.args
            atom = Dep(tuple(sorted(context, key=repr)) + (x,))
            return Forall(phi.var, Exists(phi.body.var, And(atom, inner.right)))
    return phi


def _check_dep_intro(c, ps, ds, ctx):
    try:
        expected = apply_rule7(ps[0])
    except RuleSchemaError as e:
        return [str(e)]
    if _rule7_normal(c) != _rule7_normal(expected):
        return ["conclusion differs from rule 7 applied to the premise"]
    return []


def _check_dep_elim(c, ps, ds, ctx):
    try:
        expected = apply_rule8(ps[0])
    except RuleSchemaError as e:
        return [str(e)]
    if not alpha_equal(c, expected):
        return ["conclusion differs from the guard-set unrolling of the premise"]
    return []


def _rewrites_to(a: Formula, b: Formula, t1: Term, t2: Term) -> bool:
    """b arises from a by replacing some whole-subterm occurrences of t1
    by t2; under binders only when the binder does not touch t1 or t2."""

    def rt(x: Term, y: Term) -> bool:
        if x == y:
            return True
        if x == t1 and y == t2:
            return True
        if isinstance(x, Apply) and isinstance(y, Apply):
            return (
                x.func == y.func
                and len(x.args) == len(y.args)
                and all(rt(s, t) for s, t in zip(x.args, y.args))
            )
        return False

    touched = term_vars(t1) | term_vars(t2)
    pairs = aligned_terms(a, b)
    return pairs is not None and all(
        s == t if touched.intersection(bound) else rt(s, t) for s, t, bound in pairs
    )


def _check_identity(c, ps, ds, ctx):
    if not ps:
        if isinstance(c, Eq) and c.left == c.right:
            return []
        return ["a zero-premise identity step must conclude t = t"]
    if len(ps) == 1:
        (p,) = ps
        if isinstance(p, Eq) and c == Eq(p.right, p.left):
            return []
        return ["a one-premise identity step must conclude symmetry"]
    if len(ps) == 2:
        p1, p2 = ps
        if (
            isinstance(p1, Eq)
            and isinstance(p2, Eq)
            and isinstance(c, Eq)
            and p1.right == p2.left
            and c == Eq(p1.left, p2.right)
        ):
            return []
        if isinstance(p1, Eq) and is_first_order(p2) and is_first_order(c):
            if _rewrites_to(p2, c, p1.left, p1.right):
                return []
            return [
                "conclusion does not arise from the second premise by "
                "replacing occurrences of the equated term"
            ]
        return ["two-premise identity steps are transitivity or congruence"]
    return ["identity steps take at most two premises"]


# The rule table, the one place that defines the shape of a rule: each row
# is (premises cited, or None for identity, which takes 0, 1 or 2; assumptions
# discharged; checker).  A mirrored pair of rules shares one checker,
# parameterised here.  `assume` has no checker: `_analyze` checks assumptions.
_RULES = {
    "assume": (0, 0, None),
    "and_i": (2, 0, _check_and_i),
    "and_e_l": (1, 0, partial(_check_and_e, "left")),
    "and_e_r": (1, 0, partial(_check_and_e, "right")),
    "or_i_l": (1, 0, partial(_check_or_i, "left")),
    "or_i_r": (1, 0, partial(_check_or_i, "right")),
    "or_e": (3, 2, _check_or_e),
    "neg_i": (1, 1, _check_neg_i),
    "neg_e": (1, 0, _check_neg_e),
    "forall_i": (1, 0, _check_forall_i),
    "forall_e": (1, 0, _check_forall_e),
    "exists_i": (1, 0, _check_exists_i),
    "exists_e": (2, 1, _check_exists_e),
    "disj_subst": (2, 1, _check_disj_subst),
    "disj_comm": (1, 0, _check_disj_comm),
    "disj_assoc": (1, 0, _check_disj_assoc),
    "scope_forall": (1, 0, partial(_check_scope, Forall)),
    "scope_exists": (1, 0, partial(_check_scope, Exists)),
    "unnest": (1, 0, _check_unnest),
    "dep_distribute": (1, 0, _check_dep_distribute),
    "dep_intro": (1, 0, _check_dep_intro),
    "dep_elim": (1, 0, _check_dep_elim),
    "identity": (None, 0, _check_identity),
}

RULES = frozenset(_RULES)
