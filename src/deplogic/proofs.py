"""Natural-deduction proof checking for dependence logic.

Proofs are linear scripts: numbered steps carrying a formula, a rule tag,
premise references, and the assumption steps the rule discharges.  The
checker takes a script in a single forward pass.  At each step it checks
the references and discharges, records which assumptions the step's
derivation rests on, and enforces the side conditions of its rule: the
introduction/elimination rules, the disjunction and scope rules, unnesting,
dependence distribution, dependence introduction/elimination, and the
identity axioms.

Where the kernel can compute a rule's conclusion, it builds it with the
program's own functions and compares once: forall_e and exists_i through
`substitute`, unnest by building the unnesting at each argument position.
dep_intro, dep_elim and dep_distribute accept their built conclusion up to
the names of bound variables and the bracketing of &, and dep_intro also up
to the order of the dependence atom's context.  The other rules compare
exactly, all through `syntax.identical`, which does not recurse.  An
assumption left open must match a hypothesis up to the names of bound
variables and the bracketing of &; the bracketing of | stays significant,
since disj_assoc is its own rule.

The table `_RULES` at the end of the module is the one place that defines
a rule: how many premises it cites, how many assumptions it discharges,
and the checker for the rest of its shape.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Sequence

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
    Prefix,
    Term,
    Var,
    aligned_terms,
    alpha_key,
    all_vars,
    conjoin,
    conjuncts,
    free_vars,
    identical,
    is_first_order,
    operands,
    quantify,
    strip_prefix,
    substitute,
    term_vars,
    walk_term,
    CaptureError,
)
from .normalform import ShapeError, match_normal_form, split_dep_atoms
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
    failures: tuple[tuple[int, Diagnostic], ...] = ()

    @property
    def accepted(self) -> bool:
        return not self.failures

    @property
    def verdict(self) -> str:
        return "accepted" if self.accepted else "rejected"


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
# Checking

def check_proof(proof: Proof, allowed_open: Sequence[Formula]) -> CheckReport:
    """Check every step and the final set of open assumptions.

    A single forward pass checks each step's references and discharges,
    records the open assumptions it rests on and, unless it has a
    structural problem, checks it against its rule.  dep_intro, dep_elim
    and dep_distribute accept their computed conclusion up to the names of
    bound variables and the bracketing of & (dep_intro also up to the order
    of the atom's context); the other rules compare exactly.  An open
    assumption must match one of allowed_open up to the names of bound
    variables and the bracketing of &.
    """
    position = proof._position
    deps: dict[int, frozenset[int]] = {}  # step index -> open assumptions used
    discharged_at: dict[int, int] = {}  # assumption index -> discharging step
    failures: list[tuple[int, Diagnostic]] = []

    for pos, step in enumerate(proof.steps):
        problems = []
        for ref in step.premises + step.discharged:
            if ref not in position:
                problems.append(f"reference to missing step {ref}")
            elif position[ref] >= pos:
                problems.append(f"reference to step {ref} does not point backwards")
        if step.rule == "assume" and (step.premises or step.discharged):
            problems.append("assumptions take no premises and discharge nothing")

        used: set[int] = set()
        if step.rule == "assume" and not problems:
            used.add(step.index)
        elif not problems:
            for ref in step.premises:
                for assumption in deps[ref]:
                    closer = discharged_at.get(assumption)
                    if closer is None:
                        used.add(assumption)
                    else:
                        problems.append(
                            f"premise {ref} relies on assumption {assumption}, "
                            f"already discharged at step {closer}"
                        )
            for d in step.discharged:
                closer = discharged_at.get(d)
                if proof.step(d).rule != "assume":
                    problems.append(f"step {d} is not an assumption")
                elif closer is not None:
                    problems.append(
                        f"the step discharges assumption {d} twice"
                        if closer == step.index
                        else f"assumption {d} was already discharged at step {closer}"
                    )
                else:
                    discharged_at[d] = step.index
                    used.discard(d)
            problems = problems or _check_rule(proof, step, deps)
        deps[step.index] = frozenset(used)
        failures += [(step.index, Diagnostic(p)) for p in problems]

    hypotheses = {alpha_key(h) for h in allowed_open}
    failures += [
        (step.index, Diagnostic("assumption is still open and not among the hypotheses"))
        for step in proof.steps
        if step.rule == "assume"
        and step.index not in discharged_at
        and alpha_key(step.formula) not in hypotheses
    ]

    failures.sort(key=lambda pair: pair[0])
    return CheckReport(tuple(failures))


# ---------------------------------------------------------------------------
# Per-rule checks.  `_check_rule` checks a step's premise and discharge counts
# against its row in `_RULES`, then calls the row's checker with the step's
# conclusion, the formulas of its premises and of its discharged assumptions
# in the order cited, and ctx = (proof, step, deps), where deps maps each
# earlier step to the open assumptions it rests on.  A checker returns a list
# of problem messages and never counts premises or discharges itself.

def _check_rule(
    proof: Proof, step: ProofStep, deps: dict[int, frozenset[int]]
) -> list[str]:
    row = _RULES.get(step.rule)
    if row is None:
        return [f"unknown rule {step.rule!r}"]
    premises, discharged, checker = row
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
        (proof, step, deps),
    )


def _rests_on(ctx, k: int) -> frozenset[int]:
    """The open assumptions that the step's k-th premise rests on."""
    _, step, deps = ctx
    return deps[step.premises[k]]


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
    if not identical(c, And(*ps)):
        return ["conclusion is not the conjunction of the premises in order"]
    return []


def _check_and_e(side, c, ps, ds, ctx):
    (p,) = ps
    if not isinstance(p, And) or not identical(c, getattr(p, side)):
        return [f"conclusion is not the {side} conjunct of the premise"]
    return []


def _check_or_i(side, c, ps, ds, ctx):
    if not isinstance(c, Or) or not identical(getattr(c, side), ps[0]):
        return [f"conclusion must be a disjunction whose {side} disjunct is the premise"]
    return []


def _check_or_e(c, ps, ds, ctx):
    disj, c1, c2 = ps
    if not isinstance(disj, Or):
        return ["first premise must be a disjunction"]
    problems = []
    if not identical(ds[0], disj.left):
        problems.append("first discharged assumption must be the left disjunct")
    if not identical(ds[1], disj.right):
        problems.append("second discharged assumption must be the right disjunct")
    if not (identical(c1, c) and identical(c2, c)):
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
        and identical(contradiction.right.body, contradiction.left)
    ):
        problems.append("premise must have shape B & ~B")
    if not is_first_order(assumption):
        problems.append("Condition 2: the discharged assumption must be first-order")
        return problems
    if not identical(c, Not(assumption)):
        problems.append("conclusion must be the negation of the discharged assumption")
    return problems


def _check_neg_e(c, ps, ds, ctx):
    (p,) = ps
    if not (isinstance(p, Not) and isinstance(p.body, Not)):
        return ["premise must be a double negation"]
    if not identical(c, p.body.body):
        return ["conclusion must be the doubly negated formula"]
    return []


def _check_forall_i(c, ps, ds, ctx):
    if not isinstance(c, Forall) or not identical(c.body, ps[0]):
        return ["conclusion must universally quantify the premise"]
    return _free_in_open(c.var, ctx, 0, 3)


def _check_instantiation(template: Formula, x: str, instance: Formula) -> list[str]:
    """instance must be template(t/x), where t is the term that instance has
    at the first free occurrence of x in template; substitute decides."""
    pairs = aligned_terms(template, instance)
    if pairs is not None:
        first = (
            u
            for a, b, bound in pairs
            if x not in bound
            for v, u in zip(walk_term(a), walk_term(b))
            if identical(v, Var(x))
        )
        try:
            # With no free x, substituting x for itself leaves template as is.
            if identical(substitute(template, next(first, Var(x)), x), instance):
                return []
        except CaptureError:
            return ["a variable of the substituted term would become bound"]
    return ["formulas do not differ by a substitution for the quantified variable"]


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
    if not identical(ds[0], ex.body):
        problems.append("discharged assumption must be the quantified body")
    if not identical(c, body_conclusion):
        problems.append("conclusion must equal the second premise")
    if x in free_vars(c):
        problems.append(f"Condition 4: {x} is free in the conclusion")
    return problems + _free_in_open(x, ctx, 1, 4)


def _check_disj_subst(c, ps, ds, ctx):
    disj, derived = ps
    if not isinstance(disj, Or):
        return ["first premise must be a disjunction"]
    problems = []
    if not identical(ds[0], disj.right):
        problems.append("the discharged assumption must be the right disjunct")
    if not identical(c, Or(disj.left, derived)):
        problems.append("conclusion must replace the right disjunct by the derived formula")
    return problems


def _check_disj_comm(c, ps, ds, ctx):
    (p,) = ps
    if not isinstance(p, Or) or not identical(c, Or(p.right, p.left)):
        return ["conclusion must be the premise with disjuncts swapped"]
    return []


def _check_disj_assoc(c, ps, ds, ctx):
    (p,) = ps
    if (
        not isinstance(p, Or)
        or not isinstance(p.left, Or)
        or not identical(c, Or(p.left.left, Or(p.left.right, p.right)))
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
    if not identical(c, quant(x, Or(p.left.body, p.right))):
        return ["conclusion must extend the quantifier scope over the disjunction"]
    return []


def _check_unnest(c, ps, ds, ctx):
    (p,) = ps
    if not isinstance(p, Dep) or not p.args:
        return ["premise must be a non-empty dependence atom"]
    if not isinstance(c, Exists):
        return ["conclusion must have shape exists z (dep(...) & z = t)"]
    if any(c.var in term_vars(t) for t in p.args):
        return ["the introduced variable must be new to the atom"]
    z = Var(c.var)
    if not any(
        identical(c, Exists(c.var, And(Dep(p.args[:i] + (z,) + p.args[i + 1 :]), Eq(z, t))))
        for i, t in enumerate(p.args)
    ):
        return ["conclusion must replace one argument by the fresh variable, equated to it"]
    return []


def _same(a: Formula, b: Formula) -> bool:
    """Equal up to the names of bound variables and the bracketing of &,
    neither of which changes a formula's meaning."""
    return alpha_key(a) == alpha_key(b)


def _parse_dep_block(phi: Formula) -> tuple[Prefix, list[Formula], Formula]:
    """Split exists y1..yn (dep-atoms & core); requires one atom per bound
    variable, each determining its variable, core without dependence atoms."""
    prefix, body = strip_prefix(phi, Exists)
    try:
        atoms, core = split_dep_atoms(body)
    except ShapeError as e:
        raise RuleSchemaError(str(e)) from e
    if len(atoms) != len(prefix):
        raise RuleSchemaError("expected one dependence atom per quantifier")
    for (_, y), (_, determined) in zip(prefix, atoms):
        if determined != y:
            raise RuleSchemaError(f"atom does not determine its quantifier {y}")
    return prefix, conjuncts(body)[: len(atoms)], core


def _check_dep_distribute(c, ps, ds, ctx):
    (p,) = ps
    if not isinstance(p, Or):
        return ["premise must be a disjunction"]
    try:
        prefix_a, atoms_a, core_a = _parse_dep_block(p.left)
        prefix_b, atoms_b, core_b = _parse_dep_block(p.right)
    except RuleSchemaError as e:
        return [str(e)]
    problems = []
    if {y for _, y in prefix_a} & all_vars(p.right):
        problems.append("left block variables may not appear in the right disjunct")
    if {y for _, y in prefix_b} & all_vars(p.left):
        problems.append("right block variables may not appear in the left disjunct")
    core = Or(core_a, core_b)
    if not _same(c, quantify(prefix_a + prefix_b, conjoin(atoms_a + atoms_b + [core]))):
        problems.append("conclusion does not match the distributed form")
    return problems


def _rule7_normal(phi: Formula) -> Formula:
    """phi with the context z... of the dependence atom of forall y exists x
    (dep(z..., x) & A) sorted: its order does not change the atom's meaning."""
    if (
        isinstance(phi, Forall)
        and isinstance(phi.body, Exists)
        and isinstance(phi.body.body, And)
    ):
        atom, *rest = operands(phi.body.body)
        if isinstance(atom, Dep) and atom.args:
            *context, x = atom.args
            atom = Dep(tuple(sorted(context, key=repr)) + (x,))
            return Forall(phi.var, Exists(phi.body.var, conjoin([atom] + rest)))
    return phi


def _check_dep_intro(c, ps, ds, ctx):
    try:
        expected = apply_rule7(ps[0])
    except RuleSchemaError as e:
        return [str(e)]
    if not _same(_rule7_normal(c), _rule7_normal(expected)):
        return ["conclusion differs from rule 7 applied to the premise"]
    return []


def _check_dep_elim(c, ps, ds, ctx):
    try:
        expected = apply_rule8(ps[0])
    except RuleSchemaError as e:
        return [str(e)]
    if not _same(c, expected):
        return ["conclusion differs from the guard-set unrolling of the premise"]
    return []


def _rewrites_to(a: Formula, b: Formula, t1: Term, t2: Term) -> bool:
    """b arises from a by replacing some whole-subterm occurrences of t1
    by t2; under binders only when the binder does not touch t1 or t2."""

    def rt(x: Term, y: Term) -> bool:
        if identical(x, y) or identical(x, t1) and identical(y, t2):
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
        identical(s, t) if touched.intersection(bound) else rt(s, t) for s, t, bound in pairs
    )


def _check_identity(c, ps, ds, ctx):
    if not ps:
        if isinstance(c, Eq) and identical(c.left, c.right):
            return []
        return ["a zero-premise identity step must conclude t = t"]
    if len(ps) == 1:
        (p,) = ps
        if isinstance(p, Eq) and identical(c, Eq(p.right, p.left)):
            return []
        return ["a one-premise identity step must conclude symmetry"]
    if len(ps) == 2:
        p1, p2 = ps
        if (
            isinstance(p1, Eq)
            and isinstance(p2, Eq)
            and isinstance(c, Eq)
            and identical(p1.right, p2.left)
            and identical(c, Eq(p1.left, p2.right))
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
# parameterised here.  `assume` has no checker, and its row is read only for
# membership in RULES: `check_proof` checks assumption steps itself, its
# counts (no premises, no discharges) included.
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
