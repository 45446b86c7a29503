"""Vocabularies, terms, and formula ASTs for dependence logic.

Formulas extend first-order syntax (relations, equality, ~, &, |, exists,
forall) with dependence atoms dep(t1, ..., tn).  Negation may only wrap a
first-order subformula; this is enforced at construction time.  All nodes
are immutable values.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterable, Mapping, Union


class SyntaxError_(Exception):
    """Base for structural errors in terms and formulas."""


class NegationScopeError(SyntaxError_):
    """Negation applied to a formula containing a dependence atom."""


class CaptureError(SyntaxError_):
    """A substitution would bind a variable of the substituted term."""


class VocabularyError(SyntaxError_):
    """Symbol use inconsistent with a vocabulary (unknown name, bad arity)."""


# ---------------------------------------------------------------------------
# Vocabulary

@dataclass(frozen=True)
class Vocabulary:
    """A first-order vocabulary: relation/function arities and constants."""

    relations: Mapping[str, int] = field(default_factory=dict)
    functions: Mapping[str, int] = field(default_factory=dict)
    constants: frozenset[str] = frozenset()

    def __post_init__(self) -> None:
        object.__setattr__(self, "relations", dict(self.relations))
        object.__setattr__(self, "functions", dict(self.functions))
        object.__setattr__(self, "constants", frozenset(self.constants))
        names = (
            list(self.relations) + list(self.functions) + list(self.constants)
        )
        if len(names) != len(set(names)):
            raise VocabularyError("relation/function/constant names must be disjoint")
        for name, arity in self.relations.items():
            if arity < 0:
                raise VocabularyError(f"relation {name} has negative arity")
        for name, arity in self.functions.items():
            if arity < 1:
                raise VocabularyError(f"function {name} must have positive arity")

    def declares(self, name: str) -> bool:
        return (
            name in self.relations
            or name in self.functions
            or name in self.constants
        )

    def merged(self, other: "Vocabulary") -> "Vocabulary":
        """Union of two vocabularies; arities must agree on shared names."""
        rels = dict(self.relations)
        for name, arity in other.relations.items():
            if rels.get(name, arity) != arity:
                raise VocabularyError(f"conflicting arities for relation {name}")
            rels[name] = arity
        fns = dict(self.functions)
        for name, arity in other.functions.items():
            if fns.get(name, arity) != arity:
                raise VocabularyError(f"conflicting arities for function {name}")
            fns[name] = arity
        return Vocabulary(rels, fns, self.constants | other.constants)


EMPTY_VOCABULARY = Vocabulary()


# ---------------------------------------------------------------------------
# Terms

class Term:
    """Base class for terms."""

    __slots__ = ()


@dataclass(frozen=True)
class Var(Term):
    name: str


@dataclass(frozen=True)
class Const(Term):
    name: str


@dataclass(frozen=True)
class Apply(Term):
    func: str
    args: tuple[Term, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "args", tuple(self.args))
        if not self.args:
            raise VocabularyError(f"function {self.func} applied to no arguments")


def term_vars(t: Term) -> frozenset[str]:
    """Variables occurring in a term."""
    if isinstance(t, Var):
        return frozenset((t.name,))
    if isinstance(t, Const):
        return frozenset()
    assert isinstance(t, Apply)
    out: frozenset[str] = frozenset()
    for a in t.args:
        out |= term_vars(a)
    return out


def substitute_term(t: Term, replacement: Term, x: str) -> Term:
    if isinstance(t, Var):
        return replacement if t.name == x else t
    if isinstance(t, Const):
        return t
    assert isinstance(t, Apply)
    return Apply(t.func, tuple(substitute_term(a, replacement, x) for a in t.args))


# ---------------------------------------------------------------------------
# Formulas

class Formula:
    """Base class for dependence-logic formulas."""

    __slots__ = ()


@dataclass(frozen=True)
class Rel(Formula):
    name: str
    args: tuple[Term, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "args", tuple(self.args))


@dataclass(frozen=True)
class Eq(Formula):
    left: Term
    right: Term


@dataclass(frozen=True)
class Dep(Formula):
    """Dependence atom dep(t1, ..., tn); the empty atom dep() is legal."""

    args: tuple[Term, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "args", tuple(self.args))


@dataclass(frozen=True)
class Not(Formula):
    body: Formula

    def __post_init__(self) -> None:
        if not is_first_order(self.body):
            raise NegationScopeError(
                "negation may only be applied to first-order formulas"
            )


@dataclass(frozen=True)
class And(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Or(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Exists(Formula):
    var: str
    body: Formula


@dataclass(frozen=True)
class Forall(Formula):
    var: str
    body: Formula


_BINARY = (And, Or)
_QUANT = (Exists, Forall)


@lru_cache(maxsize=65536)
def is_first_order(phi: Formula) -> bool:
    """True iff no dependence atom occurs anywhere in the formula."""
    if isinstance(phi, Dep):
        return False
    if isinstance(phi, (Rel, Eq)):
        return True
    if isinstance(phi, Not):
        return is_first_order(phi.body)
    if isinstance(phi, _BINARY):
        return is_first_order(phi.left) and is_first_order(phi.right)
    assert isinstance(phi, _QUANT)
    return is_first_order(phi.body)


def is_quantifier_free(phi: Formula) -> bool:
    if isinstance(phi, _QUANT):
        return False
    if isinstance(phi, Not):
        return is_quantifier_free(phi.body)
    if isinstance(phi, _BINARY):
        return is_quantifier_free(phi.left) and is_quantifier_free(phi.right)
    return True


@lru_cache(maxsize=65536)
def free_vars(phi: Formula) -> frozenset[str]:
    """Free variables; dependence atoms contribute all their term variables."""
    if isinstance(phi, Rel):
        out: frozenset[str] = frozenset()
        for t in phi.args:
            out |= term_vars(t)
        return out
    if isinstance(phi, Eq):
        return term_vars(phi.left) | term_vars(phi.right)
    if isinstance(phi, Dep):
        out = frozenset()
        for t in phi.args:
            out |= term_vars(t)
        return out
    if isinstance(phi, Not):
        return free_vars(phi.body)
    if isinstance(phi, _BINARY):
        return free_vars(phi.left) | free_vars(phi.right)
    assert isinstance(phi, _QUANT)
    return free_vars(phi.body) - {phi.var}


def is_sentence(phi: Formula) -> bool:
    return not free_vars(phi)


def bound_vars(phi: Formula) -> frozenset[str]:
    """All variables bound by some quantifier in the formula."""
    if isinstance(phi, (Rel, Eq, Dep)):
        return frozenset()
    if isinstance(phi, Not):
        return bound_vars(phi.body)
    if isinstance(phi, _BINARY):
        return bound_vars(phi.left) | bound_vars(phi.right)
    assert isinstance(phi, _QUANT)
    return bound_vars(phi.body) | {phi.var}


def all_vars(phi: Formula) -> frozenset[str]:
    return free_vars(phi) | bound_vars(phi)


def substitute(phi: Formula, t: Term, x: str) -> Formula:
    """Replace free occurrences of x by t.

    Raises CaptureError if a variable of t would become bound; the
    operation never renames binders on its own.
    """
    if isinstance(phi, Rel):
        return Rel(phi.name, tuple(substitute_term(a, t, x) for a in phi.args))
    if isinstance(phi, Eq):
        return Eq(substitute_term(phi.left, t, x), substitute_term(phi.right, t, x))
    if isinstance(phi, Dep):
        return Dep(tuple(substitute_term(a, t, x) for a in phi.args))
    if isinstance(phi, Not):
        return Not(substitute(phi.body, t, x))
    if isinstance(phi, And):
        return And(substitute(phi.left, t, x), substitute(phi.right, t, x))
    if isinstance(phi, Or):
        return Or(substitute(phi.left, t, x), substitute(phi.right, t, x))
    assert isinstance(phi, _QUANT)
    if phi.var == x:
        return phi
    if x in free_vars(phi.body) and phi.var in term_vars(t):
        raise CaptureError(
            f"substituting for {x} would capture {phi.var} from the term"
        )
    cls = type(phi)
    return cls(phi.var, substitute(phi.body, t, x))


def rename_free(phi: Formula, mapping: Mapping[str, str]) -> Formula:
    """Simultaneously rename free variables of a quantifier-free formula.

    Only defined for quantifier-free inputs (no binders to collide with).
    """
    if not is_quantifier_free(phi):
        raise ValueError("rename_free expects a quantifier-free formula")

    def rt(t: Term) -> Term:
        if isinstance(t, Var):
            return Var(mapping.get(t.name, t.name))
        if isinstance(t, Const):
            return t
        assert isinstance(t, Apply)
        return Apply(t.func, tuple(rt(a) for a in t.args))

    def rf(f: Formula) -> Formula:
        if isinstance(f, Rel):
            return Rel(f.name, tuple(rt(a) for a in f.args))
        if isinstance(f, Eq):
            return Eq(rt(f.left), rt(f.right))
        if isinstance(f, Dep):
            return Dep(tuple(rt(a) for a in f.args))
        if isinstance(f, Not):
            return Not(rf(f.body))
        if isinstance(f, And):
            return And(rf(f.left), rf(f.right))
        assert isinstance(f, Or)
        return Or(rf(f.left), rf(f.right))

    return rf(phi)


def fresh_variable(avoid: Iterable[str], hint: str) -> str:
    """A name not in `avoid`: the hint itself, else hint_1, hint_2, ..."""
    taken = set(avoid)
    if hint not in taken:
        return hint
    for i in itertools.count(1):
        candidate = f"{hint}_{i}"
        if candidate not in taken:
            return candidate
    raise AssertionError("unreachable")


def alpha_equal(phi: Formula, psi: Formula) -> bool:
    """Structural equality up to consistent renaming of bound variables."""

    def terms_eq(a: Term, b: Term, m1: dict[str, int], m2: dict[str, int]) -> bool:
        if isinstance(a, Var) and isinstance(b, Var):
            if a.name in m1 or b.name in m2:
                return m1.get(a.name) == m2.get(b.name) and a.name in m1 and b.name in m2
            return a.name == b.name
        if isinstance(a, Const) and isinstance(b, Const):
            return a.name == b.name
        if isinstance(a, Apply) and isinstance(b, Apply):
            return (
                a.func == b.func
                and len(a.args) == len(b.args)
                and all(terms_eq(x, y, m1, m2) for x, y in zip(a.args, b.args))
            )
        return False

    def go(a: Formula, b: Formula, m1: dict[str, int], m2: dict[str, int], depth: int) -> bool:
        if type(a) is not type(b):
            return False
        if isinstance(a, Rel):
            assert isinstance(b, Rel)
            return (
                a.name == b.name
                and len(a.args) == len(b.args)
                and all(terms_eq(x, y, m1, m2) for x, y in zip(a.args, b.args))
            )
        if isinstance(a, Eq):
            assert isinstance(b, Eq)
            return terms_eq(a.left, b.left, m1, m2) and terms_eq(a.right, b.right, m1, m2)
        if isinstance(a, Dep):
            assert isinstance(b, Dep)
            return len(a.args) == len(b.args) and all(
                terms_eq(x, y, m1, m2) for x, y in zip(a.args, b.args)
            )
        if isinstance(a, Not):
            assert isinstance(b, Not)
            return go(a.body, b.body, m1, m2, depth)
        if isinstance(a, _BINARY):
            assert isinstance(b, _BINARY)
            return go(a.left, b.left, m1, m2, depth) and go(
                a.right, b.right, m1, m2, depth
            )
        assert isinstance(a, _QUANT) and isinstance(b, _QUANT)
        n1 = dict(m1)
        n2 = dict(m2)
        n1[a.var] = depth
        n2[b.var] = depth
        return go(a.body, b.body, n1, n2, depth + 1)

    return go(phi, psi, {}, {}, 0)


# ---------------------------------------------------------------------------
# Structural helpers

def conjoin(parts: Iterable[Formula]) -> Formula:
    """Right-nested conjunction a & (b & (c & d)); parts must be non-empty."""
    items = list(parts)
    if not items:
        raise ValueError("conjoin needs at least one conjunct")
    out = items[-1]
    for f in reversed(items[:-1]):
        out = And(f, out)
    return out


def conjuncts(phi: Formula) -> list[Formula]:
    """The conjuncts of a conjunction of any bracketing, left to right.

    The right spine is always split.  A left operand is split too when it
    contains a dependence atom, so (dep & a) & b and dep & (a & b) give the
    same list [dep, a, b].  A first-order left operand stays whole:
    (a & b) & dep gives [a & b, dep].
    """
    out: list[Formula] = []
    stack = [phi]
    while stack:
        f = stack.pop()
        while isinstance(f, And):
            if isinstance(f.left, And) and not is_first_order(f.left):
                stack.append(f.right)
                f = f.left
            else:
                out.append(f.left)
                f = f.right
        out.append(f)
    return out


def implies(antecedent: Formula, consequent: Formula) -> Formula:
    """Material implication ~A | B; the antecedent must be first-order."""
    return Or(Not(antecedent), consequent)


def check_against(phi: Formula, voc: Vocabulary) -> None:
    """Raise VocabularyError unless all symbol uses conform to voc."""

    def ct(t: Term) -> None:
        if isinstance(t, Var):
            if voc.declares(t.name):
                raise VocabularyError(
                    f"variable {t.name} collides with a declared symbol"
                )
            return
        if isinstance(t, Const):
            if t.name not in voc.constants:
                raise VocabularyError(f"unknown constant {t.name}")
            return
        assert isinstance(t, Apply)
        arity = voc.functions.get(t.func)
        if arity is None:
            raise VocabularyError(f"unknown function {t.func}")
        if arity != len(t.args):
            raise VocabularyError(
                f"function {t.func} expects {arity} arguments, got {len(t.args)}"
            )
        for a in t.args:
            ct(a)

    def cf(f: Formula) -> None:
        if isinstance(f, Rel):
            arity = voc.relations.get(f.name)
            if arity is None:
                raise VocabularyError(f"unknown relation {f.name}")
            if arity != len(f.args):
                raise VocabularyError(
                    f"relation {f.name} expects {arity} arguments, got {len(f.args)}"
                )
            for a in f.args:
                ct(a)
        elif isinstance(f, Eq):
            ct(f.left)
            ct(f.right)
        elif isinstance(f, Dep):
            for a in f.args:
                ct(a)
        elif isinstance(f, Not):
            cf(f.body)
        elif isinstance(f, _BINARY):
            cf(f.left)
            cf(f.right)
        else:
            assert isinstance(f, _QUANT)
            if voc.declares(f.var):
                raise VocabularyError(
                    f"bound variable {f.var} collides with a declared symbol"
                )
            cf(f.body)

    cf(phi)


def infer_vocabulary(phi: Formula) -> Vocabulary:
    """The smallest vocabulary covering the formula's symbol uses."""
    relations: dict[str, int] = {}
    functions: dict[str, int] = {}
    constants: set[str] = set()

    def it(t: Term) -> None:
        if isinstance(t, Const):
            constants.add(t.name)
        elif isinstance(t, Apply):
            if functions.setdefault(t.func, len(t.args)) != len(t.args):
                raise VocabularyError(f"function {t.func} used at two arities")
            for a in t.args:
                it(a)

    def go(f: Formula) -> None:
        if isinstance(f, Rel):
            if relations.setdefault(f.name, len(f.args)) != len(f.args):
                raise VocabularyError(f"relation {f.name} used at two arities")
            for a in f.args:
                it(a)
        elif isinstance(f, Eq):
            it(f.left)
            it(f.right)
        elif isinstance(f, Dep):
            for a in f.args:
                it(a)
        elif isinstance(f, Not):
            go(f.body)
        elif isinstance(f, _BINARY):
            go(f.left)
            go(f.right)
        elif isinstance(f, _QUANT):
            go(f.body)

    go(phi)
    return Vocabulary(relations, functions, frozenset(constants))
