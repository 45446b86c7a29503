"""Vocabularies, terms, and formula ASTs for dependence logic.

Formulas extend first-order syntax (relations, equality, ~, &, |, exists,
forall) with dependence atoms dep(t1, ..., tn).  Negation may only wrap a
first-order subformula; this is enforced at construction time.  All nodes
are immutable values, and no fact derived from one is cached.  Every
transformation that rebuilds a formula is one `rewrite` call, whose atom
and bind hooks run in pre-order, left to right, on an explicit stack.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Mapping, Optional, Sequence, TypeVar


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

# The words of the concrete syntax; no symbol may be named by one.
KEYWORDS = ("forall", "exists", "dep")


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
        for name in names:
            if name in KEYWORDS:
                raise VocabularyError(f"{name!r} is reserved")
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


def walk_term(t: Term) -> Iterator[Term]:
    """Every node of a term in pre-order, the term itself first."""
    stack = [t]
    while stack:
        u = stack.pop()
        yield u
        if isinstance(u, Apply):
            stack.extend(reversed(u.args))


def map_vars(t: Term, f: Callable[[Var], Term]) -> Term:
    """The term with every variable v replaced by f(v).  Its nodes are built
    in reverse pre-order, each Apply from the results on top of the stack."""
    if not isinstance(t, Apply):
        return f(t) if isinstance(t, Var) else t
    done: list[Term] = []
    for u in reversed(list(walk_term(t))):
        if isinstance(u, Apply):
            u = Apply(u.func, tuple(done.pop() for _ in u.args))
        elif isinstance(u, Var):
            u = f(u)
        done.append(u)
    return done[0]


def term_vars(t: Term) -> frozenset[str]:
    """Variables occurring in a term."""
    return frozenset(u.name for u in walk_term(t) if isinstance(u, Var))


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


_QUANT = (Exists, Forall)

# A quantifier prefix: (Forall | Exists, variable) pairs, outermost first.
Prefix = list[tuple[type, str]]

# What a rewrite carries down to the atoms under each quantifier.
Env = TypeVar("Env")


def quantify(prefix: Prefix, body: Formula) -> Formula:
    """The formula that binds each variable of prefix, outermost first,
    over body."""
    for kind, v in reversed(prefix):
        body = kind(v, body)
    return body


def strip_prefix(
    phi: Formula, kinds: type | tuple[type, ...] = _QUANT
) -> tuple[Prefix, Formula]:
    """The leading quantifiers of phi that are instances of kinds, and the
    formula under them: quantify(*strip_prefix(phi)) == phi."""
    prefix: Prefix = []
    while isinstance(phi, kinds):
        prefix.append((type(phi), phi.var))
        phi = phi.body
    return prefix, phi


# ---------------------------------------------------------------------------
# Traversal: the only code that knows which fields of a node are its
# subformulas and which are its terms.

def subformulas(phi: Formula) -> tuple[Formula, ...]:
    """The immediate subformulas of a node, left to right; () for atoms."""
    if isinstance(phi, (And, Or)):
        return (phi.left, phi.right)
    if isinstance(phi, (Not, Exists, Forall)):
        return (phi.body,)
    return ()


def rewrite(
    phi: Formula,
    atom: Callable[[Formula, Env], Formula],
    bind: Callable[[Formula, Env], tuple[Optional[str], Env]],
    env: Env,
) -> Formula:
    """phi rebuilt bottom-up on an explicit stack, so any depth rewrites.
    Each atom becomes atom(node, env).  At a quantifier, bind(node, env)
    gives the variable it binds in the result, None to drop it, and the env
    of its body.  The hooks run in pre-order, left to right."""
    done: list[Formula] = []
    # A node to visit with its env, or, once its subformulas are done, the
    # class of a node to build with the variable it binds.
    todo: list[tuple[object, object]] = [(phi, env)]
    while todo:
        f, e = todo.pop()
        cls = type(f)
        if cls is Rel or cls is Eq or cls is Dep:
            done.append(atom(f, e))
        elif cls is And or cls is Or:
            todo += [(cls, None), (f.right, e), (f.left, e)]
        elif cls is Not:
            todo += [(Not, None), (f.body, e)]
        elif cls is Exists or cls is Forall:
            var, inner = bind(f, e)
            todo += [(f.body, inner)] if var is None else [(cls, var), (f.body, inner)]
        elif f is And or f is Or:
            done[-2:] = [f(*done[-2:])]
        else:
            done[-1] = Not(done[-1]) if f is Not else f(e, done[-1])
    return done[0]


def walk(phi: Formula) -> Iterator[tuple[Formula, tuple[str, ...]]]:
    """Every node in pre-order, without recursion, each with the variables
    of the quantifiers above it, outermost first."""
    stack: list[tuple[Formula, tuple[str, ...]]] = [(phi, ())]
    while stack:
        f, binders = stack.pop()
        yield f, binders
        if isinstance(f, _QUANT):
            binders = binders + (f.var,)
        for p in reversed(subformulas(f)):
            stack.append((p, binders))


def atom_terms(phi: Formula) -> tuple[Term, ...]:
    """The argument terms of an atom, left to right; () for other nodes."""
    if isinstance(phi, Eq):
        return (phi.left, phi.right)
    if isinstance(phi, (Rel, Dep)):
        return phi.args
    return ()


def map_terms(phi: Formula, f: Callable[[Term], Term]) -> Formula:
    """The atom with f applied to each argument term; other nodes are
    returned as they are."""
    if isinstance(phi, Rel):
        return Rel(phi.name, tuple(map(f, phi.args)))
    if isinstance(phi, Eq):
        return Eq(f(phi.left), f(phi.right))
    if isinstance(phi, Dep):
        return Dep(tuple(map(f, phi.args)))
    return phi


def _head(phi: Formula) -> tuple[object, ...]:
    """What fixes a node once its subformulas, terms and binder are given:
    its class, a relation's symbol and the number of argument terms."""
    return (type(phi), phi.name if isinstance(phi, Rel) else None, len(atom_terms(phi)))


def is_first_order(phi: Formula) -> bool:
    """True iff no dependence atom occurs anywhere in the formula.  An
    equality, a relation atom or a negation is first-order as built, so the
    walk does not enter it."""
    if isinstance(phi, (Eq, Rel, Not)):
        return True
    stack = [phi]
    while stack:
        f = stack.pop()
        if isinstance(f, Dep):
            return False
        if not isinstance(f, Not):
            stack.extend(subformulas(f))
    return True


def is_quantifier_free(phi: Formula) -> bool:
    return not any(isinstance(f, _QUANT) for f, _ in walk(phi))


def free_vars(phi: Formula) -> frozenset[str]:
    """Free variables; dependence atoms contribute all their term variables."""
    out: set[str] = set()
    stack: list[tuple[Formula, tuple[str, ...]]] = [(phi, ())]
    while stack:
        f, bound = stack.pop()
        if isinstance(f, _QUANT):
            stack.append((f.body, bound + (f.var,)))
            continue
        for p in subformulas(f):
            stack.append((p, bound))
        for t in atom_terms(f):
            for u in walk_term(t):
                if isinstance(u, Var) and u.name not in bound:
                    out.add(u.name)
    return frozenset(out)


def is_sentence(phi: Formula) -> bool:
    return not free_vars(phi)


def bound_vars(phi: Formula) -> frozenset[str]:
    """All variables bound by some quantifier in the formula."""
    return frozenset(f.var for f, _ in walk(phi) if isinstance(f, _QUANT))


def all_vars(phi: Formula) -> frozenset[str]:
    return free_vars(phi) | bound_vars(phi)


def substitute(phi: Formula, t: Term, x: str) -> Formula:
    """Replace free occurrences of x by t.

    Raises CaptureError at the first binder, in pre-order, that would
    capture a variable of t; the operation never renames binders on its own.
    """
    captors = term_vars(t)

    def atom(f: Formula, binders: tuple[str, ...]) -> Formula:
        if x in binders:
            return f
        caught = [v for v in binders if v in captors]
        if caught and x in free_vars(f):
            raise CaptureError(f"substituting for {x} would capture {caught[0]} from the term")
        return map_terms(f, lambda u: map_vars(u, lambda v: t if v.name == x else v))

    return rewrite(phi, atom, lambda q, binders: (q.var, binders + (q.var,)), ())


def rename_free(phi: Formula, mapping: Mapping[str, str]) -> Formula:
    """Simultaneously rename free variables of a quantifier-free formula.

    Only defined for quantifier-free inputs (no binders to collide with);
    the walk raises ValueError at a quantifier.
    """

    def bind(q: Formula, _: None) -> tuple[str, None]:
        raise ValueError("rename_free expects a quantifier-free formula")

    def rename(f: Formula, _: None) -> Formula:
        return map_terms(f, lambda t: map_vars(t, lambda v: Var(mapping.get(v.name, v.name))))

    return rewrite(phi, rename, bind, None)


def fresh_variable(used: set[str], hint: str) -> str:
    """A name not in `used`, which is added to it: the hint itself, else
    hint_1, hint_2, ..."""
    name = hint
    for i in itertools.count(1):
        if name not in used:
            used.add(name)
            return name
        name = f"{hint}_{i}"
    raise AssertionError("unreachable")


def alpha_key(phi: Formula) -> tuple[object, ...]:
    """A hashable key, equal for two formulas exactly when they are equal up
    to the names of bound variables and the bracketing of &: the nodes in
    pre-order, a chain of & as one node with its length, a bound variable as
    the depth of its binder (an int) and a free variable as its name (a str)."""
    key: list[object] = []
    # Each node with the depth of each name bound above it and the binders' count.
    stack: list[tuple[Formula, dict[str, int], int]] = [(phi, {}, 0)]
    while stack:
        f, depth, level = stack.pop()
        key += _head(f)
        terms = atom_terms(f)
        if terms:  # an atom, which has no subformulas
            for t in terms:
                if isinstance(t, Var):  # most terms: no walk needed
                    key.append(depth.get(t.name, t.name))
                    continue
                for u in walk_term(t):
                    if isinstance(u, Var):
                        key.append(depth.get(u.name, u.name))
                    elif isinstance(u, Const):
                        key += (Const, u.name)
                    else:
                        key += (Apply, u.func, len(u.args))
            continue
        parts: Sequence[Formula] = subformulas(f)
        if isinstance(f, And):
            parts = operands(f)
            key.append(len(parts))
        elif isinstance(f, _QUANT):
            depth = {**depth, f.var: level}
            level += 1
        for p in reversed(parts):
            stack.append((p, depth, level))
    return tuple(key)


def identical(a: Formula | Term, b: Formula | Term) -> bool:
    """a == b for formulas or terms of any depth: a lock-step walk on an
    explicit stack that stops at the first difference and skips a subtree
    the two share.  It reads node fields itself, the faster way here."""
    stack = [(a, b)]
    while stack:
        f, g = stack.pop()
        cls = type(f)
        if f is g:
            continue
        if cls is not type(g):
            return False
        if cls is Or or cls is And or cls is Eq:
            stack += [(f.left, g.left), (f.right, g.right)]
        elif cls is Var or cls is Const:
            if f.name != g.name:
                return False
        elif cls is Not or cls is Exists or cls is Forall:
            if cls is not Not and f.var != g.var:
                return False
            stack.append((f.body, g.body))
        elif len(f.args) != len(g.args) or cls is Rel and f.name != g.name:
            return False
        elif cls is Apply and f.func != g.func:
            return False
        else:  # Rel, Dep or Apply
            stack += zip(f.args, g.args)
    return True


def aligned_terms(
    a: Formula, b: Formula
) -> Optional[list[tuple[Term, Term, tuple[str, ...]]]]:
    """The pairs of corresponding argument terms of two formulas, in
    pre-order, each with the variables of the quantifiers above it; None
    unless the formulas agree everywhere outside their terms, binder names
    included."""
    pairs = []
    for (f, binders), (g, other) in zip(walk(a), walk(b)):
        if _head(f) != _head(g) or binders != other:
            return None
        pairs.extend((s, t, binders) for s, t in zip(atom_terms(f), atom_terms(g)))
    return pairs


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
    """The conjuncts of a conjunction of any bracketing, left to right:
    (a & b) & dep and a & (b & dep) both give [a, b, dep].  Any other
    formula is its own one conjunct."""
    return operands(phi) if isinstance(phi, And) else [phi]


def operands(phi: Formula) -> list[Formula]:
    """The operands of a chain of phi's connective, any bracketing, left to
    right: a & ((b & c) & d) gives [a, b, c, d]."""
    out, stack = [], [phi]
    while stack:
        f = stack.pop()
        if type(f) is type(phi):
            stack.extend(reversed(subformulas(f)))
        else:
            out.append(f)
    return out


def infer_vocabulary(phi: Formula) -> Vocabulary:
    """The smallest vocabulary covering the formula's symbol uses."""
    relations: dict[str, int] = {}
    functions: dict[str, int] = {}
    constants: set[str] = set()
    for f, _ in walk(phi):
        if isinstance(f, Rel) and relations.setdefault(f.name, len(f.args)) != len(f.args):
            raise VocabularyError(f"relation {f.name} used at two arities")
        for u in (u for t in atom_terms(f) for u in walk_term(t)):
            if isinstance(u, Const):
                constants.add(u.name)
            elif isinstance(u, Apply):
                if functions.setdefault(u.func, len(u.args)) != len(u.args):
                    raise VocabularyError(f"function {u.func} used at two arities")
    return Vocabulary(relations, functions, frozenset(constants))
