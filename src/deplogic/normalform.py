"""Transformation of sentences into the universal-existential normal form.

The pipeline has four stages: preprocessing (distinct binders, variables-only
dependence atoms), prenexing, hoisting of dependence atoms out of the matrix
into a fresh existential block, and conversion of the mixed quantifier prefix
into forall*-exists* shape, trading each crossed universal for a dependence
atom that pins the moved witness to the variables already in scope.

Each stage is public: preprocess, to_prenex, hoist_dep_atoms and
pull_existentials_left.  The first three are each one syntax.rewrite call,
so fresh names are picked in pre-order, left to right, at any depth.  to_normal_form composes them, after reading off a
sentence already of the normal shape as it stands.  A quantifier prefix is
a syntax.Prefix, a list of (Forall | Exists, variable) pairs, outermost
first; syntax.quantify builds a formula from one and syntax.strip_prefix
takes it apart.
"""

from __future__ import annotations

from dataclasses import dataclass

from .syntax import (
    And,
    Dep,
    Eq,
    Exists,
    Forall,
    Formula,
    Not,
    Prefix,
    Term,
    Var,
    all_vars,
    conjoin,
    conjuncts,
    free_vars,
    fresh_variable,
    is_first_order,
    is_quantifier_free,
    is_sentence,
    map_terms,
    map_vars,
    quantify,
    rewrite,
    strip_prefix,
    subformulas,
)


class NormalFormError(Exception):
    pass


class ShapeError(NormalFormError):
    """Input does not match the required structural shape."""


DepAtomSpec = tuple[tuple[str, ...], str]


@dataclass(frozen=True)
class NormalFormSentence:
    """A sentence of shape forall x... exists y... (deps & matrix).

    Dependence atoms are (arguments, determined variable) pairs over
    variables only; each atom's arguments must already be in scope when its
    determined existential is introduced.
    """

    universals: tuple[str, ...]
    existentials: tuple[str, ...]
    dep_atoms: tuple[DepAtomSpec, ...]
    matrix: Formula

    def __post_init__(self) -> None:
        object.__setattr__(self, "universals", tuple(self.universals))
        object.__setattr__(self, "existentials", tuple(self.existentials))
        object.__setattr__(
            self,
            "dep_atoms",
            tuple((tuple(w), y) for w, y in self.dep_atoms),
        )
        names = list(self.universals) + list(self.existentials)
        if len(names) != len(set(names)):
            raise NormalFormError("prefix variables must be pairwise distinct")
        if not is_quantifier_free(self.matrix):
            raise NormalFormError("matrix must be quantifier-free")
        if not is_first_order(self.matrix):
            raise NormalFormError("matrix must not contain dependence atoms")
        if not free_vars(self.matrix) <= set(names):
            raise NormalFormError("matrix has variables outside the prefix")
        determined = [y for _, y in self.dep_atoms]
        if len(determined) != len(set(determined)):
            raise NormalFormError("an existential is determined twice")
        position = {y: i for i, y in enumerate(self.existentials)}
        scope = set(self.universals)
        for w, y in self.dep_atoms:
            if y not in position:
                raise NormalFormError(f"determined variable {y} is not existential")
            allowed = scope | set(self.existentials[: position[y]])
            if not set(w) <= allowed:
                raise NormalFormError(
                    f"dep atom for {y} uses variables not yet in scope: "
                    f"{sorted(set(w) - allowed)}"
                )

    @property
    def prefix(self) -> Prefix:
        """The universal block, then the existential block."""
        return [(Forall, x) for x in self.universals] + [
            (Exists, y) for y in self.existentials
        ]


def reassemble(nf: NormalFormSentence) -> Formula:
    """The sentence the normal form denotes: prefix over (deps & matrix)."""
    parts: list[Formula] = [
        Dep(tuple(Var(v) for v in w) + (Var(y),)) for w, y in nf.dep_atoms
    ]
    return quantify(nf.prefix, conjoin(parts + [nf.matrix]))


def split_dep_atoms(body: Formula) -> tuple[list[DepAtomSpec], Formula]:
    """Split a conjunction of any bracketing into its leading dependence
    atoms and the conjunction of the rest, the matrix.

    The last conjunct always belongs to the matrix.  Raises ShapeError
    unless every atom is non-empty and over variables and the matrix is
    quantifier-free and dependence-free.
    """
    parts = conjuncts(body)
    atoms: list[DepAtomSpec] = []
    for part in parts[:-1]:
        if not isinstance(part, Dep):
            break
        if not part.args or not all(isinstance(t, Var) for t in part.args):
            raise ShapeError("dependence atoms must be non-empty and over variables")
        names = tuple(t.name for t in part.args)
        atoms.append((names[:-1], names[-1]))
    matrix = conjoin(parts[len(atoms) :])
    if not is_quantifier_free(matrix) or not is_first_order(matrix):
        raise ShapeError("matrix must be quantifier-free and dependence-free")
    return atoms, matrix


def match_normal_form(phi: Formula) -> NormalFormSentence:
    """Parse a formula of the normal shape, a universal block, an
    existential block, then dependence atoms and a matrix conjoined in any
    bracketing, into its parts."""
    universals, rest = strip_prefix(phi, Forall)
    existentials, body = strip_prefix(rest, Exists)
    atoms, matrix = split_dep_atoms(body)
    try:
        return NormalFormSentence(
            tuple(v for _, v in universals),
            tuple(v for _, v in existentials),
            tuple(atoms),
            matrix,
        )
    except NormalFormError as e:
        raise ShapeError(str(e)) from e


# ---------------------------------------------------------------------------
# Stage 0: preprocessing

def preprocess(phi: Formula) -> Formula:
    """Alpha-variant with pairwise-distinct binders, no variable both free
    and bound, and dependence atoms over variables only, each unnested where
    it is reached."""
    used = set(free_vars(phi))

    def bind(q: Formula, env: dict[str, str]) -> tuple[str, dict[str, str]]:
        fresh = fresh_variable(used, q.var)
        return fresh, {**env, q.var: fresh}

    def atom(f: Formula, env: dict[str, str]) -> Formula:
        renamed = map_terms(f, lambda t: map_vars(t, lambda v: Var(env.get(v.name, v.name))))
        return _unnest_atom(renamed.args, used) if isinstance(renamed, Dep) else renamed

    return rewrite(phi, atom, bind, {})


def _unnest_atom(args: tuple[Term, ...], used: set[str]) -> Formula:
    """Replace the leftmost complex argument by a fresh existential, then
    recurse; pure-variable atoms are returned as is."""
    for i, t in enumerate(args):
        if isinstance(t, Var):
            continue
        z = fresh_variable(used, "z")
        inner = _unnest_atom(args[:i] + (Var(z),) + args[i + 1 :], used)
        return Exists(z, And(inner, Eq(Var(z), t)))
    return Dep(args)


# ---------------------------------------------------------------------------
# Stage 1: prenex form

def to_prenex(phi: Formula) -> Formula:
    """Equivalent prenex formula: phi's quantifiers in pre-order, each the
    dual under an odd number of ~, over phi with every quantifier dropped."""
    prefix: Prefix = []
    stack = [(phi, False)]
    while stack:
        f, negated = stack.pop()
        if isinstance(f, (Exists, Forall)):
            prefix.append((_DUAL[type(f)] if negated else type(f), f.var))
        negated ^= isinstance(f, Not)
        stack += [(p, negated) for p in reversed(subformulas(f))]
    return quantify(prefix, rewrite(phi, lambda f, _: f, lambda q, _: (None, None), None))


_DUAL = {Forall: Exists, Exists: Forall}


# ---------------------------------------------------------------------------
# Stage 2: hoisting dependence atoms

def hoist_dep_atoms(theta: Formula) -> Formula:
    """Equivalent form prefix exists z... (deps & core) for a prenex input
    (a quantifier-free one has the empty prefix).  The prefix is kept, and
    the hoisting names avoid every variable of the input.  Each atom
    dep(w, v) becomes z = v where it stands, and dep(w, z) moves in front."""
    prefix, matrix = strip_prefix(theta)
    used = set(all_vars(theta))
    zs: Prefix = []
    atoms: list[Formula] = []

    def atom(f: Formula, _: None) -> Formula:
        if not isinstance(f, Dep) or not all(isinstance(t, Var) for t in f.args):
            return f  # a nested atom stays in the core and is reported below
        z = fresh_variable(used, f.args[-1].name if f.args else "z")
        zs.append((Exists, z))
        atoms.append(Dep(f.args[:-1] + (Var(z),)))
        # dep() hoists to the degenerate pattern exists z (dep(z) & z = z).
        return Eq(Var(z), f.args[-1] if f.args else Var(z))

    def bind(q: Formula, _: None) -> tuple[str, None]:
        raise ShapeError("hoisting expects a prenex formula")

    core = rewrite(matrix, atom, bind, None)
    if not is_first_order(core):
        raise ShapeError("dependence atoms must be unnested before hoisting")
    return quantify(prefix + zs, conjoin(atoms + [core]))


# ---------------------------------------------------------------------------
# Stage 3/4: prefix conversion

def pull_existentials_left(phi: Formula) -> NormalFormSentence:
    """Convert a prenex-over-hoisted formula into the normal form.

    Processes the quantifier prefix right to left.  A universal is simply
    prepended; an existential crossing h pending universals picks up one
    dependence atom over the variables still free in its scope.
    """
    prefix, body = strip_prefix(phi)
    dep_list, matrix = split_dep_atoms(body)
    universals: list[str] = []
    existentials: list[str] = []
    # The block's variables that the prefix processed so far does not bind.
    unbound = set(free_vars(matrix)).union(*(w + (y,) for w, y in dep_list))
    for kind, v in reversed(prefix):
        unbound.discard(v)
        if kind is Forall:
            universals.insert(0, v)
            continue
        if universals:
            dep_list.insert(0, (tuple(sorted(unbound)), v))
        existentials.insert(0, v)

    return NormalFormSentence(
        tuple(universals), tuple(existentials), tuple(dep_list), matrix
    )


def to_normal_form(phi: Formula) -> NormalFormSentence:
    """Full pipeline: preprocess, prenex, hoist, pull existentials left.

    A sentence already of the normal shape, its conjunction bracketed in
    any way, is read off as it stands instead of being re-hoisted through
    fresh variables.
    """
    if not is_sentence(phi):
        raise NormalFormError(
            f"normal form is defined for sentences; free: {sorted(free_vars(phi))}"
        )
    clean = preprocess(phi)
    try:
        return match_normal_form(clean)
    except ShapeError:
        pass
    return pull_existentials_left(hoist_dep_atoms(to_prenex(clean)))
