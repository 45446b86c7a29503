"""Shared test utilities: team constructors, random AST/model/team
generators and the corpus of sentences used by the normal-form tests."""

from __future__ import annotations

import itertools
import random
from typing import Iterable, Iterator, Mapping

from deplogic import (
    And,
    Apply,
    Const,
    Dep,
    Eq,
    Exists,
    Forall,
    Formula,
    Model,
    Not,
    Or,
    Rel,
    SearchBudget,
    Team,
    Var,
    Vocabulary,
    free_vars,
    infer_vocabulary,
    is_first_order,
    satisfies,
)
from deplogic.normalform import NormalFormSentence
from deplogic.semantics import Assignment, enumerate_models
from deplogic.syntax import alpha_key

VOC_EMPTY = Vocabulary()
VOC_C = Vocabulary(constants={"c"})
VOC_R1 = Vocabulary(relations={"R": 1})
VOC_R1C = Vocabulary(relations={"R": 1}, constants={"c"})
VOC_R1S1C = Vocabulary(relations={"R": 1, "S": 1}, constants={"c"})
VOC_F1 = Vocabulary(functions={"f": 1})
VOC_F1C = Vocabulary(functions={"f": 1}, constants={"c"})

SMALL_BUDGET = SearchBudget(200_000)


# ---------------------------------------------------------------------------
# Teams and formula comparison

def make_team(variables: Iterable[str], rows: Iterable[Mapping[str, int]]) -> Team:
    """A team from plain dict rows."""
    return Team(frozenset(variables), frozenset(Assignment(tuple(r.items())) for r in rows))


# The team of the empty assignment, which decides sentence truth.
EMPTY_DOMAIN_SINGLETON = make_team([], [{}])


def enumerate_teams(size: int, variables: frozenset[str]) -> Iterator[Team]:
    """All teams over the given variables with values below size.  The
    mask-th team holds the rows whose bits are set in mask, rows numbered in
    ascending order, as `equiv_on_small_models` numbers them."""
    names = sorted(variables)
    values = itertools.product(range(size), repeat=len(names))
    rows = [dict(zip(names, row)) for row in values]
    for mask in range(1 << len(rows)):
        yield make_team(names, [row for i, row in enumerate(rows) if mask >> i & 1])


def alpha_equal(phi: Formula, psi: Formula) -> bool:
    """Structural equality up to consistent renaming of bound variables and
    the bracketing of &."""
    return alpha_key(phi) == alpha_key(psi)


# ---------------------------------------------------------------------------
# Random generators

def random_term(rng: random.Random, variables: list[str], voc: Vocabulary) -> "Var | Const | Apply":
    choices = ["var"] * 3
    if voc.constants:
        choices.append("const")
    if voc.functions:
        choices.append("apply")
    kind = rng.choice(choices)
    if kind == "var" and variables:
        return Var(rng.choice(variables))
    if kind == "apply":
        func = rng.choice(sorted(voc.functions))
        arity = voc.functions[func]
        return Apply(func, tuple(random_term(rng, variables, voc) for _ in range(arity)))
    if voc.constants:
        return Const(rng.choice(sorted(voc.constants)))
    return Var(rng.choice(variables))


def random_formula(
    rng: random.Random,
    voc: Vocabulary,
    variables: list[str],
    depth: int,
    allow_dep: bool = True,
    rebind: bool = False,
) -> Formula:
    """A random well-formed formula with free variables among `variables`
    plus anything it binds itself.  With rebind, a quantifier may bind a
    variable that is already in scope."""
    if depth <= 0 or rng.random() < 0.3:
        return _random_atom(rng, voc, variables, allow_dep)
    kind = rng.choice(["and", "or", "not", "exists", "forall", "atom"])
    if kind == "atom":
        return _random_atom(rng, voc, variables, allow_dep)
    if kind == "not":
        return Not(random_formula(rng, voc, variables, depth - 1, False, rebind))
    if kind in ("and", "or"):
        left = random_formula(rng, voc, variables, depth - 1, allow_dep, rebind)
        right = random_formula(rng, voc, variables, depth - 1, allow_dep, rebind)
        return And(left, right) if kind == "and" else Or(left, right)
    pool = [v for v in ("u", "v", "w") if v not in variables] or ["u"]
    var = rng.choice(sorted(set(variables) | {"u"}) if rebind else pool)
    body = random_formula(rng, voc, variables + [var], depth - 1, allow_dep, rebind)
    return Exists(var, body) if kind == "exists" else Forall(var, body)


def _random_atom(
    rng: random.Random, voc: Vocabulary, variables: list[str], allow_dep: bool
) -> Formula:
    kinds = ["eq"]
    if voc.relations:
        kinds += ["rel", "rel"]
    if allow_dep:
        kinds.append("dep")
    kind = rng.choice(kinds)
    if kind == "rel":
        name = rng.choice(sorted(voc.relations))
        arity = voc.relations[name]
        return Rel(name, tuple(random_term(rng, variables, voc) for _ in range(arity)))
    if kind == "dep":
        n = rng.randint(0, min(3, max(1, len(variables))))
        return Dep(tuple(random_term(rng, variables, voc) for _ in range(n)))
    return Eq(random_term(rng, variables, voc), random_term(rng, variables, voc))


def random_fo_formula(
    rng: random.Random, voc: Vocabulary, variables: list[str], depth: int, rebind: bool = False
) -> Formula:
    return random_formula(rng, voc, variables, depth, allow_dep=False, rebind=rebind)


def term_value(m: Model, env: dict[str, int], t) -> int:
    if isinstance(t, Var):
        return env[t.name]
    if isinstance(t, Const):
        return m.constants[t.name]
    return m.functions[t.func][tuple(term_value(m, env, u) for u in t.args)]


def tarski(m: Model, env: dict[str, int], phi: Formula) -> bool:
    """Tarski truth of a first-order formula by plain recursion over a dict
    assignment, written apart from `deplogic.semantics`."""
    if isinstance(phi, Rel):
        return tuple(term_value(m, env, t) for t in phi.args) in m.relations.get(phi.name, ())
    if isinstance(phi, Eq):
        return term_value(m, env, phi.left) == term_value(m, env, phi.right)
    if isinstance(phi, Not):
        return not tarski(m, env, phi.body)
    if isinstance(phi, (And, Or)):
        sides = (tarski(m, env, phi.left), tarski(m, env, phi.right))
        return all(sides) if isinstance(phi, And) else any(sides)
    assert isinstance(phi, (Exists, Forall)), phi
    outcomes = [tarski(m, {**env, phi.var: a}, phi.body) for a in range(m.size)]
    return any(outcomes) if isinstance(phi, Exists) else all(outcomes)


def team_holds(m: Model, rows: list[dict[str, int]], phi: Formula) -> bool:
    """Team satisfaction transcribed clause by clause, written apart from
    `deplogic.semantics`: the team is a list of dict assignments, and there
    is no pruning and no memo.  Disjunction tries every split, existential
    quantification every supplement function."""
    if is_first_order(phi):
        return all(tarski(m, row, phi) for row in rows)
    if isinstance(phi, Dep):
        # The last term is a function of the others; dep() always holds.
        table: dict[tuple[int, ...], int] = {}
        for row in rows:
            values = [term_value(m, row, t) for t in phi.args]
            if values and table.setdefault(tuple(values[:-1]), values[-1]) != values[-1]:
                return False
        return True
    if isinstance(phi, And):
        return team_holds(m, rows, phi.left) and team_holds(m, rows, phi.right)
    if isinstance(phi, Or):
        return any(
            team_holds(m, [r for r, b in zip(rows, side) if b], phi.left)
            and team_holds(m, [r for r, b in zip(rows, side) if not b], phi.right)
            for side in itertools.product((True, False), repeat=len(rows))
        )
    x, values = phi.var, range(m.size)
    if isinstance(phi, Forall):
        return team_holds(m, _distinct([{**r, x: a} for r in rows for a in values]), phi.body)
    assert isinstance(phi, Exists), phi
    return any(
        team_holds(m, _distinct([{**r, x: a} for r, a in zip(rows, choice)]), phi.body)
        for choice in itertools.product(values, repeat=len(rows))
    )


def _distinct(rows: list[dict[str, int]]) -> list[dict[str, int]]:
    """The rows as a set: a rebound variable can merge them."""
    return [dict(items) for items in sorted({tuple(sorted(r.items())) for r in rows})]


def random_model(rng: random.Random, voc: Vocabulary, size: int) -> Model:
    relations = {}
    for name, arity in voc.relations.items():
        tuples = list(itertools.product(range(size), repeat=arity))
        relations[name] = frozenset(t for t in tuples if rng.random() < 0.5)
    functions = {}
    for name, arity in voc.functions.items():
        keys = itertools.product(range(size), repeat=arity)
        functions[name] = {k: rng.randrange(size) for k in keys}
    constants = {name: rng.randrange(size) for name in voc.constants}
    return Model(size, relations, functions, constants)


def random_team(
    rng: random.Random, variables: list[str], size: int, max_rows: int
) -> Team:
    all_rows = [
        Assignment(tuple(zip(variables, values)))
        for values in itertools.product(range(size), repeat=len(variables))
    ]
    count = rng.randint(0, min(max_rows, len(all_rows)))
    return Team(frozenset(variables), frozenset(rng.sample(all_rows, count)))


def random_normal_form(rng: random.Random, voc: Vocabulary = VOC_R1C) -> NormalFormSentence:
    """A small random normal form over {R/1, c}: 1-2 universals, 1-2
    existentials, each existential possibly determined by earlier variables."""
    m = rng.randint(1, 2)
    n = rng.randint(1, 2) if m == 1 else 1
    universals = tuple(f"x{i}" for i in range(m))
    existentials = tuple(f"y{i}" for i in range(n))
    atoms = []
    for i, y in enumerate(existentials):
        if rng.random() < 0.6:
            scope = list(universals) + list(existentials[:i])
            w = tuple(v for v in scope if rng.random() < 0.6)
            atoms.append((w, y))
    variables = list(universals + existentials)
    matrix = random_fo_formula(rng, voc, variables, depth=2)
    while not _quantifier_free(matrix):
        matrix = random_fo_formula(rng, voc, variables, depth=2)
    return NormalFormSentence(universals, existentials, tuple(atoms), matrix)


def entails_on_small_models(
    premises: list[Formula], conclusion: Formula, max_size: int = 2
) -> bool:
    """Whether every team that satisfies all the premises satisfies the
    conclusion, in every model of size at most max_size over the symbols the
    formulas use; teams range over all their free variables."""
    formulas = [*premises, conclusion]
    voc = Vocabulary()
    for phi in formulas:
        voc = voc.merged(infer_vocabulary(phi))
    variables = frozenset().union(*map(free_vars, formulas))
    for size in range(1, max_size + 1):
        for m in enumerate_models(voc, size):
            for team in enumerate_teams(size, variables):
                if all(satisfies(m, team, p) for p in premises) and not satisfies(
                    m, team, conclusion
                ):
                    return False
    return True


def _quantifier_free(phi: Formula) -> bool:
    from deplogic.syntax import is_quantifier_free

    return is_quantifier_free(phi)


# ---------------------------------------------------------------------------
# Sentence corpus (text, vocabulary) for the normal-form tests

THETA1_TEXT = "exists z. forall x. exists y. (dep(y,x) & ~(y = z))"
EXAMPLE3_TEXT = "forall x. exists y. exists z. (dep(y,z) & (x = z & ~(y = c)))"

CORPUS: list[tuple[str, str, Vocabulary]] = [
    ("theta1", THETA1_TEXT, VOC_C),
    ("example3", EXAMPLE3_TEXT, VOC_C),
    ("dep_after_matrix", "forall x. exists y. (~(y = x) & dep(y))", VOC_EMPTY),
    ("fo_disjunction", "(exists x. R(x)) | (forall y. ~R(y))", VOC_R1),
    ("nested_exists_dep", "exists x. (R(x) & exists y. (dep(x, y) & ~(x = y)))", VOC_R1),
    ("dep_or_branch", "forall x. (dep(x) | R(x))", VOC_R1),
    ("empty_dep_conj", "dep() & exists x. R(x)", VOC_R1),
    ("bare_exists_dep", "exists x. dep(x)", VOC_EMPTY),
    (
        "two_universals",
        "forall x. forall y. exists z. (dep(y, z) & (R(z) | ~(x = y)))",
        VOC_R1,
    ),
    ("exists_forall_fo", "exists x. forall y. (R(x) | ~R(y))", VOC_R1),
    ("function_dep", "forall x. dep(f(x), x)", VOC_F1),
    ("conj_prenex", "(exists x. R(x)) & (exists y. ~R(y))", VOC_R1),
]
