"""Team semantics over finite models.

`Team` and `Assignment` are only the form in which teams enter and leave
the module; every team operation runs on int bitmasks over numbered rows.
`satisfies` is the reference: a brute-force team search in which
disjunction enumerates complementary splits of the team (sound by downward
closure) and existential quantification enumerates supplement functions
row by row.  The search numbers the rows it can meet, once per evaluation,
and runs on teams as int bitmasks over those rows: each occurrence of a
subformula is compiled once per model into a closure from masks to
verdicts, with a memo of its own, and no formula is hashed.
`equiv_on_small_models` runs the same compiled search over every team of
a model.  `sentence_true` decides a sentence that is not first-order
through its normal form instead, by filling one table per dependence atom
(the Skolem reading of the normal form).  A budget caps the number of
candidates either search tries; exceeding it raises BudgetExceededError
rather than guessing.

First-order parts are evaluated one way everywhere, in both searches and
for first-order sentences: each is compiled once per model and call into
closures over a slot-indexed environment, which then run for every row,
value or tuple tried.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from operator import itemgetter, or_
from typing import Callable, Iterable, Iterator, Mapping, Optional

from .normalform import NormalFormError, NormalFormSentence, to_normal_form
from .syntax import (
    And,
    Apply,
    Const,
    Dep,
    Eq,
    Exists,
    Forall,
    Formula,
    Not,
    Or,
    Rel,
    Term,
    Var,
    Vocabulary,
    atom_terms,
    conjoin,
    conjuncts,
    free_vars,
    infer_vocabulary,
    is_first_order,
    is_sentence,
    operands,
)


class SemanticsError(Exception):
    """Base for evaluation errors."""


class TeamError(SemanticsError):
    """Malformed team: a row's domain differs, a variable is mapped twice, or
    a value lies outside the model."""


class FreeVariableError(SemanticsError):
    """A formula's free variables are not covered by the team domain."""


class SentenceError(SemanticsError):
    pass


class BudgetExceededError(SemanticsError):
    """The witness search ran out of budget; the answer is unknown."""


# ---------------------------------------------------------------------------
# Assignments and teams

@dataclass(frozen=True)
class Assignment:
    """An immutable finite map from variables to domain elements."""

    items: tuple[tuple[str, int], ...] = ()

    def __post_init__(self) -> None:
        items = tuple(sorted(self.items))
        names = [v for v, _ in items]
        if len(names) != len(set(names)):
            raise TeamError("assignment maps a variable twice")
        object.__setattr__(self, "items", items)

    @property
    def variables(self) -> frozenset[str]:
        return frozenset(v for v, _ in self.items)

    def as_dict(self) -> dict[str, int]:
        return dict(self.items)


@dataclass(frozen=True)
class Team:
    """A set of assignments sharing one variable domain."""

    variables: frozenset[str]
    rows: frozenset[Assignment]

    def __post_init__(self) -> None:
        object.__setattr__(self, "variables", frozenset(self.variables))
        object.__setattr__(self, "rows", frozenset(self.rows))
        for s in self.rows:
            if s.variables != self.variables:
                raise TeamError(
                    f"row domain {sorted(s.variables)} differs from team domain "
                    f"{sorted(self.variables)}"
                )

    def sorted_rows(self) -> list[Assignment]:
        return sorted(self.rows, key=lambda s: s.items)

    def __len__(self) -> int:
        return len(self.rows)


# ---------------------------------------------------------------------------
# Models

@dataclass(frozen=True)
class Model:
    """A total finite structure with domain {0, ..., size-1}."""

    size: int
    relations: Mapping[str, frozenset[tuple[int, ...]]] = field(default_factory=dict)
    functions: Mapping[str, Mapping[tuple[int, ...], int]] = field(default_factory=dict)
    constants: Mapping[str, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.size < 1:
            raise SemanticsError("model domain must be non-empty")
        object.__setattr__(
            self,
            "relations",
            {n: frozenset(tuple(t) for t in ts) for n, ts in self.relations.items()},
        )
        object.__setattr__(
            self,
            "functions",
            {n: dict(tbl) for n, tbl in self.functions.items()},
        )
        object.__setattr__(self, "constants", dict(self.constants))
        rng = range(self.size)
        for name, tuples in self.relations.items():
            for t in tuples:
                if any(a not in rng for a in t):
                    raise SemanticsError(f"relation {name} tuple {t} out of domain")
        for name, table in self.functions.items():
            arities = {len(args) for args in table}
            if len(arities) > 1:
                raise SemanticsError(f"function {name} table mixes arities")
            arity = arities.pop() if arities else 1
            expected = self.size ** arity
            if len(table) != expected:
                raise SemanticsError(
                    f"function {name} table is partial ({len(table)}/{expected} entries)"
                )
            for args, val in table.items():
                if any(a not in rng for a in args) or val not in rng:
                    raise SemanticsError(f"function {name} entry {args}->{val} out of domain")
        for name, val in self.constants.items():
            if val not in rng:
                raise SemanticsError(f"constant {name} value {val} out of domain")


# ---------------------------------------------------------------------------
# Budget

DEFAULT_BUDGET_POINTS = 10_000_000


@dataclass(frozen=True)
class SearchBudget:
    """Cap on enumerated witnesses.  In the team search of `satisfies` a
    point is one supplement function or one split tried; an occurrence of
    a subformula already decided on the same team is looked up in its memo
    and costs no point.  In the Skolem search of `sentence_true` a point is
    one value tried for one existential on one universal tuple, a value
    read from a table included."""

    max_choice_points: int = DEFAULT_BUDGET_POINTS

    def __post_init__(self) -> None:
        if self.max_choice_points < 1:
            raise SemanticsError("budget must be positive")


class _Counter:
    __slots__ = ("points", "remaining")

    def __init__(self, budget: SearchBudget) -> None:
        self.points = budget.max_choice_points
        self.reset()

    def reset(self) -> None:
        self.remaining = self.points

    def spend(self) -> None:
        self.remaining -= 1
        if self.remaining < 0:
            raise BudgetExceededError("search budget exhausted")


# ---------------------------------------------------------------------------
# Compiled first-order evaluation
#
# A term or first-order formula is compiled for one model into closures over
# an environment, a flat list with one slot per variable.  Free variables get
# the slots they are given; each quantifier gets the next slot by its depth,
# so a shadowed variable has a slot of its own, and its loop writes that
# slot.  Every caller slots every free variable.  Constants and function
# tables are looked up at compile time; a missing one raises only when
# evaluation reaches it.

_TermCode = Callable[[list[int]], int]
_Code = Callable[[list[int]], bool]


def _fail(message: str) -> _TermCode:
    def fail(env: list[int]) -> int:
        raise SemanticsError(message)

    return fail


def _compile_term(m: Model, t: Term, slots: Mapping[str, int]) -> _TermCode:
    if isinstance(t, Var):
        return itemgetter(slots[t.name])
    if isinstance(t, Const):
        if t.name not in m.constants:
            return _fail(f"constant {t.name} not interpreted")
        value = m.constants[t.name]
        return lambda env: value
    assert isinstance(t, Apply)
    if t.func not in m.functions:
        return _fail(f"function {t.func} not interpreted")
    table = m.functions[t.func]
    args = [_compile_term(m, u, slots) for u in t.args]
    if len(args) == 1:
        (arg,) = args
        return lambda env: table[(arg(env),)]
    return lambda env: table[tuple([f(env) for f in args])]


def _compile_atom(m: Model, phi: Formula, slots: Mapping[str, int]) -> _Code:
    terms = atom_terms(phi)
    plain = [slots[t.name] if isinstance(t, Var) else None for t in terms]
    direct = None not in plain
    if isinstance(phi, Eq):
        if direct:
            i, j = plain
            return lambda env: env[i] == env[j]
        left, right = (_compile_term(m, t, slots) for t in terms)
        return lambda env: left(env) == right(env)
    assert isinstance(phi, Rel)
    tuples = m.relations.get(phi.name, frozenset())
    if direct and len(plain) == 1:
        (i,) = plain
        return lambda env: (env[i],) in tuples
    if direct and plain:
        get = itemgetter(*plain)
        return lambda env: get(env) in tuples
    args = [_compile_term(m, t, slots) for t in terms]
    return lambda env: tuple([f(env) for f in args]) in tuples


def _compile(m: Model, phi: Formula, slots: Mapping[str, int]) -> tuple[_Code, int]:
    """The code of a first-order formula whose free variables have the slots
    0, ..., len(slots) - 1, and the length of the environment it needs: one
    more slot per level of binders."""
    base = width = len(slots)
    rng = range(m.size)

    def go(f: Formula, slots: Mapping[str, int], depth: int) -> _Code:
        nonlocal width
        if isinstance(f, (And, Or)):
            parts = [go(p, slots, depth) for p in operands(f)]
            stop = isinstance(f, Or)

            def chain(env: list[int]) -> bool:
                for p in parts:
                    if p(env) is stop:
                        return stop
                return not stop

            return chain
        if isinstance(f, Not):
            # A chain of ~ is one parity flip, so deep negation adds no closures.
            negated = True
            while isinstance(f.body, Not):
                f, negated = f.body, not negated
            body = go(f.body, slots, depth)
            return (lambda env: not body(env)) if negated else body
        if isinstance(f, (Exists, Forall)):
            i = base + depth
            width = max(width, i + 1)
            body = go(f.body, {**slots, f.var: i}, depth + 1)
            stop = isinstance(f, Exists)

            def quantifier(env: list[int]) -> bool:
                for a in rng:
                    env[i] = a
                    if body(env) is stop:
                        return stop
                return not stop

            return quantifier
        return _compile_atom(m, f, slots)

    code = go(phi, slots, 0)
    return code, width


def _slots(variables: Iterable[str]) -> dict[str, int]:
    return {v: i for i, v in enumerate(sorted(variables))}


# ---------------------------------------------------------------------------
# Team satisfaction
#
# A row space is a sorted list of value tuples, each in the sorted order of
# the space's variable names; a team is an int bitmask over it, row i being
# bit i.  The body of a quantifier on x lives in the child space: every row
# extended at x by every value, renumbered in sorted order.

_TeamCode = Callable[[int], bool]


def _members(mask: int) -> list[int]:
    """The indices of the set bits of mask, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


class _Space:
    """A row space: its variable names, its rows and each name's slot."""

    def __init__(self, names: tuple[str, ...], rows: list[tuple[int, ...]]) -> None:
        self.names, self.rows, self.slots = names, rows, _slots(names)


class _TeamCompiler:
    """Team formulas compiled for one model.  Each occurrence of a
    subformula gets a node of its own, whose only state is its memo from
    masks to verdicts; every node spends from one counter."""

    def __init__(self, m: Model, counter: _Counter) -> None:
        self.m, self.counter = m, counter

    def child(self, space: _Space, x: str) -> tuple[_Space, list[list[int]]]:
        """The child space of space at x, and for each row of space the bits
        of its extensions by the values 0, 1, ...  When x is a variable of
        space already, rows that differ only at x share their extensions."""
        names = tuple(sorted({*space.names, x}))
        extended = [
            [
                tuple({**dict(zip(space.names, row)), x: a}[v] for v in names)
                for a in range(self.m.size)
            ]
            for row in space.rows
        ]
        child = _Space(names, sorted({r for rs in extended for r in rs}))
        bit = {row: 1 << i for i, row in enumerate(child.rows)}
        return child, [[bit[r] for r in rs] for rs in extended]

    def holds(self, phi: Formula, space: _Space) -> int:
        """The mask of the rows of space where first-order phi holds."""
        code, width = _compile(self.m, phi, space.slots)
        pad = [0] * (width - len(space.names))
        return sum(1 << i for i, row in enumerate(space.rows) if code([*row, *pad]))

    def code(self, phi: Formula, space: _Space) -> _TeamCode:
        """A new node for this occurrence of phi over space."""
        if is_first_order(phi):
            # Clause 1: a first-order formula holds iff it holds row by row.
            fails = ~self.holds(phi, space)
            return lambda mask: not mask & fails
        if isinstance(phi, Dep):
            # The last term must be a function of the others on the team.
            terms = [_compile_term(self.m, t, space.slots) for t in phi.args]
            values = [tuple([f(list(row)) for f in terms]) for row in space.rows]
            table = [(v[:-1], v[-1:]) for v in values]

            def decide(mask: int) -> bool:
                seen: dict[tuple[int, ...], tuple[int, ...]] = {}
                for i in _members(mask):
                    key, value = table[i]
                    if seen.setdefault(key, value) != value:
                        return False
                return True

        elif isinstance(phi, And):
            parts = [phi.left, phi.right]
            # Check the flat side first; order is invisible to the verdict.
            if is_first_order(phi.right) and not is_first_order(phi.left):
                parts.reverse()
            first, second = (self.code(p, space) for p in parts)
            decide = lambda mask: first(mask) and second(mask)
        elif isinstance(phi, Or):
            left, right = self.code(phi.left, space), self.code(phi.right, space)
            spend = self.counter.spend

            def decide(mask: int) -> bool:
                # The splits (Y, X - Y), Y running over the sub-masks of X
                # in ascending order.
                sub = 0
                while True:
                    spend()
                    if left(sub) and right(mask ^ sub):
                        return True
                    if sub == mask:
                        return False
                    sub = (sub - mask) & mask

        elif isinstance(phi, Exists):
            decide = self._exists(phi, space)
        elif isinstance(phi, Forall):
            child, extensions = self.child(space, phi.var)
            body = self.code(phi.body, child)
            duplicates = [sum(bits) for bits in extensions]
            decide = lambda mask: body(
                functools.reduce(or_, [duplicates[i] for i in _members(mask)], 0)
            )
        else:
            raise AssertionError(f"unhandled connective {type(phi).__name__}")
        memo: dict[int, bool] = {}

        def node(mask: int) -> bool:
            verdict = memo.get(mask)
            if verdict is None:
                verdict = memo[mask] = decide(mask)
            return verdict

        return node

    def _exists(self, phi: Exists, space: _Space) -> _TeamCode:
        x, parts = phi.var, conjuncts(phi.body)
        flat = [p for p in parts if is_first_order(p)]
        rest = [p for p in parts if not is_first_order(p)]
        # Conjuncts not mentioning x hold on a supplemented team iff they hold
        # on the original one (locality), so they are settled up front.
        settled = [self.code(p, space) for p in rest if x not in free_vars(p)]
        # Dependence atoms are cheap to refute; check them before nested blocks.
        rest.sort(key=lambda p: not isinstance(p, Dep))
        child, extensions = self.child(space, x)
        searched = [self.code(p, child) for p in rest if x in free_vars(p)]
        # Clause-1 pruning: a first-order conjunct holds on the supplemented
        # team iff it holds on every extended row, so each row's admissible
        # witnesses, as bits of the child space, are fixed up front.
        holds = self.holds(conjoin(flat), child) if flat else -1
        choices = [[b for b in bits if holds & b] for bits in extensions]
        spend = self.counter.spend

        def decide(mask: int) -> bool:
            if not all(p(mask) for p in settled):
                return False
            admissible = [choices[i] for i in _members(mask)]
            if not all(admissible):
                return False
            if not searched:
                spend()
                return True
            for combo in itertools.product(*admissible):
                spend()
                team = functools.reduce(or_, combo, 0)
                if all(p(team) for p in searched):
                    return True
            return False

        return decide


def satisfies(
    m: Model,
    team: Team,
    phi: Formula,
    budget: Optional[SearchBudget] = None,
) -> bool:
    """Team satisfaction by exhaustive witness search.

    The team's sorted rows are the row space, and the team is its full mask.
    Disjunction tries the complementary splits (Y, X - Y); existential
    quantification tries supplement functions, one admissible value per row.
    Both are counted against the budget and enumerated in a fixed order, so
    answers are deterministic and never depend on the budget unless it runs
    out.

    A first-order part is decided row by row by compiled code, so `&`, `|`
    and `~` chains of any depth in it need no recursion.  Each connective or
    quantifier that is not first-order takes one Python frame to compile
    and to decide.
    """
    if not free_vars(phi) <= team.variables:
        raise FreeVariableError(
            f"free variables {sorted(free_vars(phi) - team.variables)} "
            "not in the team domain"
        )
    for s in team.rows:
        for _, a in s.items:
            if not 0 <= a < m.size:
                raise TeamError(f"team value {a} outside the model domain")
    rows = [tuple(a for _, a in s.items) for s in team.sorted_rows()]
    compiler = _TeamCompiler(m, _Counter(budget or SearchBudget()))
    code = compiler.code(phi, _Space(tuple(sorted(team.variables)), rows))
    return code((1 << len(rows)) - 1)


def sentence_true(
    m: Model, phi: Formula, budget: Optional[SearchBudget] = None
) -> bool:
    """Truth of a sentence: satisfaction by the team of the empty assignment.

    A first-order sentence is evaluated by Tarski semantics.  Any other is
    brought into normal form and decided by the Skolem search, which agrees
    with `satisfies` on the team of the empty assignment.  Whether the input
    is a sentence is read once, by the compiler's slot lookup or by the
    normal form's own check; either failing raises SentenceError.
    """
    if is_first_order(phi):
        try:
            code, width = _compile(m, phi, {})
        except KeyError:  # a variable with no slot is free
            pass
        else:
            return code([0] * width)
    else:
        try:
            nf = to_normal_form(phi)
        except NormalFormError:
            if is_sentence(phi):
                raise
        else:
            return _skolem_true(m, nf, _Counter(budget or SearchBudget()))
    raise SentenceError(f"formula has free variables {sorted(free_vars(phi))}")


def _skolem_true(m: Model, nf: NormalFormSentence, counter: _Counter) -> bool:
    """Whether there are tables, one per dependence atom dep(w, y) from
    w-values to the domain, and per-tuple choices for the other
    existentials, under which the matrix holds on every universal tuple.

    Backtracks over the slots (tuple, existential): tuples in a fixed order,
    existentials in prefix order.  A determined existential reads its table
    at the key given by w, or fills that entry and removes it again on
    backtracking.  Each matrix conjunct is checked as soon as its last
    variable is assigned.
    """
    xs, ys = nf.universals, nf.existentials
    order, nx, n = xs + ys, len(xs), len(ys)
    # Each variable's index in `values`, the environment of the checks.
    rank = {v: i for i, v in enumerate(order)}
    # The reader of each table's key in `values`: the values of w, or the
    # constant () for an atom with no arguments.
    readers = {
        y: itemgetter(*[rank[v] for v in w]) if w else lambda _: () for w, y in nf.dep_atoms
    }
    universal_checks: list[Formula] = []
    checks: list[list[Formula]] = [[] for _ in ys]
    for part in conjuncts(nf.matrix):
        last = max((rank[v] for v in free_vars(part)), default=-1)
        if last < nx:
            universal_checks.append(part)
        else:
            checks[last - nx].append(part)
    compiled = [
        _compile(m, conjoin(parts), rank) if parts else (None, len(rank))
        for parts in [universal_checks, *checks]
    ]
    values = [0] * max(width for _, width in compiled)
    universal, *due_code = [code for code, _ in compiled]
    rows = list(itertools.product(range(m.size), repeat=nx))
    # A conjunct over universals alone fails whatever the tables hold.
    if universal is not None:
        for row in rows:
            values[:nx] = row
            if not universal(values):
                return False

    # Per existential: its index in `values`, its table and key reader (None
    # for one that no atom determines) and its check.
    slots = [
        (nx + j, {} if y in readers else None, readers.get(y), due)
        for j, (y, due) in enumerate(zip(ys, due_code))
    ]
    tails = [range(a, m.size) for a in range(m.size + 1)]
    spend = counter.spend
    end = len(rows) * n
    chosen = [0] * end
    filled: list[object] = [None] * end
    # Slot p is (tuple r, existential j), p = r * n + j.  `values` holds
    # tuple r and the values chosen for its existentials before j.
    p = r = j = start = 0
    values[:nx] = rows[0]
    while p < end:
        i, table, key_at, due = slots[j]
        candidates = tails[start]
        if table is not None:
            key = key_at(values)
            fixed = table.get(key)
            if fixed is not None:
                # Fixed by an earlier slot: one candidate, tried once.
                candidates = (fixed,) if start == 0 else ()
        for a in candidates:
            spend()
            values[i] = a
            if due is None or due(values):
                break
        else:
            if p == 0:
                return False
            p -= 1
            if j:
                j -= 1
            else:
                r, j = r - 1, n - 1
                values[:nx] = rows[r]
                values[nx : nx + n] = chosen[p - j : p + 1]
            if filled[p] is not None:
                del slots[j][1][filled[p]]
                filled[p] = None
            start = chosen[p] + 1
            continue
        chosen[p] = a
        if table is not None and fixed is None:
            table[key] = a
            filled[p] = key
        p, j, start = p + 1, j + 1, 0
        if j == n and p < end:
            r, j = r + 1, 0
            values[:nx] = rows[r]
    return True


# ---------------------------------------------------------------------------
# Exhaustive equivalence oracle

@dataclass(frozen=True)
class Counterexample:
    model: Model
    team: Team
    left_value: bool
    right_value: bool


@dataclass(frozen=True)
class EquivResult:
    counterexample: Optional[Counterexample] = None

    @property
    def equivalent(self) -> bool:
        return self.counterexample is None


def enumerate_models(voc: Vocabulary, size: int) -> Iterator[Model]:
    """All models of the given domain size over a vocabulary, in a fixed order."""
    rng = range(size)
    rel_names = sorted(voc.relations)
    fn_names = sorted(voc.functions)
    const_names = sorted(voc.constants)

    rel_choices = []
    for name in rel_names:
        arity = voc.relations[name]
        tuples = sorted(itertools.product(rng, repeat=arity))
        subsets = []
        for mask in range(1 << len(tuples)):
            subsets.append(frozenset(t for i, t in enumerate(tuples) if mask >> i & 1))
        rel_choices.append(subsets)

    fn_choices = []
    for name in fn_names:
        arity = voc.functions[name]
        keys = sorted(itertools.product(rng, repeat=arity))
        tables = [
            dict(zip(keys, values))
            for values in itertools.product(rng, repeat=len(keys))
        ]
        fn_choices.append(tables)

    const_choices = [list(rng) for _ in const_names]

    for rels in itertools.product(*rel_choices):
        for fns in itertools.product(*fn_choices):
            for consts in itertools.product(*const_choices):
                yield Model(
                    size,
                    dict(zip(rel_names, rels)),
                    dict(zip(fn_names, fns)),
                    dict(zip(const_names, consts)),
                )


def _team(space: _Space, mask: int) -> Team:
    """The team of the rows of space whose bits are set in mask."""
    names, rows = space.names, space.rows
    return Team(
        frozenset(names),
        frozenset(Assignment(tuple(zip(names, rows[i]))) for i in _members(mask)),
    )


def equiv_on_small_models(
    phi: Formula,
    psi: Formula,
    max_size: int,
    budget: Optional[SearchBudget] = None,
) -> EquivResult:
    """Exhaustively compare two formulas on all models up to max_size.

    The vocabulary is inferred from the formulas' symbol uses.  Every team
    over the union of free variables is tried as a mask over all rows of
    the model, masks ascending, models in `enumerate_models` order; the
    first disagreement is reported.  The row space is built once per size;
    both formulas are compiled once per model over all its rows, so each
    occurrence of a subformula is decided at most once per team of a model.
    Each formula on each team gets the whole budget; what an earlier team
    of the same model decided is reused at no cost.  max_size must be at
    least 1.
    """
    if max_size < 1:
        raise ValueError(f"max_size must be at least 1, got {max_size}")
    voc = infer_vocabulary(phi).merged(infer_vocabulary(psi))
    names = tuple(sorted(free_vars(phi) | free_vars(psi)))
    counter = _Counter(budget or SearchBudget())
    for size in range(1, max_size + 1):
        space = _Space(names, list(itertools.product(range(size), repeat=len(names))))
        for m in enumerate_models(voc, size):
            compiler = _TeamCompiler(m, counter)
            left, right = compiler.code(phi, space), compiler.code(psi, space)
            for mask in range(1 << len(space.rows)):
                counter.reset()
                a = left(mask)
                counter.reset()
                b = right(mask)
                if a != b:
                    return EquivResult(Counterexample(m, _team(space, mask), a, b))
    return EquivResult()
