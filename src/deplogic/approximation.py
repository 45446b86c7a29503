"""First-order approximations of normal-form sentences.

The n-th approximation unrolls the quantifier block of a normal form n
times with round-indexed variable copies.  Uniformity guards equate the
witnesses of two rounds whenever the dependence arguments agree, one guard
per entry of the guard set (the sentence's own dependence atoms plus a
default atom over all universals for each undetermined existential).

Later rounds only add conjuncts, so Phi^(n+1) |= Phi^n: once false, the
chain stays false.  On a model of size k, with m universals, Phi |= Phi^n
and Phi^(k**m) is equivalent to Phi, so the chain is constant from k**m on.
"""

from __future__ import annotations

from typing import Optional

from .syntax import (
    Dep,
    Eq,
    Formula,
    Not,
    Or,
    Var,
    conjoin,
    fresh_variable,
    quantify,
    rename_free,
)
from .normalform import DepAtomSpec, NormalFormSentence, reassemble
from .semantics import Model, sentence_true


GuardSet = tuple[DepAtomSpec, ...]


def build_guard_set(nf: NormalFormSentence) -> GuardSet:
    """One guard per existential: its own dep atom if determined, otherwise
    the default atom over all universals; ordered by existential position."""
    own = {y: (w, y) for w, y in nf.dep_atoms}
    return tuple(
        own.get(y, (tuple(nf.universals), y)) for y in nf.existentials
    )


def _round_renamings(nf: NormalFormSentence, n: int) -> list[dict[str, str]]:
    bases = list(nf.universals) + list(nf.existentials)
    used = set(bases)
    rounds = []
    for level in range(n):
        mapping = {}
        for base in bases:
            name = fresh_variable(used, f"{base}_{level}")
            mapping[base] = name
        rounds.append(mapping)
    return rounds


def _guard(
    spec: DepAtomSpec, earlier: dict[str, str], current: dict[str, str]
) -> Formula:
    """(w_j = w_l) -> (y_j = y_l); an empty antecedent leaves the bare equality."""
    w, y = spec
    consequent = Eq(Var(earlier[y]), Var(current[y]))
    antecedents = [Eq(Var(earlier[v]), Var(current[v])) for v in w]
    if not antecedents:
        return consequent
    return Or(Not(conjoin(antecedents)), consequent)


def _unroll(nf: NormalFormSentence, n: int, keep_atoms: bool) -> Formula:
    """n rounds of the prefix, each over its renamed matrix and the guards
    against every earlier round; with keep_atoms, the innermost round also
    keeps the sentence's own dependence atoms, renamed."""
    if n < 1:
        raise ValueError("approximation index must be at least 1")
    guards = build_guard_set(nf)
    rounds = _round_renamings(nf, n)
    block: Optional[Formula] = None
    for level in reversed(range(n)):
        current = rounds[level]
        parts: list[Formula] = [rename_free(nf.matrix, current)]
        if keep_atoms and level == n - 1:
            parts.extend(
                Dep(tuple(Var(current[v]) for v in w + (y,))) for w, y in nf.dep_atoms
            )
        for j in range(level):
            parts.extend(_guard(g, rounds[j], current) for g in guards)
        if block is not None:
            parts.append(block)
        block = quantify([(kind, current[v]) for kind, v in nf.prefix], conjoin(parts))
    assert block is not None
    return block


def build_approximation(nf: NormalFormSentence, n: int) -> Formula:
    """The n-th first-order approximation (n >= 1)."""
    return _unroll(nf, n, keep_atoms=False)


def build_omega(nf: NormalFormSentence, n: int) -> Formula:
    """The strengthened approximation: the innermost round keeps the
    sentence's own dependence atoms.  For n = 1 this is the sentence itself."""
    if n == 1:
        return reassemble(nf)
    return _unroll(nf, n, keep_atoms=True)


def approximation_chain_check(
    nf: NormalFormSentence, m: Model, up_to: int
) -> list[bool]:
    """Truth values of the first up_to approximations on a finite model.
    Only unsettled ones are built and evaluated, first-order: the chain
    stops after its first false value (later rounds only add conjuncts) and
    at k**m (Phi |= Phi^n and Phi^(k**m) is equivalent to Phi on size k),
    and the remaining entries repeat the last value computed."""
    if up_to < 1:
        raise ValueError("up_to must be at least 1")
    values: list[bool] = []
    for i in range(1, min(up_to, m.size ** len(nf.universals)) + 1):
        values.append(sentence_true(m, build_approximation(nf, i)))
        if not values[-1]:
            break
    return values + values[-1:] * (up_to - len(values))
