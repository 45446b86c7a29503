"""Seeded natural-deduction scripts whose verdict is known by construction.

A script is a sequence of independent gadgets.  Each gadget is a short
correct derivation using one or a few of the checker's 23 rules; no gadget
refers to another's steps, and assumptions a gadget leaves open are passed
as hypotheses.  A mutant replaces the conclusion of a gadget's last step by
a formula the rule does not license.  No later step cites that step, so the
checker must reject exactly the mutated steps.  Rule 8 conclusions are built
here from the definition of the second approximation, not by the program.
"""

from __future__ import annotations

import random

from inputs import V, conj, dep, disj, eq, exists, forall, neg, rel
from oracle import text

C, D = ("const", "c"), ("const", "d")


def f_(t):
    return ("app", "f", (t,))


ATOMS = [rel("P", C), rel("P", D), rel("Q", C), rel("Q", D), rel("R", C, D),
         rel("R", D, C), rel("R", C, f_(D)), rel("P", f_(C)), eq(C, D), eq(f_(C), D),
         rel("Q", f_(D))]
VARIABLES = ["x", "y", "u", "v", "w"]


class Gadget:
    """Steps are (formula, rule, premises, discharged) with 0-based local
    references.  `mutant` is a replacement formula for the last step."""

    def __init__(self, steps, mutant):
        self.steps = steps
        self.mutant = mutant


def _atoms(rng, n):
    return rng.sample(ATOMS, n)


def _vars(rng, n):
    return [V(v) for v in rng.sample(VARIABLES, n)]


def g_and(rng):
    a, b = _atoms(rng, 2)
    return Gadget([(a, "assume", (), ()), (b, "assume", (), ()),
                   (("and", a, b), "and_i", (0, 1), ()), (a, "and_e_l", (2,), ()),
                   (b, "and_e_r", (2,), ())], a)


def g_or_intro(rng):
    a, b = _atoms(rng, 2)
    return Gadget([(a, "assume", (), ()), (disj(a, b), "or_i_l", (0,), ()),
                   (disj(b, a), "or_i_r", (0,), ())], disj(a, b))


def g_or_elim(rng):
    a, b = _atoms(rng, 2)
    goal = disj(b, a)
    return Gadget([(disj(a, b), "assume", (), ()), (a, "assume", (), ()),
                   (goal, "or_i_r", (1,), ()), (b, "assume", (), ()),
                   (goal, "or_i_l", (3,), ()), (goal, "or_e", (0, 2, 4), (1, 3))], disj(a, b))


def g_neg_intro(rng):
    (a,) = _atoms(rng, 1)
    return Gadget([(a, "assume", (), ()), (neg(a), "assume", (), ()),
                   (("and", a, neg(a)), "and_i", (0, 1), ()),
                   (neg(a), "neg_i", (2,), (0,))], a)


def g_neg_elim(rng):
    (a,) = _atoms(rng, 1)
    return Gadget([(neg(neg(a)), "assume", (), ()), (a, "neg_e", (0,), ())], neg(a))


def g_quantifiers(rng):
    a, b = _vars(rng, 2)
    t = rng.choice([C, D, f_(C), f_(D)])
    return Gadget([(eq(a, a), "identity", (), ()), (forall(a[1], eq(a, a)), "forall_i", (0,), ()),
                   (eq(t, t), "forall_e", (1,), ()), (exists(b[1], eq(b, b)), "exists_i", (2,), ())],
                  exists(b[1], rel("P", b)))


def g_exists_elim(rng):
    a, b = _vars(rng, 2)
    r = rng.choice(["P", "Q"])
    other = "Q" if r == "P" else "P"
    return Gadget([(exists(a[1], rel(r, a)), "assume", (), ()), (rel(r, a), "assume", (), ()),
                   (exists(b[1], rel(r, b)), "exists_i", (1,), ()),
                   (exists(b[1], rel(r, b)), "exists_e", (0, 2), (1,))],
                  exists(b[1], rel(other, b)))


def g_disjunctions(rng):
    a, b, c = _atoms(rng, 3)
    return Gadget([(disj(disj(a, b), c), "assume", (), ()),
                   (disj(a, disj(b, c)), "disj_assoc", (0,), ()),
                   (disj(disj(b, c), a), "disj_comm", (1,), ())], disj(a, disj(b, c)))


def g_disj_subst(rng):
    a, b, c = _atoms(rng, 3)
    return Gadget([(disj(a, b), "assume", (), ()), (b, "assume", (), ()),
                   (disj(c, b), "or_i_r", (1,), ()),
                   (disj(a, disj(c, b)), "disj_subst", (0, 2), (1,))], disj(disj(c, b), a))


def g_scope(rng):
    (v,) = _vars(rng, 1)
    a, b = _atoms(rng, 2)
    return Gadget([(disj(forall(v[1], rel("P", v)), a), "assume", (), ()),
                   (forall(v[1], disj(rel("P", v), a)), "scope_forall", (0,), ()),
                   (disj(exists(v[1], rel("Q", v)), b), "assume", (), ()),
                   (exists(v[1], disj(rel("Q", v), b)), "scope_exists", (2,), ())],
                  forall(v[1], disj(rel("Q", v), b)))


def g_unnest(rng):
    a, zv = _vars(rng, 2)
    inner = rng.choice([C, D, a])
    return Gadget([(dep(f_(inner), a), "assume", (), ()),
                   (exists(zv[1], ("and", dep(zv, a), eq(zv, f_(inner)))), "unnest", (0,), ())],
                  exists(zv[1], ("and", dep(zv, a), eq(zv, D))))


def g_dep_distribute(rng):
    a, b, c = _vars(rng, 3)
    left = exists(b[1], ("and", dep(a, b), rel("P", b)))
    right = exists(c[1], ("and", dep(a, c), rel("Q", c)))
    good = exists(b[1], exists(c[1], conj([dep(a, b), dep(a, c), disj(rel("P", b), rel("Q", c))])))
    bad = exists(b[1], exists(c[1], ("and", dep(a, b), disj(rel("P", b), rel("Q", c)))))
    return Gadget([(disj(left, right), "assume", (), ()), (good, "dep_distribute", (0,), ())], bad)


def g_dep_intro(rng):
    a, b, w = _vars(rng, 3)
    if rng.random() < 0.5:
        body, context = rel("R", a, b), []
    else:
        body, context = disj(rel("R", a, b), rel("P", w)), [w]
    good = forall(b[1], exists(a[1], ("and", dep(*context, a), body)))
    bad = forall(b[1], exists(a[1], ("and", dep(b, a), body)))
    return Gadget([(exists(a[1], forall(b[1], body)), "assume", (), ()),
                   (good, "dep_intro", (0,), ())], bad)


def _rename(f, mapping):
    kind = f[0]
    if kind == "var":
        return ("var", mapping.get(f[1], f[1]))
    if kind == "const":
        return f
    if kind == "app":
        return ("app", f[1], tuple(_rename(t, mapping) for t in f[2]))
    if kind in ("rel",):
        return (kind, f[1], tuple(_rename(t, mapping) for t in f[2]))
    if kind == "dep":
        return (kind, tuple(_rename(t, mapping) for t in f[1]))
    if kind == "eq":
        return (kind, _rename(f[1], mapping), _rename(f[2], mapping))
    if kind == "not":
        return (kind, _rename(f[1], mapping))
    if kind in ("and", "or"):
        return (kind, _rename(f[1], mapping), _rename(f[2], mapping))
    return (kind, mapping.get(f[1], f[1]), _rename(f[2], mapping))


def second_approximation(universals, existentials, atoms, matrix, guards=True):
    """Rule 8's conclusion: two rounds of the quantifier block, the second
    guarded by one uniformity condition per existential (its own dep atom's
    arguments, or all universals when it has none)."""
    own = {yv: w for w, yv in atoms}
    specs = [(own.get(yv, tuple(universals)), yv) for yv in existentials]
    rounds = [{v: f"{v}{level}" for v in universals + existentials} for level in (0, 1)]

    def wrap(level, body):
        for v in reversed(existentials):
            body = exists(rounds[level][v], body)
        for v in reversed(universals):
            body = forall(rounds[level][v], body)
        return body

    def guard(w, yv):
        same = eq(V(rounds[0][yv]), V(rounds[1][yv]))
        if not w:
            return same
        return disj(neg(conj([eq(V(rounds[0][v]), V(rounds[1][v])) for v in w])), same)

    inner_parts = [_rename(matrix, rounds[1])]
    if guards:
        inner_parts += [guard(w, yv) for w, yv in specs]
    inner = wrap(1, conj(inner_parts))
    return wrap(0, conj([_rename(matrix, rounds[0]), inner]))


def g_dep_elim(rng):
    a, b, e = (v[1] for v in _vars(rng, 3))
    shape = rng.randrange(3)
    if shape == 0:
        matrix = rng.choice([rel("R", V(a), V(b)), disj(rel("P", V(a)), rel("Q", V(b))),
                             neg(eq(V(a), V(b)))])
        ex, atoms = [b], [((a,), b)]
    elif shape == 1:
        matrix = rng.choice([rel("R", V(b), V(e)), disj(rel("P", V(e)), eq(V(a), V(b)))])
        ex, atoms = [b, e], [((a,), b), ((b,), e)]
    else:
        matrix = rng.choice([rel("R", V(b), V(e)), ("and", rel("P", V(b)), neg(eq(V(a), V(e))))])
        ex, atoms = [b, e], [((b,), e)]
    body = conj([dep(*map(V, w), V(yv)) for w, yv in atoms] + [matrix])
    for v in reversed(ex):
        body = exists(v, body)
    premise = forall(a, body)
    return Gadget([(premise, "assume", (), ()),
                   (second_approximation([a], ex, atoms, matrix), "dep_elim", (0,), ())],
                  second_approximation([a], ex, atoms, matrix, guards=False))


def g_identity(rng):
    s, t = rng.sample([C, D], 2)
    u_ = f_(rng.choice([C, D]))
    r = rng.choice(["P", "Q"])
    return Gadget([(eq(s, s), "identity", (), ()), (eq(s, t), "assume", (), ()),
                   (eq(t, s), "identity", (1,), ()), (eq(t, u_), "assume", (), ()),
                   (eq(s, u_), "identity", (1, 3), ()), (rel(r, s), "assume", (), ()),
                   (rel(r, t), "identity", (1, 5), ())], rel(r, u_))


def g_condition3(rng):
    """forall_i over a variable free in an open assumption: the mutant
    breaks Condition 3; the correct version generalises an axiom."""
    (a,) = _vars(rng, 1)
    return Gadget([(rel("P", a), "assume", (), ()), (eq(a, a), "identity", (), ()),
                   (forall(a[1], eq(a, a)), "forall_i", (1,), ())],
                  None)


GADGETS = [g_and, g_or_intro, g_or_elim, g_neg_intro, g_neg_elim, g_quantifiers,
           g_exists_elim, g_disjunctions, g_disj_subst, g_scope, g_unnest,
           g_dep_distribute, g_dep_intro, g_dep_elim, g_identity, g_condition3]


class Script:
    def __init__(self, text, hypotheses, failing, rules):
        self.text = text  # proof script
        self.hypotheses = hypotheses  # hypotheses file
        self.failing = failing  # step indices the checker must reject
        self.rules = rules  # rule name -> number of steps


def script(rng: random.Random, length: int, mutants: int) -> Script:
    """A script of exactly `length` steps, with `mutants` gadgets' last steps
    broken.  Gadgets come in whole cycles of all of them, each cycle in an
    order of the seed's: scripts of one length hold nearly the same mix of
    rules, and so cost nearly the same to check, whatever the seed."""
    gadgets, cycle = [], []
    total = 0
    while True:
        if not cycle:
            cycle = list(GADGETS)
            rng.shuffle(cycle)
        g = cycle.pop()(rng)
        if total + len(g.steps) > length:
            break
        gadgets.append(g)
        total += len(g.steps)
    broken = set(rng.sample(range(len(gadgets)), mutants))
    lines, failing, hypotheses, rules = [], [], [], {}
    index = 0
    for gi, g in enumerate(gadgets):
        base = index
        steps = list(g.steps)
        if gi in broken:
            formula, rule, prem, dis = steps[-1]
            if g.mutant is None:  # Condition 3: generalise the assumption's variable
                var = steps[0][0][2][0]
                steps[-1] = (forall(var[1], steps[0][0]), rule, (0,), dis)
            else:
                steps[-1] = (g.mutant, rule, prem, dis)
            failing.append(base + len(steps))
        discharged = {d for _, _, _, ds in steps for d in ds}
        for local, (formula, rule, prem, dis) in enumerate(steps):
            index += 1
            refs = " ".join(str(base + 1 + p) for p in prem)
            line = f"{index}. {text(formula)} {rule}" + (f" {refs}" if refs else "")
            if dis:
                line += " discharge " + " ".join(str(base + 1 + d) for d in dis)
            lines.append(line)
            rules[rule] = rules.get(rule, 0) + 1
            if rule == "assume" and local not in discharged:
                hyp = text(formula)
                if hyp not in hypotheses:
                    hypotheses.append(hyp)
    while index < length:  # pad with t = t axioms
        index += 1
        lines.append(f"{index}. {text(eq(C, C))} identity")
        rules["identity"] = rules.get("identity", 0) + 1
    return Script("\n".join(lines) + "\n", "\n".join(hypotheses) + "\n", failing, rules)
