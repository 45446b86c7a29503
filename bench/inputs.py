"""Seeded inputs and the answers known for them in closed form.

Every formula, model, team and equivalence pair comes from `random.Random`
seeded with the workload seed, so the same seed gives the same inputs.  The
sentence families are the ones whose truth is known without running a
search:

* injection  forall x. exists y. exists z. (dep(y,z) & x = z & P(y)) on a
  model of size k with |P| = p: true iff p >= k; its n-th approximation is
  true iff min(n, k) <= p.  With ~(y = c) in place of P(y) it is the paper's
  example 3 (p = k - 1).
* theta1     exists z. forall x. exists y. (dep(y,x) & ~(y = z) & (P(x) | ~P(x))):
  false on every finite model.
* two_universal  forall x. forall u. exists y. (dep(x,y) & (R(x,y) | x = u) & (P(u) | ~P(u))):
  on k >= 2, true iff every element has an R-successor.
* theta1_or_all  (theta1 without the tautology) | forall x. P(x): true iff p = k.
* unnest     forall x. exists y. (dep(f(x), y) & P(y)): true iff p >= 1.

Each three-conjunct family comes in two spellings of the same conjunction:
"right" is a & (b & c), "flat" is a & b & c, which the parser nests left.
"""

from __future__ import annotations

import random

from oracle import Structure

VOCABULARY = {"P": 1, "Q": 1, "R": 2}
FUNCTIONS = {"f": 1}
CONSTANTS = ("c", "d")
VOCAB_TEXT = "relation P/1\nrelation Q/1\nrelation R/2\nfunction f/1\nconstant c\nconstant d\n"


def V(name):
    return ("var", name)


def rel(name, *args):
    return ("rel", name, tuple(args))


def eq(a, b):
    return ("eq", a, b)


def dep(*args):
    return ("dep", tuple(args))


def neg(f):
    return ("not", f)


def disj(a, b):
    return ("or", a, b)


def conj(parts, spelling="right"):
    """a & (b & c) for "right", (a & b) & c for "flat"."""
    if spelling == "right":
        out = parts[-1]
        for p in reversed(parts[:-1]):
            out = ("and", p, out)
        return out
    out = parts[0]
    for p in parts[1:]:
        out = ("and", out, p)
    return out


def forall(v, f):
    return ("forall", v, f)


def exists(v, f):
    return ("exists", v, f)


x, y, z, u = V("x"), V("y"), V("z"), V("u")


def injection(spelling: str, example3: bool = False):
    last = neg(eq(y, ("const", "c"))) if example3 else rel("P", y)
    return forall("x", exists("y", exists("z", conj([dep(y, z), eq(x, z), last], spelling))))


def theta1(spelling: str):
    taut = disj(rel("P", x), neg(rel("P", x)))
    return exists("z", forall("x", exists("y", conj([dep(y, x), neg(eq(y, z)), taut], spelling))))


def two_universal(spelling: str):
    taut = disj(rel("P", u), neg(rel("P", u)))
    body = conj([dep(x, y), disj(rel("R", x, y), eq(x, u)), taut], spelling)
    return forall("x", forall("u", exists("y", body)))


def theta1_or_all():
    left = exists("z", forall("x", exists("y", ("and", dep(y, x), neg(eq(y, z))))))
    return disj(left, forall("x", rel("P", x)))


def unnest():
    return forall("x", exists("y", ("and", dep(("app", "f", (x,)), y), rel("P", y))))


# Number of universal quantifiers of each family: the normal form keeps them,
# so the approximation index k**m unrolls every universal tuple.
UNIVERSALS = {"injection": 1, "example3": 1, "theta1": 1, "two_universal": 2,
              "theta1_or_all": 2, "unnest": 1}


def family(name: str, spelling: str = "right"):
    if name in ("injection", "example3"):
        return injection(spelling, name == "example3")
    if name == "theta1":
        return theta1(spelling)
    if name == "two_universal":
        return two_universal(spelling)
    if name == "theta1_or_all":
        return theta1_or_all()
    return unnest()


def truth(name: str, m: Structure) -> bool:
    """Closed-form truth value of a family member on a model."""
    k, p = m.size, len(m.relations["P"])
    if name == "injection":
        return p >= k
    if name == "example3":
        return False
    if name == "theta1":
        return False
    if name == "two_universal":
        return all(any((a, b) in m.relations["R"] for b in range(k)) for a in range(k))
    if name == "theta1_or_all":
        return p == k
    return p >= 1


def approximation_truth(name: str, m: Structure, n: int):
    """Closed form of the n-th approximation where one is known, else None."""
    if name == "injection":
        return min(n, m.size) <= len(m.relations["P"])
    if name == "example3":
        return min(n, m.size) <= m.size - 1
    return None


def model(rng: random.Random, k: int, p: int, successors: bool = True,
          dense: bool = False) -> Structure:
    """A model of size k with P = {0, ..., p-1}.  R is the successor cycle
    a -> a+1 mod k (complete if dense); with successors=False one element
    has no successor.  Q, f, c and d are random.

    P and R are fixed by the wanted answer rather than drawn, because the
    cost of a team search or of evaluating an approximation depends on
    where the witnesses lie: drawing them would make the work per round
    differ from seed to seed."""
    elements = list(range(k))
    R = {(a, b) for a in elements for b in elements} if dense else {
        (a, (a + 1) % k) for a in elements}
    if not successors:
        lonely = rng.choice(elements)
        R = {(a, b) for a, b in R if a != lonely}
    return Structure(
        k,
        {"P": {(a,) for a in range(p)},
         "Q": {(a,) for a in rng.sample(elements, rng.randint(0, k))},
         "R": R},
        {"f": {(a,): rng.randrange(k) for a in elements}},
        {c: rng.randrange(k) for c in CONSTANTS},
    )


def family_model(rng: random.Random, name: str, k: int, target: bool,
                 dense: bool = False) -> Structure:
    """A model on which the family member has the wanted closed-form truth.
    False injection instances keep p = k - 1, the hardest case."""
    if name == "injection":
        return model(rng, k, k if target else k - 1)
    if name == "two_universal":
        return model(rng, k, k, successors=target, dense=dense)
    if name == "theta1_or_all":
        return model(rng, k, k if target else k - 1)
    if name == "unnest":
        return model(rng, k, 1 if target else 0)
    return model(rng, k, k // 2)


def model_text(m: Structure) -> str:
    return m.text(dict(VOCABULARY, **FUNCTIONS))


# ---------------------------------------------------------------------------
# Formula pairs with free variables for the small-model equivalence oracle.
# Commuted and reassociated pairs are equivalent by definition; the others
# have a counterexample on two elements, which is re-checked by the oracle.

def _pair_atoms(rng: random.Random):
    # The oracle enumerates teams over the sorted free variables, so the
    # variables keep their order to keep the work the same for every seed.
    a, b = sorted(rng.sample(["u", "w", "x", "y"], 2))
    r1, r2 = rng.sample(["P", "Q"], 2)
    return V(a), V(b), r1, r2


def equivalence_pair(rng: random.Random, template: str):
    """(left, right, equivalent) for one of the pair templates."""
    a, b, r1, r2 = _pair_atoms(rng)
    if template == "or_commute":
        left = disj(dep(a, b), rel(r1, a))
        return left, disj(left[2], left[1]), True
    if template == "and_reassociate":
        parts = [dep(a), rel(r1, b), dep(b)]
        return conj(parts, "flat"), conj(parts, "right"), True
    if template == "or_reassociate":
        p, q, r = dep(a, b), rel(r1, a), dep(b)
        return disj(disj(p, q), r), disj(p, disj(q, r)), True
    if template == "and_commute":
        return ("and", dep(a, b), rel(r1, a)), ("and", rel(r1, a), dep(a, b)), True
    if template == "mixed_commute":
        return (("and", disj(dep(a, b), rel(r1, b)), rel(r2, a)),
                ("and", rel(r2, a), disj(rel(r1, b), dep(a, b))), True)
    if template == "or_idempotent":
        return disj(dep(a, b), dep(a, b)), dep(a, b), False
    if template == "or_weakens":
        return disj(dep(a), rel(r1, a)), dep(a), False
    return ("and", dep(a, b), rel(r1, a)), disj(dep(a, b), rel(r1, a)), False


PAIR_TEMPLATES = ("or_commute", "and_reassociate", "or_reassociate", "and_commute",
                  "mixed_commute", "or_idempotent", "or_weakens", "and_or")
