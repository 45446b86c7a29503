"""Answers computed apart from deplogic.

Formulas are plain tuples:

    ("rel", name, terms)   ("eq", t1, t2)   ("dep", terms)   ("not", f)
    ("and", a, b)   ("or", a, b)   ("exists", var, f)   ("forall", var, f)

with terms ("var", name), ("const", name) and ("app", func, terms).  A model
is a `Structure`.  Nothing here imports deplogic: the benchmark prints these
formulas as input text, reads the program's printed output back with its own
parser, and evaluates it with its own evaluators.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass, field


@dataclass
class Structure:
    size: int
    relations: dict = field(default_factory=dict)  # name -> set of tuples
    functions: dict = field(default_factory=dict)  # name -> {args: value}
    constants: dict = field(default_factory=dict)  # name -> element

    def text(self, arities: dict) -> str:
        """The model file format read by `parse_model`."""
        lines = [f"domain {self.size}"]
        for name, value in sorted(self.constants.items()):
            lines.append(f"constant {name} = {value}")
        for name, tuples in sorted(self.relations.items()):
            body = ", ".join("(" + ", ".join(map(str, t)) + ")" for t in sorted(tuples))
            lines.append(f"relation {name}/{arities[name]} = {{{body}}}")
        for name, table in sorted(self.functions.items()):
            body = ", ".join(f"{args[0]}->{v}" for args, v in sorted(table.items()))
            lines.append(f"function {name}/1 = [{body}]")
        return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Printing: the input text handed to the program


def term_text(t) -> str:
    if t[0] == "app":
        return f"{t[1]}({', '.join(term_text(a) for a in t[2])})"
    return t[1]


def text(f) -> str:
    """Input syntax.  A left-nested chain of one connective prints without
    inner brackets (`a & b & c`), which the grammar reads back left-nested."""
    kind = f[0]
    if kind == "rel":
        return f[1] if not f[2] else f"{f[1]}({', '.join(term_text(t) for t in f[2])})"
    if kind == "eq":
        return f"{term_text(f[1])} = {term_text(f[2])}"
    if kind == "dep":
        return f"dep({', '.join(term_text(t) for t in f[1])})"
    if kind == "not":
        body = f[1]
        if body[0] in ("rel", "not"):
            return "~" + text(body)
        return f"~({text(body)})"
    if kind in ("and", "or"):
        sym = "&" if kind == "and" else "|"
        return f"({_chain(f, kind, sym)})"
    return f"{kind} {f[1]}. {text(f[2])}"


def _chain(f, kind: str, sym: str) -> str:
    left, right = f[1], f[2]
    left_text = _chain(left, kind, sym) if left[0] == kind else _operand(left)
    return f"{left_text} {sym} {_operand(right)}"


def _operand(f) -> str:
    if f[0] in ("exists", "forall"):
        return f"({text(f)})"
    return text(f)


# ---------------------------------------------------------------------------
# Parsing the program's printed output (ASCII or Unicode symbols)

_SYMBOLS = {"∀": " forall ", "∃": " exists ", "∧": " & ", "∨": " | ", "¬": " ~ "}
_TOKEN = re.compile(r"\s*(?:([A-Za-z_][A-Za-z0-9_]*)|(.))")


class OutputSyntaxError(ValueError):
    pass


def parse(source: str, relations: set, functions: set, constants: set):
    for sym, word in _SYMBOLS.items():
        source = source.replace(sym, word)
    tokens = [m.group(1) or m.group(2) for m in _TOKEN.finditer(source.strip())]
    tokens = [t for t in tokens if t and not t.isspace()]
    p = _Parser(tokens, relations, functions, constants)
    f = p.formula()
    if p.pos != len(tokens):
        raise OutputSyntaxError(f"trailing input at token {p.pos}: {tokens[p.pos:][:5]}")
    return f


class _Parser:
    def __init__(self, tokens, relations, functions, constants):
        self.tokens, self.pos = tokens, 0
        self.relations, self.functions, self.constants = relations, functions, constants

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self, expected=None):
        tok = self.peek()
        if tok is None or (expected is not None and tok != expected):
            raise OutputSyntaxError(f"expected {expected!r} at token {self.pos}, got {tok!r}")
        self.pos += 1
        return tok

    def formula(self):
        if self.peek() in ("forall", "exists"):
            return self.quantified()
        f = self.conjunction()
        while self.peek() == "|":
            self.take()
            f = ("or", f, self.conjunction())
        return f

    def quantified(self):
        kind = self.take()
        var = self.take()
        self.take(".")
        return (kind, var, self.formula())

    def conjunction(self):
        f = self.unary()
        while self.peek() == "&":
            self.take()
            f = ("and", f, self.unary())
        return f

    def unary(self):
        tok = self.peek()
        if tok == "~":
            self.take()
            return ("not", self.unary())
        if tok in ("forall", "exists"):
            return self.quantified()
        if tok == "(":
            self.take()
            f = self.formula()
            self.take(")")
            return f
        if tok == "dep":
            self.take()
            return ("dep", self.arguments())
        if tok in self.relations:
            self.take()
            return ("rel", tok, self.arguments() if self.peek() == "(" else ())
        left = self.term()
        self.take("=")
        return ("eq", left, self.term())

    def arguments(self):
        self.take("(")
        args = []
        while self.peek() != ")":
            if args:
                self.take(",")
            args.append(self.term())
        self.take(")")
        return tuple(args)

    def term(self):
        name = self.take()
        if name in self.functions:
            return ("app", name, self.arguments())
        if name in self.constants:
            return ("const", name)
        return ("var", name)


# ---------------------------------------------------------------------------
# Structure of formulas


def has_dep(f) -> bool:
    kind = f[0]
    if kind == "dep":
        return True
    if kind in ("rel", "eq"):
        return False
    if kind == "not":
        return has_dep(f[1])
    if kind in ("and", "or"):
        return has_dep(f[1]) or has_dep(f[2])
    return has_dep(f[2])


def conjuncts(f) -> list:
    """All conjuncts, whatever the nesting."""
    if f[0] == "and":
        return conjuncts(f[1]) + conjuncts(f[2])
    return [f]


def prefix(f):
    """Leading quantifiers as (kind, var) pairs, and the body under them."""
    out = []
    while f[0] in ("forall", "exists"):
        out.append((f[0], f[1]))
        f = f[2]
    return out, f


# ---------------------------------------------------------------------------
# First-order truth


def value(m: Structure, env: dict, t) -> int:
    if t[0] == "var":
        return env[t[1]]
    if t[0] == "const":
        return m.constants[t[1]]
    return m.functions[t[1]][tuple(value(m, env, a) for a in t[2])]


def holds(m: Structure, env: dict, f) -> bool:
    """Tarski truth of a first-order formula under an assignment."""
    kind = f[0]
    if kind == "rel":
        return tuple(value(m, env, t) for t in f[2]) in m.relations.get(f[1], ())
    if kind == "eq":
        return value(m, env, f[1]) == value(m, env, f[2])
    if kind == "not":
        return not holds(m, env, f[1])
    if kind == "and":
        return holds(m, env, f[1]) and holds(m, env, f[2])
    if kind == "or":
        return holds(m, env, f[1]) or holds(m, env, f[2])
    if kind in ("exists", "forall"):
        test = any if kind == "exists" else all
        return test(holds(m, {**env, f[1]: a}, f[2]) for a in range(m.size))
    raise ValueError("dependence atom in a first-order formula")


# ---------------------------------------------------------------------------
# Team semantics for quantifier-free formulas (re-checking counterexamples)


def team_holds(m: Structure, rows: list, f) -> bool:
    """Satisfaction of a quantifier-free dependence formula by a team, given
    as a list of dicts: first-order parts row by row, dep atoms as functional
    dependence, disjunction by trying every split of the rows."""
    if not has_dep(f):
        return all(holds(m, row, f) for row in rows)
    kind = f[0]
    if kind == "dep":
        seen = {}
        for row in rows:
            key = tuple(value(m, row, t) for t in f[1][:-1])
            if seen.setdefault(key, value(m, row, f[1][-1])) != value(m, row, f[1][-1]):
                return False
        return True
    if kind == "and":
        return team_holds(m, rows, f[1]) and team_holds(m, rows, f[2])
    if kind == "or":
        for mask in range(1 << len(rows)):
            left = [r for i, r in enumerate(rows) if mask >> i & 1]
            right = [r for i, r in enumerate(rows) if not mask >> i & 1]
            if team_holds(m, left, f[1]) and team_holds(m, right, f[2]):
                return True
        return False
    raise ValueError(f"team evaluation covers quantifier-free formulas, got {kind}")


# ---------------------------------------------------------------------------
# Truth of a sentence in normal form, by a search for Skolem tables


def normal_form_true(m: Structure, sentence) -> bool:
    """Truth of forall x.. exists y.. (dep atoms & first-order matrix).

    The team under the universals is every tuple; each existential picks a
    value per tuple, and each dep atom requires equal argument values to give
    equal determined values across the whole team.  Backtracking over the
    tuples fills the dependence tables as it goes."""
    quantifiers, body = prefix(sentence)
    universals = [v for k, v in quantifiers if k == "forall"]
    existentials = [v for k, v in quantifiers if k == "exists"]
    if [k for k, _ in quantifiers] != ["forall"] * len(universals) + ["exists"] * len(existentials):
        raise ValueError("not in forall*exists* shape")
    parts = conjuncts(body)
    deps = [p for p in parts if p[0] == "dep"]
    matrix = [p for p in parts if p[0] != "dep"]
    if any(has_dep(p) for p in matrix):
        raise ValueError("dependence atom inside the matrix")
    # A dep atom is checked once its last variable is chosen; the
    # matrix once every existential is.
    checks_at = {y: [] for y in existentials}
    for d in deps:
        names = [t[1] for t in d[1]]
        if not names or names[-1] not in checks_at:
            raise ValueError("dep atom must determine an existential")
        checks_at[names[-1]].append((tuple(names[:-1]), names[-1]))
    rows = list(itertools.product(range(m.size), repeat=len(universals)))
    tables = {atom: {} for y in existentials for atom in checks_at[y]}

    def place(row_index: int, position: int, env: dict) -> bool:
        if position == len(existentials):
            if not all(holds(m, env, p) for p in matrix):
                return False
            return solve(row_index + 1)
        y = existentials[position]
        for a in range(m.size):
            env[y] = a
            added = []
            ok = True
            for atom in checks_at[y]:
                key = tuple(env[w] for w in atom[0])
                table = tables[atom]
                if key in table:
                    if table[key] != a:
                        ok = False
                        break
                else:
                    table[key] = a
                    added.append((table, key))
            if ok and place(row_index, position + 1, env):
                return True
            for table, key in added:
                del table[key]
        del env[y]
        return False

    def solve(row_index: int) -> bool:
        if row_index == len(rows):
            return True
        return place(row_index, 0, dict(zip(universals, rows[row_index])))

    return solve(0)


# ---------------------------------------------------------------------------
# Reading the text formats the program prints


def read_model(source: str) -> Structure:
    lines = [ln.strip() for ln in source.splitlines() if ln.strip()]
    size = int(lines[0].split()[1])
    m = Structure(size)
    for line in lines[1:]:
        if line.startswith("constant"):
            name, val = re.fullmatch(r"constant (\w+) = (\d+)", line).groups()
            m.constants[name] = int(val)
        elif line.startswith("relation"):
            name, body = re.fullmatch(r"relation (\w+)/\d+ = \{(.*)\}", line).groups()
            m.relations[name] = {
                tuple(int(x) for x in re.findall(r"\d+", t))
                for t in re.findall(r"\(([^)]*)\)", body)
            }
        else:
            raise OutputSyntaxError(f"unexpected model line {line!r}")
    return m


def read_team(lines: list) -> list:
    variables = lines[0].split()[1:]
    return [dict(zip(variables, map(int, ln.split()))) for ln in lines[1:] if ln != "()"]
