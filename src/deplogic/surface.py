"""Concrete syntax: formulas, models, teams, vocabularies, and proof scripts.

All formats are line-oriented text; `#` starts a comment.  One tokenizer
reads every format, and one cursor over its tokens reads every grammar, so
each error points at the token where reading stopped.  The formula grammar
is parsed with the vocabulary in hand, so identifiers are classified as
relations, functions, constants, or variables at parse time.  Printing is
canonical: parse(print(ast)) is structurally identical to ast.
"""

from __future__ import annotations

import re
from typing import Callable, Iterator, NamedTuple, TypeVar

from .diagnostics import Diagnostic, ParseError, Span
from .syntax import (
    EMPTY_VOCABULARY,
    KEYWORDS,
    And,
    Apply,
    Const,
    Dep,
    Eq,
    Exists,
    Forall,
    Formula,
    NegationScopeError,
    Not,
    Or,
    Rel,
    Term,
    Var,
    Vocabulary,
)
from .semantics import Assignment, Model, Team
from .proofs import Proof, ProofStep, RULES

_T = TypeVar("_T")


# ---------------------------------------------------------------------------
# Tokenizer

# Whitespace matches no alternative, so `finditer` skips it without making
# tokens; `\S` catches every character that no format uses.
_TOKEN = re.compile(
    r"(?P<INT>[0-9]+)|(?P<IDENT>[A-Za-z_][A-Za-z0-9_]*)|->|[(){}\[\],./=&|~∀∃∧∨¬]"
    r"|(?P<COMMENT>#)|(?P<BAD>\S)"
)
# Token kinds that differ from the token's text and from its group's name.
_KINDS = {
    **{word: word for word in KEYWORDS},
    "∀": "forall", "∃": "exists", "∧": "&", "∨": "|", "¬": "~",
}
_ENDS = {"NL": "end of line", "EOF": "end of input"}


class _Token(NamedTuple):
    kind: str  # INT IDENT forall exists dep ( ) { } [ ] , . / = & | ~ -> NL EOF
    value: str
    line: int
    col: int

    def __str__(self) -> str:
        return _ENDS.get(self.kind) or repr(self.value)

    def error(self, message: str) -> ParseError:
        end = self.col + max(1, len(self.value))
        return ParseError(Diagnostic(message, Span(self.line, self.col, end)))


def _tokenize(text: str) -> Iterator[list[_Token]]:
    """For each line that holds a token: its tokens, then an NL token where
    its text ends.  Last, an EOF token at the end of the last line.  Lines
    are read as they are asked for, so only one is held at a time."""
    lines = text.splitlines() or [""]
    for line_no, line in enumerate(lines, start=1):
        tokens: list[_Token] = []
        end = len(line)
        for m in _TOKEN.finditer(line):
            kind, value = m.lastgroup, m.group()
            if kind == "COMMENT":
                end = m.start()
                break
            if kind == "BAD":
                raise _Token(kind, value, line_no, m.start()).error(
                    f"unexpected character {value!r}"
                )
            tokens.append(_Token(_KINDS.get(value, kind or value), value, line_no, m.start()))
        if tokens:
            tokens.append(_Token("NL", "", line_no, end))
            yield tokens
    yield [_Token("EOF", "", len(lines), len(lines[-1]))]


# ---------------------------------------------------------------------------
# Reading tokens

class _Cursor:
    """A position in the tokenized lines, with one reader per grammar piece."""

    def __init__(
        self, lines: Iterator[list[_Token]], voc: Vocabulary = EMPTY_VOCABULARY
    ) -> None:
        self.lines = lines
        self.tokens = next(lines)
        self.pos = 0
        self.voc = voc

    def peek(self, offset: int = 0) -> _Token:
        return self.tokens[self.pos + offset]

    def next(self) -> _Token:
        tok = self.tokens[self.pos]
        if tok.kind == "NL":
            self.tokens, self.pos = next(self.lines), 0
        elif tok.kind != "EOF":
            self.pos += 1
        return tok

    def accept(self, kind: str) -> bool:
        if self.tokens[self.pos].kind == kind:
            self.next()
            return True
        return False

    def expect(self, kind: str, what: str) -> _Token:
        tok = self.next()
        if tok.kind != kind:
            raise tok.error(f"expected {what}, found {tok}")
        return tok

    def name(self, what: str) -> _Token:
        """An identifier that is not a keyword."""
        tok = self.next()
        if tok.kind in KEYWORDS:
            raise tok.error(f"{tok.value!r} is reserved")
        if tok.kind != "IDENT":
            raise tok.error(f"expected {what}, found {tok}")
        return tok

    def items(self, close: str, item: Callable[[], _T]) -> list[_T]:
        """`item, ..., item` up to the `close` bracket, which is consumed;
        the opening bracket has been read.  The list may be empty, an item
        may not."""
        out: list[_T] = []
        if self.accept(close):
            return out
        while True:
            out.append(item())
            tok = self.next()
            if tok.kind == close:
                return out
            if tok.kind != ",":
                raise tok.error(f"expected ',' or '{close}', found {tok}")

    def element(self, size: int, what: str) -> int:
        tok = self.expect("INT", "a domain element")
        value = int(tok.value)
        if value >= size:
            raise tok.error(f"{what} {value} out of domain 0..{size - 1}")
        return value

    def row(self, size: int, arity: int, what: str) -> tuple[int, ...]:
        """`(e, ..., e)`, or one bare element."""
        start = self.peek()
        if self.accept("("):
            values = tuple(self.items(")", lambda: self.element(size, what)))
        else:
            values = (self.element(size, what),)
        if len(values) != arity:
            raise start.error(f"tuple has {len(values)} entries, expected {arity}")
        return values

    def declaration(self, declared: set[str]) -> tuple[str, str, int]:
        """`relation NAME/ARITY`, `function NAME/ARITY` or `constant NAME`;
        the name is added to `declared`."""
        kw = self.next()
        if kw.value not in ("relation", "function", "constant"):
            raise kw.error(f"expected `relation`, `function` or `constant`, found {kw}")
        name = self.name("a symbol name")
        if name.value in declared:
            raise name.error(f"duplicate symbol {name.value}")
        declared.add(name.value)
        if kw.value == "constant":
            return kw.value, name.value, 0
        self.expect("/", "'/' after the symbol name")
        arity_tok = self.expect("INT", "an arity")
        arity = int(arity_tok.value)
        if kw.value == "function" and arity < 1:
            raise arity_tok.error("function arity must be positive")
        return kw.value, name.value, arity

    # formula grammar -------------------------------------------------------

    def formula(self) -> Formula:
        if self.peek().kind in ("forall", "exists"):
            return self.quantified()
        return self.disjunction()

    def quantified(self) -> Formula:
        kw = self.next()
        var = self.name("a variable name")
        if self.voc.declares(var.value):
            raise var.error(f"bound variable {var.value!r} collides with a declared symbol")
        self.expect(".", "'.' after the bound variable")
        body = self.formula()
        return Forall(var.value, body) if kw.kind == "forall" else Exists(var.value, body)

    def disjunction(self) -> Formula:
        f = self.conjunction()
        while self.accept("|"):
            f = Or(f, self.conjunction())
        return f

    def conjunction(self) -> Formula:
        f = self.unary()
        while self.accept("&"):
            f = And(f, self.unary())
        return f

    def unary(self) -> Formula:
        tok = self.peek()
        if tok.kind == "~":
            self.next()
            body = self.unary()
            try:
                return Not(body)
            except NegationScopeError:
                raise tok.error(
                    "negation may only be applied to first-order formulas"
                ) from None
        if tok.kind in ("forall", "exists"):
            return self.quantified()
        if tok.kind == "(":
            self.next()
            f = self.formula()
            self.expect(")", "')'")
            return f
        return self.atom()

    def atom(self) -> Formula:
        tok = self.peek()
        if tok.kind in ("dep", "=") and self.peek(1).kind == "(":
            self.pos += 2
            return Dep(tuple(self.items(")", self.term)))
        if tok.kind == "IDENT" and tok.value in self.voc.relations:
            self.next()
            args = self.items(")", self.term) if self.accept("(") else []
            arity = self.voc.relations[tok.value]
            if len(args) != arity:
                raise tok.error(
                    f"relation {tok.value} expects {arity} arguments, got {len(args)}"
                )
            return Rel(tok.value, tuple(args))
        left = self.term()
        self.expect("=", "'=' after a term")
        return Eq(left, self.term())

    def term(self) -> Term:
        tok = self.name("a term")
        name = tok.value
        if name in self.voc.functions:
            self.expect("(", f"'(' after function {name}")
            args = self.items(")", self.term)
            arity = self.voc.functions[name]
            if len(args) != arity:
                raise tok.error(
                    f"function {name} expects {arity} arguments, got {len(args)}"
                )
            return Apply(name, tuple(args))
        if name in self.voc.constants:
            return Const(name)
        if name in self.voc.relations:
            raise tok.error(f"relation {name} used in term position")
        return Var(name)


def parse_formula(src: str, voc: Vocabulary) -> Formula:
    """Parse a formula; identifiers are classified against the vocabulary.
    The formula may span lines."""
    tokens = [t for line in _tokenize(src) for t in line if t.kind != "NL"]
    cursor = _Cursor(iter([tokens]), voc)
    f = cursor.formula()
    cursor.expect("EOF", "end of input")
    return f


# ---------------------------------------------------------------------------
# Formula printing

_ASCII = {"forall": "forall ", "exists": "exists ", "and": "&", "or": "|", "not": "~"}
_PRETTY = {"forall": "∀", "exists": "∃", "and": "∧", "or": "∨", "not": "¬"}


def format_term(t: Term) -> str:
    if isinstance(t, (Var, Const)):
        return t.name
    assert isinstance(t, Apply)
    return f"{t.func}({', '.join(format_term(a) for a in t.args)})"


def print_formula(phi: Formula, unicode_symbols: bool = False) -> str:
    """Canonical text; binary connectives are fully parenthesized."""
    sym = _PRETTY if unicode_symbols else _ASCII

    def operand(f: Formula) -> str:
        if isinstance(f, (Exists, Forall)):
            return f"({go(f)})"
        return go(f)

    def go(f: Formula) -> str:
        if isinstance(f, Rel):
            if not f.args:
                return f.name
            return f"{f.name}({', '.join(format_term(a) for a in f.args)})"
        if isinstance(f, Eq):
            return f"{format_term(f.left)} = {format_term(f.right)}"
        if isinstance(f, Dep):
            return f"dep({', '.join(format_term(a) for a in f.args)})"
        if isinstance(f, Not):
            if isinstance(f.body, (Rel, Not)):
                return sym["not"] + go(f.body)
            return sym["not"] + f"({go(f.body)})"
        if isinstance(f, And):
            return f"({operand(f.left)} {sym['and']} {operand(f.right)})"
        if isinstance(f, Or):
            return f"({operand(f.left)} {sym['or']} {operand(f.right)})"
        if isinstance(f, Exists):
            return f"{sym['exists']}{f.var}. {go(f.body)}"
        assert isinstance(f, Forall)
        return f"{sym['forall']}{f.var}. {go(f.body)}"

    return go(phi)


# ---------------------------------------------------------------------------
# Vocabulary files

def parse_vocabulary(src: str) -> Vocabulary:
    """Declarations only: `relation R/2`, `function f/1`, `constant c`."""
    cursor = _Cursor(_tokenize(src))
    arities: dict[str, dict[str, int]] = {"relation": {}, "function": {}, "constant": {}}
    declared: set[str] = set()
    while cursor.peek().kind != "EOF":
        kind, name, arity = cursor.declaration(declared)
        arities[kind][name] = arity
        cursor.expect("NL", "end of line")
    return Vocabulary(
        arities["relation"], arities["function"], frozenset(arities["constant"])
    )


# ---------------------------------------------------------------------------
# Model files

def parse_model(src: str) -> tuple[Vocabulary, Model]:
    """Parse a total finite structure.

    Format: a `domain <k>` line first, then `constant c = <elt>`,
    `relation R/<arity> = {(...), ...}`, and
    `function f/<arity> = [<args>-><val>, ...]` lines in any order.
    """
    cursor = _Cursor(_tokenize(src))
    head = cursor.next()
    if head.kind == "EOF":
        raise head.error("empty model file")
    if head.value != "domain":
        raise head.error("a model file must start with `domain <k>`")
    size_tok = cursor.expect("INT", "the domain size")
    size = int(size_tok.value)
    if size < 1:
        raise size_tok.error("domain must be non-empty")
    cursor.expect("NL", "end of line")

    relations: dict[str, frozenset[tuple[int, ...]]] = {}
    rel_arities: dict[str, int] = {}
    functions: dict[str, dict[tuple[int, ...], int]] = {}
    fn_arities: dict[str, int] = {}
    constants: dict[str, int] = {}
    declared: set[str] = set()

    while cursor.peek().kind != "EOF":
        kind, name, arity = cursor.declaration(declared)
        cursor.expect("=", "'='")
        if kind == "constant":
            constants[name] = cursor.element(size, f"constant {name} value")
        elif kind == "relation":
            cursor.expect("{", "'{'")
            entry = f"relation {name} entry"
            rows = cursor.items("}", lambda: cursor.row(size, arity, entry))
            relations[name] = frozenset(rows)
            rel_arities[name] = arity
        else:
            table: dict[tuple[int, ...], int] = {}

            def mapping() -> None:
                start = cursor.peek()
                args = cursor.row(size, arity, f"function {name} argument")
                cursor.expect("->", "'->'")
                value = cursor.element(size, f"function {name} value")
                if args in table:
                    raise start.error(f"function {name} defines {args} twice")
                table[args] = value

            bracket = cursor.expect("[", "'['")
            cursor.items("]", mapping)
            if len(table) != size**arity:
                raise bracket.error(
                    f"partial table for function {name}: "
                    f"{size**arity - len(table)} entries missing"
                )
            functions[name] = table
            fn_arities[name] = arity
        cursor.expect("NL", "end of line")

    voc = Vocabulary(rel_arities, fn_arities, frozenset(constants))
    model = Model(size, relations, functions, constants)
    return voc, model


def format_model(voc: Vocabulary, m: Model) -> str:
    """Model text that round-trips through parse_model."""
    out = [f"domain {m.size}"]
    for name in sorted(m.constants):
        out.append(f"constant {name} = {m.constants[name]}")
    for name in sorted(m.relations):
        arity = voc.relations.get(name, 0)
        tuples = sorted(m.relations[name])
        body = ", ".join("(" + ", ".join(map(str, t)) + ")" for t in tuples)
        out.append(f"relation {name}/{arity} = {{{body}}}")
    for name in sorted(m.functions):
        table = m.functions[name]
        arity = len(next(iter(table)))
        entries = []
        for args in sorted(table):
            args_text = (
                str(args[0]) if arity == 1 else "(" + ", ".join(map(str, args)) + ")"
            )
            entries.append(f"{args_text}->{table[args]}")
        out.append(f"function {name}/{arity} = [{', '.join(entries)}]")
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# Team files

def parse_team(src: str, m: Model) -> Team:
    """Parse `vars x y` followed by one whitespace-separated row per line;
    `()` is the one row of a team without variables."""
    cursor = _Cursor(_tokenize(src))
    head = cursor.next()
    if head.kind == "EOF":
        raise head.error("empty team file")
    if head.value != "vars":
        raise head.error("a team file must start with a `vars` line")
    variables: list[str] = []
    while not cursor.accept("NL"):
        var = cursor.name("a variable name")
        if var.value in variables:
            raise var.error("a variable is named twice")
        if var.value in m.constants or var.value in m.functions or var.value in m.relations:
            raise var.error(f"variable {var.value} collides with a model symbol")
        variables.append(var.value)

    rows: set[Assignment] = set()
    while cursor.peek().kind != "EOF":
        start = cursor.peek()
        values: list[int] = []
        if cursor.accept("("):
            cursor.expect(")", "')'")
        else:
            while cursor.peek().kind != "NL":
                values.append(cursor.element(m.size, "value"))
        if len(values) != len(variables):
            raise start.error(f"row has {len(values)} values, expected {len(variables)}")
        cursor.expect("NL", "end of line")
        rows.add(Assignment(tuple(zip(variables, values))))
    return Team(frozenset(variables), frozenset(rows))


def format_team(team: Team) -> str:
    variables = sorted(team.variables)
    out = ["vars " + " ".join(variables) if variables else "vars"]
    for row in team.sorted_rows():
        if variables:
            mapping = row.as_dict()
            out.append(" ".join(str(mapping[v]) for v in variables))
        else:
            out.append("()")
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# Proof scripts

def parse_proof(src: str, voc: Vocabulary) -> Proof:
    """Parse `<idx>. <formula> <rule> [premises] [discharge <idx list>]` lines."""
    cursor = _Cursor(_tokenize(src), voc)
    steps: list[ProofStep] = []
    seen: set[int] = set()

    def references() -> tuple[int, ...]:
        refs = []
        while cursor.peek().kind == "INT":
            tok = cursor.next()
            if int(tok.value) not in seen:
                raise tok.error(f"dangling reference to step {tok.value}")
            refs.append(int(tok.value))
        return tuple(refs)

    while cursor.peek().kind != "EOF":
        index_tok = cursor.expect("INT", "a step index")
        index = int(index_tok.value)
        if index <= (steps[-1].index if steps else 0):
            raise index_tok.error(f"step indices must increase (got {index})")
        cursor.expect(".", "'.' after the step index")
        formula = cursor.formula()
        rule = cursor.expect("IDENT", "a rule name")
        if rule.value not in RULES:
            raise rule.error(f"unknown rule name {rule.value!r}")
        premises = references()
        discharged: tuple[int, ...] = ()
        if cursor.peek().value == "discharge":
            cursor.next()
            if cursor.peek().kind != "INT":
                raise cursor.peek().error("`discharge` must be followed by step indices")
            discharged = references()
        cursor.expect("NL", "end of line")
        steps.append(ProofStep(index, formula, rule.value, premises, discharged))
        seen.add(index)

    if not steps:
        raise cursor.peek().error("empty proof script")
    return Proof(tuple(steps))


def parse_hypotheses(src: str, voc: Vocabulary) -> list[Formula]:
    """One formula per line."""
    cursor = _Cursor(_tokenize(src), voc)
    out = []
    while cursor.peek().kind != "EOF":
        out.append(cursor.formula())
        cursor.expect("NL", "end of line")
    return out
