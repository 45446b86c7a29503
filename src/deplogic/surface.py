"""Concrete syntax: formulas, models, teams, vocabularies, and proof scripts.

All formats are line-oriented text; `#` starts a comment.  The formula
grammar is parsed with the vocabulary in hand, so identifiers are
classified as relations, functions, constants, or variables at parse time.
Printing is canonical: parse(print(ast)) is structurally identical to ast.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Union

from .diagnostics import Diagnostic, ParseError, SourceText, Span, error_at
from .syntax import (
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

_KEYWORDS = frozenset({"forall", "exists", "dep"})
_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_UNICODE_ALIASES = {"∀": "forall", "∃": "exists", "∧": "&", "∨": "|", "¬": "~"}


# ---------------------------------------------------------------------------
# Tokenizer

@dataclass(frozen=True)
class _Token:
    kind: str  # IDENT INT ( ) , . = & | ~ EOF
    value: str
    line: int
    col: int

    @property
    def span(self) -> Span:
        return Span(self.line, self.col, self.col + max(1, len(self.value)))


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    for line_no, line in enumerate(text.splitlines() or [""], start=1):
        i = 0
        limit = len(line)
        while i < limit:
            ch = line[i]
            if ch == "#":
                break
            if ch.isspace():
                i += 1
                continue
            if ch in _UNICODE_ALIASES:
                alias = _UNICODE_ALIASES[ch]
                kind = "IDENT" if alias.isalpha() else alias
                tokens.append(_Token(kind, alias, line_no, i))
                i += 1
                continue
            if ch in "(),.=&|~":
                tokens.append(_Token(ch, ch, line_no, i))
                i += 1
                continue
            if ch.isdigit():
                m = re.match(r"\d+", line[i:])
                assert m
                tokens.append(_Token("INT", m.group(), line_no, i))
                i += len(m.group())
                continue
            m = _IDENT_RE.match(line, i)
            if m:
                tokens.append(_Token("IDENT", m.group(), line_no, i))
                i = m.end()
                continue
            raise error_at(f"unexpected character {ch!r}", line_no, i, i + 1)
    last_line = text.count("\n") + 1
    tokens.append(_Token("EOF", "", last_line, 0))
    return tokens


# ---------------------------------------------------------------------------
# Formula parsing

class _FormulaParser:
    def __init__(self, tokens: list[_Token], voc: Vocabulary) -> None:
        self.tokens = tokens
        self.pos = 0
        self.voc = voc

    def peek(self, offset: int = 0) -> _Token:
        return self.tokens[min(self.pos + offset, len(self.tokens) - 1)]

    def next(self) -> _Token:
        tok = self.tokens[self.pos]
        if tok.kind != "EOF":
            self.pos += 1
        return tok

    def expect(self, kind: str, what: str) -> _Token:
        tok = self.next()
        if tok.kind != kind:
            raise ParseError(
                Diagnostic("error", f"expected {what}, found {tok.value or 'end of input'!r}", tok.span)
            )
        return tok

    def fail(self, tok: _Token, message: str) -> ParseError:
        return ParseError(Diagnostic("error", message, tok.span))

    # grammar ---------------------------------------------------------------

    def parse(self) -> Formula:
        f = self.formula()
        tok = self.peek()
        if tok.kind != "EOF":
            raise self.fail(tok, f"unexpected trailing input {tok.value!r}")
        return f

    def formula(self) -> Formula:
        tok = self.peek()
        if tok.kind == "IDENT" and tok.value in ("forall", "exists"):
            return self.quantified()
        return self.disjunction()

    def quantified(self) -> Formula:
        kw = self.next()
        var = self.expect("IDENT", "a variable name")
        if var.value in _KEYWORDS:
            raise self.fail(var, f"{var.value!r} is reserved")
        if self.voc.declares(var.value):
            raise self.fail(
                var, f"bound variable {var.value!r} collides with a declared symbol"
            )
        self.expect(".", "'.' after the bound variable")
        body = self.formula()
        return Forall(var.value, body) if kw.value == "forall" else Exists(var.value, body)

    def disjunction(self) -> Formula:
        f = self.conjunction()
        while self.peek().kind == "|":
            self.next()
            f = Or(f, self.conjunction())
        return f

    def conjunction(self) -> Formula:
        f = self.unary()
        while self.peek().kind == "&":
            self.next()
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
                raise self.fail(
                    tok, "negation may only be applied to first-order formulas"
                ) from None
        if tok.kind == "IDENT" and tok.value in ("forall", "exists"):
            return self.quantified()
        if tok.kind == "(":
            self.next()
            f = self.formula()
            self.expect(")", "')'")
            return f
        return self.atom()

    def atom(self) -> Formula:
        tok = self.peek()
        if tok.kind == "IDENT" and tok.value == "dep" and self.peek(1).kind == "(":
            return self.dep_atom()
        if tok.kind == "=" and self.peek(1).kind == "(":
            return self.dep_atom()
        if tok.kind == "IDENT" and tok.value in self.voc.relations:
            return self.relation_atom()
        left = self.term()
        eq = self.peek()
        if eq.kind != "=":
            raise self.fail(eq, "expected '=' after a term")
        self.next()
        right = self.term()
        return Eq(left, right)

    def dep_atom(self) -> Formula:
        self.next()  # dep or =
        self.expect("(", "'('")
        args: list[Term] = []
        if self.peek().kind != ")":
            args.append(self.term())
            while self.peek().kind == ",":
                self.next()
                args.append(self.term())
        self.expect(")", "')'")
        return Dep(tuple(args))

    def relation_atom(self) -> Formula:
        name_tok = self.next()
        arity = self.voc.relations[name_tok.value]
        args: list[Term] = []
        if self.peek().kind == "(":
            self.next()
            if self.peek().kind != ")":
                args.append(self.term())
                while self.peek().kind == ",":
                    self.next()
                    args.append(self.term())
            self.expect(")", "')'")
        if len(args) != arity:
            raise self.fail(
                name_tok,
                f"relation {name_tok.value} expects {arity} arguments, got {len(args)}",
            )
        return Rel(name_tok.value, tuple(args))

    def term(self) -> Term:
        tok = self.expect("IDENT", "a term")
        name = tok.value
        if name in _KEYWORDS:
            raise self.fail(tok, f"{name!r} is reserved")
        if name in self.voc.functions:
            arity = self.voc.functions[name]
            self.expect("(", f"'(' after function {name}")
            args = [self.term()]
            while self.peek().kind == ",":
                self.next()
                args.append(self.term())
            self.expect(")", "')'")
            if len(args) != arity:
                raise self.fail(
                    tok, f"function {name} expects {arity} arguments, got {len(args)}"
                )
            return Apply(name, tuple(args))
        if name in self.voc.constants:
            return Const(name)
        if name in self.voc.relations:
            raise self.fail(tok, f"relation {name} used in term position")
        return Var(name)


def _as_source(src: Union[SourceText, str]) -> SourceText:
    return src if isinstance(src, SourceText) else SourceText.inline(src)


def parse_formula(src: Union[SourceText, str], voc: Vocabulary) -> Formula:
    """Parse a formula; identifiers are classified against the vocabulary."""
    source = _as_source(src)
    return _FormulaParser(_tokenize(source.text), voc).parse()


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
# Line-oriented file helpers

def _significant_lines(text: str) -> list[tuple[int, str]]:
    out = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            out.append((line_no, line))
    return out


def _whole_line(line_no: int, line: str) -> Span:
    return Span(line_no, 0, max(1, len(line)))


# ---------------------------------------------------------------------------
# Vocabulary files

def parse_vocabulary(src: Union[SourceText, str]) -> Vocabulary:
    """Declarations only: `relation R/2`, `function f/1`, `constant c`."""
    source = _as_source(src)
    relations: dict[str, int] = {}
    functions: dict[str, int] = {}
    constants: set[str] = set()
    declared: set[str] = set()
    for line_no, line in _significant_lines(source.text):
        words = line.split()
        span = _whole_line(line_no, line)

        def declare(name: str) -> None:
            if name in declared:
                raise ParseError(Diagnostic("error", f"duplicate symbol {name}", span))
            declared.add(name)

        if len(words) == 2 and words[0] in ("relation", "function"):
            m = re.fullmatch(r"([A-Za-z_][A-Za-z0-9_]*)/(\d+)", words[1])
            if not m:
                raise ParseError(
                    Diagnostic("error", f"expected NAME/ARITY, got {words[1]!r}", span)
                )
            name, arity = m.group(1), int(m.group(2))
            declare(name)
            if words[0] == "relation":
                relations[name] = arity
            else:
                if arity < 1:
                    raise ParseError(
                        Diagnostic("error", "function arity must be positive", span)
                    )
                functions[name] = arity
        elif len(words) == 2 and words[0] == "constant":
            declare(words[1])
            constants.add(words[1])
        else:
            raise ParseError(
                Diagnostic("error", f"unrecognized declaration {line!r}", span)
            )
    return Vocabulary(relations, functions, frozenset(constants))


# ---------------------------------------------------------------------------
# Model files

def _parse_int_tuple(text: str, arity: int, span: Span) -> tuple[int, ...]:
    text = text.strip()
    if text.startswith("("):
        m = re.fullmatch(r"\(\s*([0-9,\s]*?)\s*\)", text)
        if not m:
            raise ParseError(Diagnostic("error", f"malformed tuple {text!r}", span))
        inner = m.group(1).strip()
        parts = [p.strip() for p in inner.split(",")] if inner else []
    else:
        parts = [text] if text else []
    if any(not p.isdigit() for p in parts):
        raise ParseError(Diagnostic("error", f"malformed tuple {text!r}", span))
    values = tuple(int(p) for p in parts)
    if len(values) != arity:
        raise ParseError(
            Diagnostic(
                "error", f"tuple {text!r} has {len(values)} entries, expected {arity}", span
            )
        )
    return values


def parse_model(src: Union[SourceText, str]) -> tuple[Vocabulary, Model]:
    """Parse a total finite structure.

    Format: a `domain <k>` line first, then `constant c = <elt>`,
    `relation R/<arity> = {(...), ...}`, and
    `function f/<arity> = [<args>-><val>, ...]` lines in any order.
    """
    source = _as_source(src)
    lines = _significant_lines(source.text)
    if not lines:
        raise ParseError(Diagnostic("error", "empty model file", Span(1, 0, 1)))
    line_no, first = lines[0]
    span = _whole_line(line_no, first)
    m = re.fullmatch(r"domain\s+(\d+)", first)
    if not m:
        raise ParseError(
            Diagnostic("error", "a model file must start with `domain <k>`", span)
        )
    size = int(m.group(1))
    if size < 1:
        raise ParseError(Diagnostic("error", "domain must be non-empty", span))

    relations: dict[str, frozenset[tuple[int, ...]]] = {}
    rel_arities: dict[str, int] = {}
    functions: dict[str, dict[tuple[int, ...], int]] = {}
    fn_arities: dict[str, int] = {}
    constants: dict[str, int] = {}
    declared: set[str] = set()

    for line_no, line in lines[1:]:
        span = _whole_line(line_no, line)

        def check_new(name: str) -> None:
            if name in declared:
                raise ParseError(Diagnostic("error", f"duplicate symbol {name}", span))
            declared.add(name)

        def check_value(v: int, what: str) -> None:
            if not 0 <= v < size:
                raise ParseError(
                    Diagnostic("error", f"{what} {v} out of domain 0..{size - 1}", span)
                )

        m = re.fullmatch(r"constant\s+([A-Za-z_][A-Za-z0-9_]*)\s*=\s*(\d+)", line)
        if m:
            name, value = m.group(1), int(m.group(2))
            check_new(name)
            check_value(value, f"constant {name} value")
            constants[name] = value
            continue

        m = re.fullmatch(
            r"relation\s+([A-Za-z_][A-Za-z0-9_]*)/(\d+)\s*=\s*\{(.*)\}", line
        )
        if m:
            name, arity, body = m.group(1), int(m.group(2)), m.group(3).strip()
            check_new(name)
            tuples: set[tuple[int, ...]] = set()
            if body:
                if arity == 0:
                    if body != "()":
                        raise ParseError(
                            Diagnostic(
                                "error",
                                "a 0-ary relation holds either {} or {()}",
                                span,
                            )
                        )
                    tuples.add(())
                else:
                    for part in _split_tuple_list(body, span):
                        values = _parse_int_tuple(part, arity, span)
                        for v in values:
                            check_value(v, f"relation {name} entry")
                        tuples.add(values)
            relations[name] = frozenset(tuples)
            rel_arities[name] = arity
            continue

        m = re.fullmatch(
            r"function\s+([A-Za-z_][A-Za-z0-9_]*)/(\d+)\s*=\s*\[(.*)\]", line
        )
        if m:
            name, arity, body = m.group(1), int(m.group(2)), m.group(3).strip()
            check_new(name)
            if arity < 1:
                raise ParseError(
                    Diagnostic("error", "function arity must be positive", span)
                )
            table: dict[tuple[int, ...], int] = {}
            if body:
                for part in _split_tuple_list(body, span):
                    if "->" not in part:
                        raise ParseError(
                            Diagnostic("error", f"expected args->value in {part!r}", span)
                        )
                    args_text, _, value_text = part.rpartition("->")
                    args = _parse_int_tuple(args_text, arity, span)
                    if not value_text.strip().isdigit():
                        raise ParseError(
                            Diagnostic("error", f"malformed value in {part!r}", span)
                        )
                    value = int(value_text)
                    for v in args:
                        check_value(v, f"function {name} argument")
                    check_value(value, f"function {name} value")
                    if args in table:
                        raise ParseError(
                            Diagnostic(
                                "error", f"function {name} defines {args} twice", span
                            )
                        )
                    table[args] = value
            expected = size**arity
            if len(table) != expected:
                raise ParseError(
                    Diagnostic(
                        "error",
                        f"partial table for function {name}: "
                        f"{expected - len(table)} entries missing",
                        span,
                    )
                )
            functions[name] = table
            fn_arities[name] = arity
            continue

        raise ParseError(Diagnostic("error", f"unrecognized model line {line!r}", span))

    voc = Vocabulary(rel_arities, fn_arities, frozenset(constants))
    model = Model(size, relations, functions, constants)
    return voc, model


def _split_tuple_list(body: str, span: Span) -> list[str]:
    """Split a comma-separated list, keeping parenthesized tuples intact."""
    parts: list[str] = []
    depth = 0
    current = []
    for ch in body:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise ParseError(Diagnostic("error", "unbalanced parentheses", span))
        if ch == "," and depth == 0:
            parts.append("".join(current).strip())
            current = []
        else:
            current.append(ch)
    if depth != 0:
        raise ParseError(Diagnostic("error", "unbalanced parentheses", span))
    tail = "".join(current).strip()
    if tail:
        parts.append(tail)
    return [p for p in parts if p]


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

def parse_team(src: Union[SourceText, str], m: Model) -> Team:
    """Parse `vars x y` followed by one whitespace-separated row per line."""
    source = _as_source(src)
    lines = _significant_lines(source.text)
    if not lines:
        raise ParseError(Diagnostic("error", "empty team file", Span(1, 0, 1)))
    line_no, header = lines[0]
    span = _whole_line(line_no, header)
    words = header.split()
    if words[0] != "vars":
        raise ParseError(
            Diagnostic("error", "a team file must start with a `vars` line", span)
        )
    variables = words[1:]
    if len(variables) != len(set(variables)):
        raise ParseError(Diagnostic("error", "a variable is named twice", span))
    for v in variables:
        if not _IDENT_RE.fullmatch(v):
            raise ParseError(Diagnostic("error", f"bad variable name {v!r}", span))
        if v in m.constants or v in m.functions or v in m.relations:
            raise ParseError(
                Diagnostic("error", f"variable {v} collides with a model symbol", span)
            )

    rows: set[Assignment] = set()
    for line_no, line in lines[1:]:
        span = _whole_line(line_no, line)
        if line == "()":
            entries: list[str] = []
        else:
            entries = line.split()
        if len(entries) != len(variables):
            raise ParseError(
                Diagnostic(
                    "error",
                    f"row has {len(entries)} values, expected {len(variables)}",
                    span,
                )
            )
        if any(not e.isdigit() for e in entries):
            raise ParseError(Diagnostic("error", f"malformed row {line!r}", span))
        values = [int(e) for e in entries]
        for v in values:
            if not 0 <= v < m.size:
                raise ParseError(
                    Diagnostic("error", f"value {v} out of domain 0..{m.size - 1}", span)
                )
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

def parse_proof(src: Union[SourceText, str], voc: Vocabulary) -> Proof:
    """Parse `<idx>. <formula> <rule> [premises] [discharge <idx list>]` lines."""
    source = _as_source(src)
    steps: list[ProofStep] = []
    seen: set[int] = set()
    last_index = 0
    for line_no, line in _significant_lines(source.text):
        span = _whole_line(line_no, line)
        m = re.match(r"(\d+)\.\s*(.*)", line)
        if not m:
            raise ParseError(
                Diagnostic("error", "a proof line must start with `<idx>.`", span)
            )
        index = int(m.group(1))
        if index <= last_index:
            raise ParseError(
                Diagnostic("error", f"step indices must increase (got {index})", span)
            )
        words = m.group(2).split()

        discharged: tuple[int, ...] = ()
        if "discharge" in words:
            at = len(words) - 1 - words[::-1].index("discharge")
            tail = words[at + 1 :]
            if not tail or any(not w.isdigit() for w in tail):
                raise ParseError(
                    Diagnostic("error", "`discharge` must be followed by step indices", span)
                )
            discharged = tuple(int(w) for w in tail)
            words = words[:at]

        premises: list[int] = []
        while words and words[-1].isdigit():
            premises.insert(0, int(words.pop()))

        if not words:
            raise ParseError(Diagnostic("error", "missing rule name", span))
        rule = words.pop()
        if rule not in RULES:
            raise ParseError(Diagnostic("error", f"unknown rule name {rule!r}", span))
        if not words:
            raise ParseError(Diagnostic("error", "missing formula", span))

        formula_text = " ".join(words)
        try:
            formula = parse_formula(SourceText(formula_text, source.origin), voc)
        except ParseError as e:
            raise ParseError(
                Diagnostic(
                    "error",
                    f"step {index}: malformed formula: {e.diagnostic.message}",
                    span,
                )
            ) from None

        for ref in tuple(premises) + discharged:
            if ref not in seen:
                raise ParseError(
                    Diagnostic("error", f"dangling reference to step {ref}", span)
                )

        steps.append(ProofStep(index, formula, rule, tuple(premises), discharged))
        seen.add(index)
        last_index = index

    if not steps:
        raise ParseError(Diagnostic("error", "empty proof script", Span(1, 0, 1)))
    return Proof(tuple(steps))


def parse_hypotheses(src: Union[SourceText, str], voc: Vocabulary) -> list[Formula]:
    """One formula per significant line."""
    source = _as_source(src)
    out = []
    for line_no, line in _significant_lines(source.text):
        try:
            out.append(parse_formula(SourceText(line, source.origin), voc))
        except ParseError as e:
            raise ParseError(
                Diagnostic(
                    "error",
                    f"line {line_no}: {e.diagnostic.message}",
                    _whole_line(line_no, line),
                )
            ) from None
    return out
