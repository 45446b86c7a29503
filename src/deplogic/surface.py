"""Concrete syntax: formulas, models, teams, vocabularies, and proof scripts.

All formats are line-oriented text; `#` starts a comment.  Each line is
read by one `findall` into token texts, and each token's kind follows from
its text.  One cursor over those lists reads every grammar, and formulas
with one loop over an explicit stack, so any nesting depth parses.  Columns
are found only for an error, by reading its line again, so each error
points at the token where reading stopped.  The formula grammar is parsed
with the vocabulary in hand, so identifiers are classified as relations,
functions, constants, or variables at parse time.  A proof script repeats
many formulas, and each distinct one is read once per script.  Printing is
canonical: parse(print(ast)) is structurally identical to ast.
"""

from __future__ import annotations

import re
import string
from typing import Callable, Iterator, Optional, TypeVar, Union

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

# Whitespace matches no alternative, so `findall` skips it; a comment runs to
# the end of its line; `\S` catches every character that no format uses.
_TOKEN = re.compile(
    r"[0-9]+|[A-Za-z_][A-Za-z0-9_]*|->|[(){}\[\],./=&|~∀∃∧∨¬]|#.*|\S"
)
# Keywords, Unicode aliases and punctuation have their own kinds; any other
# token's kind follows from its first character, and is BAD outside ASCII.
_KINDS = {
    **{text: text for text in (*KEYWORDS, *"(){}[],./=&|~", "->")},
    "∀": "forall", "∃": "exists", "∧": "&", "∨": "|", "¬": "~",
}
_CLASS = dict.fromkeys(string.digits, "INT") | dict.fromkeys(string.ascii_letters + "_", "IDENT")
_ENDS = {"NL": "end of line", "EOF": "end of input"}

# The tokens of one or more lines: kinds, texts, and for each line the index
# of its first token, its number and its text, to find columns with.
_Line = tuple[list[str], list[str], list[tuple[int, int, str]]]


def _lines(text: str) -> Iterator[_Line]:
    """For each line that holds a token: its tokens, then an NL token where
    its text ends.  Last, an EOF token at the end of the last line.  Lines
    are read as they are asked for, so only one is held at a time."""
    lines = text.splitlines() or [""]
    for line_no, line in enumerate(lines, start=1):
        texts = _TOKEN.findall(line)
        if texts and texts[-1][0] == "#":
            texts.pop()
        if texts:
            kinds = [_KINDS.get(t) or _CLASS.get(t[0], "BAD") for t in texts]
            yield kinds + ["NL"], texts + [""], [(0, line_no, line)]
    yield ["EOF"], [""], [(0, len(lines), lines[-1])]


# ---------------------------------------------------------------------------
# Reading tokens

def _count(n: int, one: str, many: str) -> str:
    """n and its noun, singular after 1: `1 entry`, `2 entries`."""
    return f"{n} {one if n == 1 else many}"


class _Cursor:
    """A position in the tokenized lines, with one reader per grammar piece.
    A token is named by its index in the current line's `kinds` and
    `texts`."""

    def __init__(self, lines: Iterator[_Line], voc: Vocabulary = EMPTY_VOCABULARY) -> None:
        self.lines = lines
        self.voc = voc
        self.load(next(lines))

    def load(self, line: _Line) -> None:
        self.kinds, self.texts, self.rows = line
        self.pos = 0
        if "BAD" in self.kinds:
            at = self.kinds.index("BAD")
            raise self.error(f"unexpected character {self.texts[at]!r}", at)

    def error(self, message: str, at: Optional[int] = None) -> ParseError:
        """An error spanning token `at` of the current line, by default the
        next token.  Its column is found by reading the line again."""
        at = self.pos if at is None else at
        first, line_no, line = [row for row in self.rows if row[0] <= at][-1]
        # An NL token sits where its line's comment starts, or at its end.
        cols = [m.start() for m in _TOKEN.finditer(line)] + [len(line)]
        col = len(line) if self.kinds[at] == "EOF" else cols[at - first]
        span = Span(line_no, col, col + max(1, len(self.texts[at])))
        return ParseError(Diagnostic(message, span))

    def found(self) -> str:
        """The next token, as an error message names it."""
        return _ENDS.get(self.kinds[self.pos]) or repr(self.texts[self.pos])

    def peek(self) -> str:
        return self.kinds[self.pos]

    def skip(self) -> str:
        """Consume the next token, which is not NL, and return its text."""
        self.pos += 1
        return self.texts[self.pos - 1]

    def accept(self, kind: str) -> bool:
        if self.kinds[self.pos] != kind:
            return False
        self.pos += 1
        return True

    def expect(self, kind: str, what: str) -> str:
        """Consume a token of this kind, which is not NL, and return its text."""
        if self.kinds[self.pos] != kind:
            raise self.error(f"expected {what}, found {self.found()}")
        return self.skip()

    def end_line(self) -> None:
        """Consume the NL that ends the current line and move to the next."""
        if self.kinds[self.pos] != "NL":
            raise self.error(f"expected end of line, found {self.found()}")
        self.load(next(self.lines))

    def name(self, what: str) -> str:
        """An identifier that is not a keyword."""
        kind = self.kinds[self.pos]
        if kind in KEYWORDS:
            raise self.error(f"{self.texts[self.pos]!r} is reserved")
        if kind != "IDENT":
            raise self.error(f"expected {what}, found {self.found()}")
        return self.skip()

    def items(self, close: str, item: Callable[[], _T]) -> list[_T]:
        """`item, ..., item` up to the `close` bracket, which is consumed;
        the opening bracket has been read.  The list may be empty, an item
        may not."""
        out: list[_T] = []
        if self.accept(close):
            return out
        while True:
            out.append(item())
            kind = self.kinds[self.pos]
            if kind != "," and kind != close:
                raise self.error(f"expected ',' or '{close}', found {self.found()}")
            self.pos += 1
            if kind == close:
                return out

    def element(self, size: int, what: str) -> int:
        value = int(self.expect("INT", "a domain element"))
        if value >= size:
            raise self.error(f"{what} {value} out of domain 0..{size - 1}", self.pos - 1)
        return value

    def row(self, size: int, arity: int, what: str) -> tuple[int, ...]:
        """`(e, ..., e)`, or one bare element."""
        at = self.pos
        if self.accept("("):
            values = tuple(self.items(")", lambda: self.element(size, what)))
        else:
            values = (self.element(size, what),)
        if len(values) != arity:
            raise self.error(
                f"tuple has {_count(len(values), 'entry', 'entries')}, expected {arity}", at
            )
        return values

    def declaration(self, declared: set[str]) -> tuple[str, str, int]:
        """`relation NAME/ARITY`, `function NAME/ARITY` or `constant NAME`;
        the name is added to `declared`."""
        kw = self.texts[self.pos]
        if kw not in ("relation", "function", "constant"):
            raise self.error(f"expected `relation`, `function` or `constant`, found {self.found()}")
        self.pos += 1
        name = self.name("a symbol name")
        if name in declared:
            raise self.error(f"duplicate symbol {name}", self.pos - 1)
        declared.add(name)
        if kw == "constant":
            return kw, name, 0
        self.expect("/", "'/' after the symbol name")
        arity = int(self.expect("INT", "an arity"))
        if kw == "function" and arity < 1:
            raise self.error("function arity must be positive", self.pos - 1)
        return kw, name, arity

    # formula grammar -------------------------------------------------------

    def formula(self) -> Formula:
        """A formula, read by one loop over an explicit stack.  `~` binds
        tightest, then `&`, then `|`; both nest to the left; a quantifier's
        body extends as far right as it can.  A frame holds an open `~`,
        `(` or quantifier, and the `|` and `&` operands read so far in the
        context it interrupts."""
        kinds, stack = self.kinds, []
        ors: Optional[Formula] = None
        ands: Optional[Formula] = None
        while True:
            kind = kinds[self.pos]
            if kind == "~" or kind == "(" or kind == "forall" or kind == "exists":
                arg: Union[int, str] = self.pos
                self.pos += 1
                if kind == "forall" or kind == "exists":
                    arg = self.name("a variable name")
                    if self.voc.declares(arg):
                        raise self.error(
                            f"bound variable {arg!r} collides with a declared symbol", self.pos - 1
                        )
                    self.expect(".", "'.' after the bound variable")
                stack.append((kind, arg, ors, ands))
                ors = ands = None
                continue
            f = self.atom()
            while True:  # close what f completes, up to the next `&` or `|`
                kind = kinds[self.pos]
                if stack and stack[-1][0] == "~":
                    _, arg, ors, ands = stack.pop()
                    try:
                        f = Not(f)
                    except NegationScopeError:
                        raise self.error(
                            "negation may only be applied to first-order formulas", arg
                        ) from None
                elif kind == "&" or kind == "|":
                    ands = f if ands is None else And(ands, f)
                    if kind == "|":
                        ors = ands if ors is None else Or(ors, ands)
                        ands = None
                    self.pos += 1
                    break
                else:
                    if ands is not None:
                        f = And(ands, f)
                    if ors is not None:
                        f = Or(ors, f)
                    if not stack:
                        return f
                    opener, arg, ors, ands = stack.pop()
                    if opener == "(":
                        self.expect(")", "')'")
                    else:
                        f = (Forall if opener == "forall" else Exists)(arg, f)

    def atom(self) -> Formula:
        at = self.pos
        kind = self.kinds[at]
        if (kind == "dep" or kind == "=") and self.kinds[at + 1] == "(":
            self.pos = at + 2
            return Dep(tuple(self.items(")", self.term)))
        name = self.texts[at]
        if kind == "IDENT" and name in self.voc.relations:
            self.pos = at + 1
            args = self.items(")", self.term) if self.accept("(") else []
            return Rel(name, self.arguments(args, "relation", self.voc.relations[name], at))
        left = self.term()
        self.expect("=", "'=' after a term")
        return Eq(left, self.term())

    def term(self) -> Term:
        at = self.pos
        name = self.name("a term")
        if name in self.voc.functions:
            self.expect("(", f"'(' after function {name}")
            args = self.items(")", self.term)
            return Apply(name, self.arguments(args, "function", self.voc.functions[name], at))
        if name in self.voc.constants:
            return Const(name)
        if name in self.voc.relations:
            raise self.error(f"relation {name} used in term position", at)
        return Var(name)

    def arguments(self, args: list[Term], symbol: str, arity: int, at: int) -> tuple[Term, ...]:
        """The arguments of the symbol at token `at`, which takes `arity` of them."""
        if len(args) != arity:
            raise self.error(
                f"{symbol} {self.texts[at]} expects {_count(arity, 'argument', 'arguments')}, "
                f"got {len(args)}",
                at,
            )
        return tuple(args)


def parse_formula(src: str, voc: Vocabulary) -> Formula:
    """Parse a formula; identifiers are classified against the vocabulary.
    The formula may span lines: their tokens are read as one line."""
    kinds: list[str] = []
    texts: list[str] = []
    rows: list[tuple[int, int, str]] = []
    for line_kinds, line_texts, [(_, line_no, line)] in _lines(src):
        rows.append((len(kinds), line_no, line))
        kinds += line_kinds[:-1]  # all but NL, or nothing for EOF
        texts += line_texts[:-1]
    cursor = _Cursor(iter([(kinds + ["EOF"], texts + [""], rows)]), voc)
    f = cursor.formula()
    cursor.expect("EOF", "end of input")
    return f


# ---------------------------------------------------------------------------
# Formula printing

_ASCII = {"forall": "forall ", "exists": "exists ", "and": "&", "or": "|", "not": "~"}
_PRETTY = {"forall": "∀", "exists": "∃", "and": "∧", "or": "∨", "not": "¬"}


def print_formula(phi: Formula, unicode_symbols: bool = False) -> str:
    """Canonical text; binary connectives are fully parenthesized.  The
    pieces still to print, terms among them, are kept on an explicit stack,
    last piece first, so any nesting depth prints."""
    sym = _PRETTY if unicode_symbols else _ASCII
    out: list[str] = []
    todo: list[Union[Formula, Term, str]] = [phi]
    while todo:
        f = todo.pop()
        if isinstance(f, str):
            out.append(f)
        elif isinstance(f, (Var, Const)) or isinstance(f, Rel) and not f.args:
            out.append(f.name)
        elif isinstance(f, (Apply, Rel, Dep)):
            head = f.func if isinstance(f, Apply) else f.name if isinstance(f, Rel) else "dep"
            # head(, then the arguments with ", " between them, then )
            todo += [")", *reversed([p for a in f.args for p in (", ", a)][1:]), f"{head}("]
        elif isinstance(f, Eq):
            todo += [f.right, " = ", f.left]
        elif isinstance(f, Not):
            out.append(sym["not"])
            todo += [f.body] if isinstance(f.body, (Rel, Not)) else [")", f.body, "("]
        elif isinstance(f, (And, Or)):
            out.append("(")
            todo.append(")")
            for g in (f.right, f" {sym['and' if isinstance(f, And) else 'or']} ", f.left):
                # A quantified operand is parenthesized.
                todo += [")", g, "("] if isinstance(g, (Exists, Forall)) else [g]
        else:
            assert isinstance(f, (Exists, Forall))
            out.append(f"{sym['exists' if isinstance(f, Exists) else 'forall']}{f.var}. ")
            todo.append(f.body)
    return "".join(out)


# ---------------------------------------------------------------------------
# Vocabulary files

def parse_vocabulary(src: str) -> Vocabulary:
    """Declarations only: `relation R/2`, `function f/1`, `constant c`."""
    cursor = _Cursor(_lines(src))
    arities: dict[str, dict[str, int]] = {"relation": {}, "function": {}, "constant": {}}
    declared: set[str] = set()
    while cursor.peek() != "EOF":
        kind, name, arity = cursor.declaration(declared)
        arities[kind][name] = arity
        cursor.end_line()
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
    cursor = _Cursor(_lines(src))
    if cursor.peek() == "EOF":
        raise cursor.error("empty model file")
    if cursor.skip() != "domain":
        raise cursor.error("a model file must start with `domain <k>`", 0)
    size = int(cursor.expect("INT", "the domain size"))
    if size < 1:
        raise cursor.error("domain must be non-empty", cursor.pos - 1)
    cursor.end_line()

    relations: dict[str, frozenset[tuple[int, ...]]] = {}
    rel_arities: dict[str, int] = {}
    functions: dict[str, dict[tuple[int, ...], int]] = {}
    fn_arities: dict[str, int] = {}
    constants: dict[str, int] = {}
    declared: set[str] = set()

    while cursor.peek() != "EOF":
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
                at = cursor.pos
                args = cursor.row(size, arity, f"function {name} argument")
                cursor.expect("->", "'->'")
                value = cursor.element(size, f"function {name} value")
                if args in table:
                    raise cursor.error(f"function {name} defines {args} twice", at)
                table[args] = value

            bracket = cursor.pos
            cursor.expect("[", "'['")
            cursor.items("]", mapping)
            if len(table) != size**arity:
                raise cursor.error(
                    f"partial table for function {name}: "
                    f"{_count(size**arity - len(table), 'entry', 'entries')} missing",
                    bracket,
                )
            functions[name] = table
            fn_arities[name] = arity
        cursor.end_line()

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
    cursor = _Cursor(_lines(src))
    if cursor.peek() == "EOF":
        raise cursor.error("empty team file")
    if cursor.skip() != "vars":
        raise cursor.error("a team file must start with a `vars` line", 0)
    variables: list[str] = []
    while cursor.peek() != "NL":
        var = cursor.name("a variable name")
        if var in variables:
            raise cursor.error("a variable is named twice", cursor.pos - 1)
        if var in m.constants or var in m.functions or var in m.relations:
            raise cursor.error(f"variable {var} collides with a model symbol", cursor.pos - 1)
        variables.append(var)
    cursor.end_line()

    rows: set[Assignment] = set()
    while cursor.peek() != "EOF":
        at = cursor.pos
        values: list[int] = []
        if cursor.accept("("):
            cursor.expect(")", "')'")
        else:
            while cursor.peek() != "NL":
                values.append(cursor.element(m.size, "value"))
        if len(values) != len(variables):
            raise cursor.error(
                f"row has {_count(len(values), 'value', 'values')}, expected {len(variables)}", at
            )
        cursor.end_line()
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
    """Parse `<idx>. <formula> <rule> [premises] [discharge <idx list>]` lines.

    A formula whose token texts were read before in this call, up to a rule
    name, is not read again: its steps share one Formula.  That cannot change
    an error, since those tokens read without one and the formula reader
    stops at a name; a line whose formula does not end at its rule raises.
    The table's keys are strings, so no formula is hashed."""
    cursor = _Cursor(_lines(src), voc)
    steps: list[ProofStep] = []
    seen: set[int] = set()
    read: dict[tuple[str, ...], Formula] = {}  # a formula's token texts -> it

    def references() -> tuple[int, ...]:
        refs = []
        while cursor.peek() == "INT":
            text = cursor.skip()
            if int(text) not in seen:
                raise cursor.error(f"dangling reference to step {text}", cursor.pos - 1)
            refs.append(int(text))
        return tuple(refs)

    while cursor.peek() != "EOF":
        index = int(cursor.expect("INT", "a step index"))
        if index <= (steps[-1].index if steps else 0):
            raise cursor.error(f"step indices must increase (got {index})", cursor.pos - 1)
        cursor.expect(".", "'.' after the step index")
        # The line ends `rule INT* [discharge INT+]`, and its formula at the rule.
        at = len(cursor.kinds) - 2
        while cursor.kinds[at] == "INT" or cursor.texts[at] == "discharge":
            at -= 1
        key = tuple(cursor.texts[cursor.pos : at])
        formula = read.get(key) if cursor.kinds[at] == "IDENT" else None
        if formula is None:
            formula = read[key] = cursor.formula()
        else:
            cursor.pos = at
        rule = cursor.expect("IDENT", "a rule name")
        if rule not in RULES:
            raise cursor.error(f"unknown rule name {rule!r}", cursor.pos - 1)
        premises = references()
        discharged: tuple[int, ...] = ()
        if cursor.texts[cursor.pos] == "discharge":
            cursor.skip()
            if cursor.peek() != "INT":
                raise cursor.error("`discharge` must be followed by step indices")
            discharged = references()
        cursor.end_line()
        steps.append(ProofStep(index, formula, rule, premises, discharged))
        seen.add(index)

    if not steps:
        raise cursor.error("empty proof script")
    return Proof(tuple(steps))


def parse_hypotheses(src: str, voc: Vocabulary) -> list[Formula]:
    """One formula per line."""
    cursor = _Cursor(_lines(src), voc)
    out = []
    while cursor.peek() != "EOF":
        out.append(cursor.formula())
        cursor.end_line()
    return out
