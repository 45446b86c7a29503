"""Tests for parsing and printing of formulas, models, teams, and proofs."""

import itertools
import random

import pytest

from deplogic import (
    And,
    Apply,
    Const,
    Dep,
    Eq,
    Exists,
    Forall,
    Not,
    Or,
    ParseError,
    Rel,
    Span,
    Var,
    Vocabulary,
    parse_formula,
    parse_hypotheses,
    parse_model,
    parse_proof,
    parse_team,
    parse_vocabulary,
    print_formula,
)
from deplogic.semantics import Assignment, Model, enumerate_models
from deplogic.surface import format_model, format_team
from deplogic.syntax import identical

from helpers import VOC_C, VOC_R1C, enumerate_teams, random_formula

x, y, z = Var("x"), Var("y"), Var("z")
EMPTY = Vocabulary()


class TestParseFormula:
    def test_dep_atom(self):
        assert parse_formula("dep(x,y)", EMPTY) == Dep((x, y))

    def test_dep_alias(self):
        assert parse_formula("=(x, y)", EMPTY) == Dep((x, y))

    def test_theta1_quantifier_order(self):
        phi = parse_formula(
            "exists z. forall x. exists y. (dep(x,y) & ~(y = z))", EMPTY
        )
        assert phi == Exists(
            "z",
            Forall("x", Exists("y", And(Dep((x, y)), Not(Eq(y, z))))),
        )
        # the paper's own variant has the atom's arguments swapped
        swapped = parse_formula(
            "exists z. forall x. exists y. (dep(y,x) & ~(y = z))", EMPTY
        )
        assert swapped == Exists(
            "z",
            Forall("x", Exists("y", And(Dep((y, x)), Not(Eq(y, z))))),
        )

    def test_negated_dep_rejected(self):
        with pytest.raises(ParseError) as e:
            parse_formula("~dep(x)", EMPTY)
        assert "first-order" in str(e.value)

    def test_vocabulary_classification(self):
        voc = Vocabulary(relations={"R": 1}, functions={"f": 1}, constants={"c"})
        phi = parse_formula("R(f(c))", voc)
        assert phi == Rel("R", (Apply("f", (Const("c"),)),))

    def test_wrong_relation_arity(self):
        voc = Vocabulary(relations={"R": 2})
        with pytest.raises(ParseError):
            parse_formula("R(x)", voc)

    def test_variable_collision_with_symbol(self):
        with pytest.raises(ParseError):
            parse_formula("forall c. c = c", VOC_C)

    def test_quantifier_scope_extends_right(self):
        voc = Vocabulary(relations={"R": 1, "S": 1})
        phi = parse_formula("forall x. R(x) & S(x)", voc)
        assert phi == Forall("x", And(Rel("R", (x,)), Rel("S", (x,))))

    def test_tilde_binds_tightest(self):
        voc = Vocabulary(relations={"R": 1, "S": 1})
        phi = parse_formula("~R(x) & S(x)", voc)
        assert phi == And(Not(Rel("R", (x,))), Rel("S", (x,)))

    def test_parse_error_has_span(self):
        with pytest.raises(ParseError) as e:
            parse_formula("dep(x,,y)", EMPTY)
        assert e.value.diagnostic.span == Span(1, 6, 7)

    def test_end_of_input_span_ends_the_last_line(self):
        with pytest.raises(ParseError) as e:
            parse_formula("forall x. (x = ", EMPTY)
        assert e.value.diagnostic.span == Span(1, 15, 16)
        assert str(e.value) == "1:15: expected a term, found end of input"

    def test_unicode_aliases(self):
        a = parse_formula("∀x. ∃y. ((x = y) ∧ ¬(x = y))", EMPTY)
        b = parse_formula("forall x. exists y. ((x = y) & ~(x = y))", EMPTY)
        assert a == b


class TestErrorCorpus:
    """Every parse error, pinned as `line:start-end: message`: one case or
    more for each place the readers raise, in every format."""

    VOC = Vocabulary(relations={"A": 0, "P": 1, "R": 2}, functions={"f": 1, "g": 2},
                     constants={"c"})
    READERS = {
        "formula": lambda src: parse_formula(src, TestErrorCorpus.VOC),
        "proof": lambda src: parse_proof(src, TestErrorCorpus.VOC),
        "hypotheses": lambda src: parse_hypotheses(src, TestErrorCorpus.VOC),
        "model": parse_model,
        "team": lambda src: parse_team(src, Model(2, constants={"c": 0})),
        "vocabulary": parse_vocabulary,
    }

    @pytest.mark.parametrize("reader, source, expected", [
        # characters no format uses; a digit or letter outside ASCII is one
        ("formula", "x = $", "1:4-5: unexpected character '$'"),
        ("formula", "١ = x", "1:0-1: unexpected character '١'"),
        ("formula", "xé = x", "1:1-2: unexpected character 'é'"),
        ("vocabulary", "constant c-d", "1:10-11: unexpected character '-'"),
        # formulas
        ("formula", "forall x. (x = y", "1:16-17: expected ')', found end of input"),
        ("formula", "forall dep. x = x", "1:7-10: 'dep' is reserved"),
        ("formula", "forall 1. x = x", "1:7-8: expected a variable name, found '1'"),
        ("formula", "forall x x = x", "1:9-10: expected '.' after the bound variable, found 'x'"),
        ("formula", "dep(x y)", "1:6-7: expected ',' or ')', found 'y'"),
        ("formula", "dep(x,,y)", "1:6-7: expected a term, found ','"),
        ("formula", "forall c. c = c", "1:7-8: bound variable 'c' collides with a declared symbol"),
        ("formula", "exists R. A", "1:7-8: bound variable 'R' collides with a declared symbol"),
        ("formula", "~dep(x)", "1:0-1: negation may only be applied to first-order formulas"),
        ("formula", "A & ~(P(x) | dep(x))",
         "1:4-5: negation may only be applied to first-order formulas"),
        ("formula", "R(x)", "1:0-1: relation R expects 2 arguments, got 1"),
        ("formula", "P", "1:0-1: relation P expects 1 argument, got 0"),
        ("formula", "P(x, y)", "1:0-1: relation P expects 1 argument, got 2"),
        ("formula", "A(x)", "1:0-1: relation A expects 0 arguments, got 1"),
        ("formula", "f(x, y) = x", "1:0-1: function f expects 1 argument, got 2"),
        ("formula", "g(x) = x", "1:0-1: function g expects 2 arguments, got 1"),
        ("formula", "x = R", "1:4-5: relation R used in term position"),
        ("formula", "f = x", "1:2-3: expected '(' after function f, found '='"),
        ("formula", "x y", "1:2-3: expected '=' after a term, found 'y'"),
        ("formula", "x = x x", "1:6-7: expected end of input, found 'x'"),
        ("formula", "(x = x) (y = y)", "1:8-9: expected end of input, found '('"),
        ("formula", "x = 1", "1:4-5: expected a term, found '1'"),
        ("formula", "dep = x", "1:0-3: 'dep' is reserved"),
        ("formula", "= x", "1:0-1: expected a term, found '='"),
        ("formula", "x -> y", "1:2-4: expected '=' after a term, found '->'"),
        ("formula", "{x}", "1:0-1: expected a term, found '{'"),
        ("formula", "", "1:0-1: expected a term, found end of input"),
        ("formula", "\n\n", "2:0-1: expected a term, found end of input"),
        # a formula may span lines, with comments between them
        ("formula", "forall x.  # the body follows\n  (x = \n",
         "2:7-8: expected a term, found end of input"),
        ("formula", "forall x. # note\n (x = x & )", "2:10-11: expected a term, found ')'"),
        # the Unicode aliases
        ("formula", "∀x. ∃y. (x = y ∧ ¬)", "1:18-19: expected a term, found ')'"),
        ("formula", "∀∀", "1:1-2: '∀' is reserved"),
        ("formula", "x = x ∨ ∃", "1:9-10: expected a variable name, found end of input"),
        ("hypotheses", "P(x) ∧ ¬dep(x)",
         "1:7-8: negation may only be applied to first-order formulas"),
        # proof scripts: a formula ends at the end of its line
        ("proof", "one. x = x assume", "1:0-3: expected a step index, found 'one'"),
        ("proof", "1 x = x assume", "1:2-3: expected '.' after the step index, found 'x'"),
        ("proof", "1. c = c 5", "1:9-10: expected a rule name, found '5'"),
        ("proof", "1. c = c frobnicate", "1:9-19: unknown rule name 'frobnicate'"),
        ("proof", "1. c = c identity\n2. c = c & c = c and_i 1 5",
         "2:25-26: dangling reference to step 5"),
        ("proof", "1. c = c assume 1", "1:16-17: dangling reference to step 1"),
        ("proof", "2. c = c identity\n1. c = c identity",
         "2:0-1: step indices must increase (got 1)"),
        ("proof", "1. c = c assume discharge  # x",
         "1:27-28: `discharge` must be followed by step indices"),
        ("proof", "1. c = c assume discharge x",
         "1:26-27: `discharge` must be followed by step indices"),
        ("proof", "1. c = c assume )", "1:16-17: expected end of line, found ')'"),
        ("proof", "1. (c = c\n", "1:9-10: expected ')', found end of line"),
        ("proof", "1. (c = c  # open\n) assume", "1:11-12: expected ')', found end of line"),
        # an error at the end of a line comes before any in the next line
        ("proof", "1. (c = c\n$", "1:9-10: expected ')', found end of line"),
        ("proof", "1. c = c assume\n2. forall x. assume",
         "2:19-20: expected '=' after a term, found end of line"),
        # a formula read before: the same errors where the line goes on
        ("proof", "1. c = c assume\n2. c = c frobnicate", "2:9-19: unknown rule name 'frobnicate'"),
        ("proof", "1. c = c assume\n2. c = c assume 5", "2:16-17: dangling reference to step 5"),
        ("proof", "1. c = c assume\n2. c = c assume discharge",
         "2:25-26: `discharge` must be followed by step indices"),
        ("proof", "1. c = c assume\n2. c = c discharge 1", "2:9-18: unknown rule name 'discharge'"),
        ("proof", "1. c = c assume\n2. c = c c = c assume", "2:9-10: unknown rule name 'c'"),
        ("proof", "# only\n", "1:6-7: empty proof script"),
        ("proof", "", "1:0-1: empty proof script"),
        # hypotheses: one formula per line
        ("hypotheses", "x = \n", "1:4-5: expected a term, found end of line"),
        ("hypotheses", "x = x\nx =", "2:3-4: expected a term, found end of line"),
        ("hypotheses", "x = x y", "1:6-7: expected end of line, found 'y'"),
        # models
        ("model", "", "1:0-1: empty model file"),
        ("model", "# nothing\n", "1:9-10: empty model file"),
        ("model", "size 2", "1:0-4: a model file must start with `domain <k>`"),
        ("model", "domain x", "1:7-8: expected the domain size, found 'x'"),
        ("model", "domain 0", "1:7-8: domain must be non-empty"),
        ("model", "domain 2 3", "1:9-10: expected end of line, found '3'"),
        ("model", "domain 2\nconst c = 0",
         "2:0-5: expected `relation`, `function` or `constant`, found 'const'"),
        ("model", "domain 2\nconstant c 0", "2:11-12: expected '=', found '0'"),
        ("model", "domain 2\nconstant c = 2", "2:13-14: constant c value 2 out of domain 0..1"),
        ("model", "domain 2\nconstant c = x", "2:13-14: expected a domain element, found 'x'"),
        ("model", "domain 2\nrelation R 1", "2:11-12: expected '/' after the symbol name, found '1'"),
        ("model", "domain 2\nrelation R/x", "2:11-12: expected an arity, found 'x'"),
        ("model", "domain 2\nfunction f/0 = []", "2:11-12: function arity must be positive"),
        ("model", "domain 2\nrelation R/1 = (0)", "2:15-16: expected '{', found '('"),
        ("model", "domain 2\nrelation R/2 = {(0)}", "2:16-17: tuple has 1 entry, expected 2"),
        ("model", "domain 2\nrelation R/2 = {0}", "2:16-17: tuple has 1 entry, expected 2"),
        ("model", "domain 2\nrelation R/1 = {(0) (1)}", "2:20-21: expected ',' or '}', found '('"),
        ("model", "domain 2\nrelation R/1 = {(0)", "2:19-20: expected ',' or '}', found end of line"),
        ("model", "domain 2\nfunction f/1 = [0->1, 0->0]", "2:22-23: function f defines (0,) twice"),
        ("model", "domain 2\nfunction f/1 = [0->1]",
         "2:15-16: partial table for function f: 1 entry missing"),
        ("model", "domain 2\nfunction f/1 = [0 1]", "2:18-19: expected '->', found '1'"),
        ("model", "domain 2\nfunction f/1 = 0->1", "2:15-16: expected '[', found '0'"),
        ("model", "domain 2\nconstant c = 0\nconstant c = 1", "3:9-10: duplicate symbol c"),
        ("model", "domain 2\nconstant forall = 1", "2:9-15: 'forall' is reserved"),
        # teams
        ("team", "", "1:0-1: empty team file"),
        ("team", "x y", "1:0-1: a team file must start with a `vars` line"),
        ("team", "vars 1", "1:5-6: expected a variable name, found '1'"),
        ("team", "vars x x", "1:7-8: a variable is named twice"),
        ("team", "vars c", "1:5-6: variable c collides with a model symbol"),
        ("team", "vars x\n0 1", "2:0-1: row has 2 values, expected 1"),
        ("team", "vars x y\n0", "2:0-1: row has 1 value, expected 2"),
        ("team", "vars x\n2", "2:0-1: value 2 out of domain 0..1"),
        ("team", "vars\n(", "2:1-2: expected ')', found end of line"),
        ("team", "vars\n() 0", "2:3-4: expected end of line, found '0'"),
        # vocabularies
        ("vocabulary", "relation R/1\nconstant R", "2:9-10: duplicate symbol R"),
        ("vocabulary", "constant 9", "1:9-10: expected a symbol name, found '9'"),
        ("vocabulary", "constant forall", "1:9-15: 'forall' is reserved"),
        ("vocabulary", "constant c d", "1:11-12: expected end of line, found 'd'"),
        ("vocabulary", "constant c->d", "1:10-12: expected end of line, found '->'"),
        ("vocabulary", "predicate P/1",
         "1:0-9: expected `relation`, `function` or `constant`, found 'predicate'"),
        ("vocabulary", "function f/0", "1:11-12: function arity must be positive"),
    ])
    def test_error(self, reader, source, expected):
        with pytest.raises(ParseError) as e:
            self.READERS[reader](source)
        span = e.value.diagnostic.span
        got = f"{span.line}:{span.col_start}-{span.col_end}: {e.value.diagnostic.message}"
        assert got == expected


class TestDepth:
    """Formulas nested far past the interpreter's recursion limit parse and
    print.  Results are compared by walking them, since `==` on nested
    dataclasses recurses."""

    N = 5000

    def spine(self, phi, kind, down):
        """How many nodes of type kind the path that down follows from phi
        passes through, and the formula where it leaves them."""
        count = 0
        while isinstance(phi, kind):
            phi, count = down(phi), count + 1
        return count, phi

    def test_nested_parentheses(self):
        assert parse_formula("(" * self.N + "x = x" + ")" * self.N, EMPTY) == Eq(x, x)

    @pytest.mark.parametrize("op, kind", [("&", And), ("|", Or)])
    @pytest.mark.parametrize("sep", [" ", "\n"])
    def test_chain_nests_to_the_left(self, op, kind, sep):
        text = f"{sep}{op} ".join("x = y" if i == self.N - 1 else "x = x" for i in range(self.N))
        phi = parse_formula(text, EMPTY)
        assert phi.right == Eq(x, y)
        assert self.spine(phi, kind, lambda f: f.left) == (self.N - 1, Eq(x, x))

    def test_nested_negation(self):
        phi = parse_formula("~" * self.N + "x = x", EMPTY)
        assert self.spine(phi, Not, lambda f: f.body) == (self.N, Eq(x, x))

    def test_nested_quantifiers(self):
        text = "".join(f"{'forall' if i % 2 else 'exists'} v{i}. " for i in range(self.N))
        phi = parse_formula(text + "x = x", EMPTY)
        assert isinstance(phi, Exists) and phi.var == "v0"
        assert self.spine(phi, (Exists, Forall), lambda f: f.body) == (self.N, Eq(x, x))

    def test_quantifier_body_extends_right_inside_a_chain(self):
        text = " & ".join(["x = x"] * self.N) + " & forall x. x = x & x = y | x = x"
        phi = parse_formula(text, EMPTY)
        assert phi.right == Forall("x", Or(And(Eq(x, x), Eq(x, y)), Eq(x, x)))
        assert self.spine(phi.left, And, lambda f: f.left) == (self.N - 1, Eq(x, x))

    def test_print_chain(self):
        phi = parse_formula(" & ".join(["x = x"] * self.N), EMPTY)
        text = print_formula(phi)
        assert text == "(" * (self.N - 1) + "x = x" + " & x = x)" * (self.N - 1)

    def test_print_nested_applications(self):
        # Terms are printed on the printer's own stack, so any depth prints.
        term = x
        for _ in range(self.N):
            term = Apply("f", (term,))
        text = print_formula(Eq(term, Const("c")))
        assert text == "f(" * self.N + "x" + ")" * self.N + " = c"

    def test_nested_applications_print_back(self):
        # The reader still recurses once per application; 400 are read.
        voc = Vocabulary(relations={"R": 2}, functions={"f": 1, "g": 2})
        text = "R(" + "f(" * 400 + "g(x, y)" + ")" * 400 + ", x) & dep(f(x), y)"
        assert print_formula(parse_formula(text, voc)) == f"({text})"


class TestPrintFormula:
    def test_empty_dep(self):
        assert print_formula(Dep(())) == "dep()"

    def test_fully_parenthesized(self):
        voc = Vocabulary(relations={"R": 1, "S": 1, "T": 1})
        phi = parse_formula("R(x) & (S(y) | T(z))", voc)
        assert print_formula(phi) == "(R(x) & (S(y) | T(z)))"

    def test_quantified_operand_parenthesized(self):
        voc = Vocabulary(relations={"R": 1, "S": 1})
        phi = And(Forall("x", Rel("R", (x,))), Rel("S", (y,)))
        text = print_formula(phi)
        assert text == "((forall x. R(x)) & S(y))"
        assert parse_formula(text, voc) == phi

    def test_roundtrip_random_formulas(self):
        rng = random.Random(1234)
        for _ in range(1000):
            phi = random_formula(rng, VOC_R1C, ["x", "y"], depth=4)
            text = print_formula(phi)
            assert parse_formula(text, VOC_R1C) == phi

    def test_roundtrip_unicode(self):
        rng = random.Random(99)
        for _ in range(200):
            phi = random_formula(rng, VOC_R1C, ["x", "y"], depth=4)
            text = print_formula(phi, unicode_symbols=True)
            assert parse_formula(text, VOC_R1C) == phi

    def test_print_is_idempotent_canonicalization(self):
        rng = random.Random(4321)
        for _ in range(200):
            phi = random_formula(rng, VOC_R1C, ["x", "y"], depth=3)
            once = print_formula(phi)
            again = print_formula(parse_formula(once, VOC_R1C))
            assert once == again


class TestParseModel:
    def test_constant_model(self):
        voc, m = parse_model("domain 2\nconstant c = 0")
        assert m.size == 2 and m.constants == {"c": 0}
        assert voc.constants == {"c"}

    def test_partial_function_table(self):
        with pytest.raises(ParseError) as e:
            parse_model("domain 3\nfunction f/1 = [0->1, 1->2]")
        assert "partial" in str(e.value)

    def test_tuple_out_of_domain(self):
        with pytest.raises(ParseError) as e:
            parse_model("domain 2\nrelation R/2 = {(0,3)}")
        assert "out of domain" in str(e.value)

    def test_duplicate_symbol(self):
        with pytest.raises(ParseError):
            parse_model("domain 2\nconstant c = 0\nconstant c = 1")

    def test_full_model(self):
        voc, m = parse_model(
            "# a small structure\n"
            "domain 3\n"
            "constant c = 2\n"
            "relation R/1 = {(0), (2)}\n"
            "function f/1 = [0->1, 1->2, 2->0]\n"
        )
        assert m.relations["R"] == frozenset({(0,), (2,)})
        assert m.functions["f"][(1,)] == 2
        assert voc.relations == {"R": 1} and voc.functions == {"f": 1}

    def test_binary_function_table(self):
        entries = ", ".join(
            f"({a},{b})->{(a + b) % 2}" for a in range(2) for b in range(2)
        )
        voc, m = parse_model(f"domain 2\nfunction g/2 = [{entries}]")
        assert m.functions["g"][(1, 1)] == 0
        assert voc.functions == {"g": 2}


class TestStrictFiles:
    """Names must be identifiers that are not keywords, and a list item may
    not be empty; each error points at the offending token."""

    @pytest.mark.parametrize("text, span", [
        ("constant 9", Span(1, 9, 10)),
        ("constant c-d", Span(1, 10, 11)),
        ("constant forall", Span(1, 9, 15)),
        ("relation dep/1", Span(1, 9, 12)),
        ("function forall/1", Span(1, 9, 15)),
        ("relation R/1\nconstant R", Span(2, 9, 10)),
    ])
    def test_vocabulary_rejects(self, text, span):
        with pytest.raises(ParseError) as e:
            parse_vocabulary(text)
        assert e.value.diagnostic.span == span

    @pytest.mark.parametrize("text, span", [
        ("domain 2\nconstant forall = 1", Span(2, 9, 15)),
        ("domain 2\nrelation R/1 = {(0),,(1)}", Span(2, 20, 21)),
        ("domain 2\nfunction f/1 = [0->1, 1->0,]", Span(2, 27, 28)),
        ("domain 2\nfunction f/1 = [0->1, 0->0]", Span(2, 22, 23)),
    ])
    def test_model_rejects(self, text, span):
        with pytest.raises(ParseError) as e:
            parse_model(text)
        assert e.value.diagnostic.span == span


class TestRoundTrips:
    VOC = Vocabulary(relations={"A": 0, "P": 1, "R": 2}, functions={"f": 1, "g": 2},
                     constants={"c"})

    def test_model(self):
        # Size 2 has 16 384 models; every 37th keeps the test fast and still
        # varies every symbol's interpretation.
        models = itertools.chain(
            enumerate_models(self.VOC, 1),
            itertools.islice(enumerate_models(self.VOC, 2), 0, None, 37),
        )
        for m in models:
            assert parse_model(format_model(self.VOC, m)) == (self.VOC, m)

    @pytest.mark.parametrize("variables", [(), ("x",), ("x", "y"), ("u", "x", "y")])
    def test_team(self, variables):
        m = Model(2)
        for team in enumerate_teams(2, frozenset(variables)):
            assert parse_team(format_team(team), m) == team


class TestParseTeam:
    MODEL = Model(2)

    def test_two_rows(self):
        team = parse_team("vars x y\n0 1\n1 0", self.MODEL)
        assert len(team) == 2
        assert team.variables == {"x", "y"}

    def test_duplicate_rows_collapse(self):
        team = parse_team("vars x\n0\n0", self.MODEL)
        assert len(team) == 1

    def test_row_arity_error(self):
        with pytest.raises(ParseError):
            parse_team("vars x y\n0", self.MODEL)

    def test_value_out_of_domain(self):
        with pytest.raises(ParseError):
            parse_team("vars x\n5", self.MODEL)

    def test_duplicate_variable(self):
        with pytest.raises(ParseError):
            parse_team("vars x x\n0 0", self.MODEL)

    def test_empty_domain_team(self):
        team = parse_team("vars\n()", self.MODEL)
        assert team.variables == frozenset()
        assert team.rows == frozenset({Assignment()})


class TestParseProof:
    def test_single_assumption(self):
        voc = Vocabulary(relations={"R": 0}, constants={"c"})
        proof = parse_proof("1. R assume", voc)
        assert proof.steps[0].rule == "assume"
        assert proof.steps[0].premises == ()

    def test_dangling_reference(self):
        voc = Vocabulary(constants={"c"})
        with pytest.raises(ParseError) as e:
            parse_proof("1. c = c identity\n2. c = c & c = c and_i 1 5", voc)
        assert "dangling" in str(e.value)

    def test_conjunction_roundtrip_script(self):
        voc = Vocabulary(constants={"c"})
        script = (
            "1. c = c assume\n"
            "2. c = c assume\n"
            "3. (c = c & c = c) and_i 1 2\n"
            "4. c = c and_e_l 3\n"
        )
        proof = parse_proof(script, voc)
        assert [s.rule for s in proof.steps] == ["assume", "assume", "and_i", "and_e_l"]
        assert proof.steps[2].premises == (1, 2)

    def test_discharge_list(self):
        voc = Vocabulary(relations={"R": 0, "S": 0})
        script = (
            "1. R | S assume\n"
            "2. R assume\n"
            "3. R | S or_i_l 2\n"
            "4. S assume\n"
            "5. R | S assume\n"
            "6. R | S or_e 1 3 5 discharge 2 4\n"
        )
        proof = parse_proof(script, voc)
        assert proof.steps[5].discharged == (2, 4)
        assert proof.steps[5].premises == (1, 3, 5)

    def test_malformed_formula_reports_its_token(self):
        voc = Vocabulary(constants={"c"})
        with pytest.raises(ParseError) as e:
            parse_proof("1. c = c identity\n2. (c = c & ) identity", voc)
        assert e.value.diagnostic.span == Span(2, 12, 13)

    def test_unknown_rule(self):
        with pytest.raises(ParseError) as e:
            parse_proof("1. c = c frobnicate", Vocabulary(constants={"c"}))
        assert "unknown rule" in str(e.value)

    def test_repeated_formulas_are_read_once(self):
        voc = Vocabulary(relations={"P": 1}, constants={"c"})
        lines = [
            ("forall x. (P(x) | x = c)", "assume"),
            ("P(c)", "assume"),
            ("forall x. (P(x) | x = c)", "assume"),
            ("P(c) & P(c)", "and_i 2 2"),
            ("P(c)", "and_e_l 4"),
            ("forall x. (P(x) | x = c)", "assume discharge 1"),
        ]
        script = "".join(f"{i}. {text} {rest}\n" for i, (text, rest) in enumerate(lines, 1))
        steps = parse_proof(script, voc).steps
        for step, (text, _) in zip(steps, lines):
            assert identical(step.formula, parse_formula(text, voc))
        assert steps[0].formula is steps[2].formula is steps[5].formula
        assert steps[1].formula is steps[4].formula
        assert steps[5].discharged == (1,)

    def test_formula_may_end_in_a_variable_named_discharge(self):
        script = "1. x = discharge assume\n2. x = discharge assume\n"
        steps = parse_proof(script, EMPTY).steps
        assert [(s.formula, s.rule, s.discharged) for s in steps] == [
            (Eq(x, Var("discharge")), "assume", ())
        ] * 2


class TestParseVocabulary:
    def test_declarations(self):
        voc = parse_vocabulary("relation R/2\nfunction f/1\nconstant c")
        assert voc.relations == {"R": 2}
        assert voc.functions == {"f": 1}
        assert voc.constants == {"c"}

    def test_duplicate(self):
        with pytest.raises(ParseError):
            parse_vocabulary("constant c\nconstant c")
