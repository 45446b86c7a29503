"""Tests for the command-line front end, run in process through main()."""

import pytest

from deplogic import parse_formula, parse_vocabulary, print_formula
from deplogic.cli import EXIT_BUDGET, EXIT_NEGATIVE, EXIT_OK, EXIT_USAGE, main

from helpers import EXAMPLE3_TEXT


def assert_one_line_error(capsys):
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert err.count("error:") == 1
    assert err.count("\n") == 1
    assert "Traceback" not in err


class TestRecursionLimit:
    def test_deep_approximation_prints(self, tmp_path, capsys):
        vocab = tmp_path / "v.txt"
        vocab.write_text("constant c\n")
        argv = ["approx", "--vocab", str(vocab), "--formula", EXAMPLE3_TEXT, "--n", "60"]
        assert main(argv) == EXIT_OK
        out = capsys.readouterr().out
        assert out.count("\n") == 1 and "∀x_59. ∃y_59. ∃z_59. " in out
        voc = parse_vocabulary("constant c\n")
        assert print_formula(parse_formula(out, voc), unicode_symbols=True) == out.rstrip("\n")

    def test_deeply_nested_parentheses_print(self, capsys):
        assert main(["parse", "--formula", "(" * 3000 + "x = x" + ")" * 3000]) == EXIT_OK
        assert capsys.readouterr().out == "x = x\n"

    def test_long_chain_prints(self, capsys):
        assert main(["parse", "--ascii", "--formula", " | ".join(["x = x"] * 5000)]) == EXIT_OK
        assert capsys.readouterr().out == "(" * 4999 + "x = x" + " | x = x)" * 4999 + "\n"

    def test_deeply_nested_negation_prints(self, capsys):
        assert main(["parse", "--formula", "~" * 3000 + "x = x"]) == EXIT_OK
        out = capsys.readouterr().out
        assert out.count("\n") == 1
        voc = parse_vocabulary("")
        assert print_formula(parse_formula(out, voc), unicode_symbols=True) == out.rstrip("\n")

    def test_deeply_nested_negation_evaluates(self, tmp_path, capsys):
        model = tmp_path / "m2.txt"
        model.write_text("domain 2\n")
        argv = ["eval", "--model", str(model), "--formula", "forall x. " + "~" * 3000 + "x = x"]
        assert main(argv) == EXIT_OK
        assert capsys.readouterr().out == "true\n"

    def test_long_approximation_chain_prints(self, tmp_path, capsys):
        # Phi^1 is false on one element, so the chain stops there and the
        # other 39 values repeat it; Phi^40 itself is built and evaluated in
        # test_semantics and printed by test_deep_approximation_prints.
        model = tmp_path / "m1.txt"
        model.write_text("domain 1\nconstant c = 0\n")
        argv = ["chain", "--model", str(model), "--formula", EXAMPLE3_TEXT, "--up-to", "40"]
        assert main(argv) == EXIT_OK
        assert capsys.readouterr().out.split() == ["false"] * 40

    def test_deep_proof_is_checked(self, tmp_path, capsys):
        deep = "~" * 3000 + "c = c"
        (tmp_path / "v.txt").write_text("constant c\n")
        (tmp_path / "h.txt").write_text(f"({deep}) & c = c\n")
        (tmp_path / "p.txt").write_text(f"1. ({deep}) & c = c assume\n2. {deep} and_e_l 1\n")
        argv = ["check-proof", "--vocab", str(tmp_path / "v.txt"),
                "--proof", str(tmp_path / "p.txt"), "--hypotheses", str(tmp_path / "h.txt")]
        assert main(argv) == EXIT_OK
        assert capsys.readouterr().out == "accepted\n"


class TestCheckProof:
    PREMISE = "exists x. forall y. (R(x,y) | P(z))"
    CONCLUSIONS = {
        "accepted": "forall y. exists x. (dep(z,x) & (R(x,y) | P(z)))",
        "rule-7 mutant": "forall y. exists x. (dep(y,x) & (R(x,y) | P(z)))",
    }

    def run(self, tmp_path, proof_text):
        (tmp_path / "v.txt").write_text("relation R/2\nrelation P/1\n")
        (tmp_path / "h.txt").write_text(self.PREMISE + "\n")
        (tmp_path / "p.txt").write_text(proof_text)
        return main(
            ["check-proof", "--vocab", str(tmp_path / "v.txt"),
             "--proof", str(tmp_path / "p.txt"), "--hypotheses", str(tmp_path / "h.txt")]
        )

    @pytest.mark.parametrize(
        "conclusion, code", [("accepted", EXIT_OK), ("rule-7 mutant", EXIT_NEGATIVE)]
    )
    def test_verdict_exit_codes(self, tmp_path, capsys, conclusion, code):
        text = f"1. {self.PREMISE} assume\n2. {self.CONCLUSIONS[conclusion]} dep_intro 1\n"
        assert self.run(tmp_path, text) == code
        assert capsys.readouterr().out == ("accepted\n" if code == EXIT_OK else "rejected\n")

    def test_parse_error_exits_2(self, tmp_path, capsys):
        assert self.run(tmp_path, f"one. {self.PREMISE} assume\n") == EXIT_USAGE
        assert_one_line_error(capsys)

    def test_missing_file_exits_2(self, tmp_path, capsys):
        argv = ["check-proof", "--proof", str(tmp_path / "missing.txt")]
        assert main(argv) == EXIT_USAGE
        assert_one_line_error(capsys)

    def test_directory_exits_2(self, tmp_path, capsys):
        assert main(["check-proof", "--proof", str(tmp_path)]) == EXIT_USAGE
        assert_one_line_error(capsys)


class TestExitCodes:
    """Exit codes of `eval`, `normalize`, `equiv` and `chain`.  `normalize`
    and `chain` have no negative verdict, so they never exit 1."""

    M, V, X, D = "{model}", "{vocab}", "{missing}", "{directory}"
    TRUE = "forall x. exists y. (dep(y) & y = c)"
    BROKEN = "forall x. (x = "
    # id: (argv, exit code, stdout or None)
    CASES = {
        "eval true": (["eval", "--model", M, "--formula", TRUE], EXIT_OK, "true\n"),
        "eval false": (["eval", "--model", M, "--formula", EXAMPLE3_TEXT], EXIT_NEGATIVE,
                       "false\n"),
        "eval parse error": (["eval", "--model", M, "--formula", BROKEN], EXIT_USAGE, None),
        "eval missing file": (["eval", "--model", X, "--formula", TRUE], EXIT_USAGE, None),
        "eval directory": (["eval", "--model", D, "--formula", TRUE], EXIT_USAGE, None),
        "eval budget": (["eval", "--budget", "1", "--model", M, "--formula", EXAMPLE3_TEXT],
                        EXIT_BUDGET, None),
        "normalize": (["normalize", "--vocab", V, "--formula", EXAMPLE3_TEXT], EXIT_OK, None),
        "normalize parse error": (["normalize", "--vocab", V, "--formula", BROKEN], EXIT_USAGE,
                                  None),
        "normalize missing file": (["normalize", "--vocab", X, "--formula", EXAMPLE3_TEXT],
                                   EXIT_USAGE, None),
        "normalize directory": (["normalize", "--vocab", D, "--formula", EXAMPLE3_TEXT],
                                EXIT_USAGE, None),
        "equiv equivalent": (["equiv", "--vocab", V, "--f1", "x = c", "--f2", "c = x"], EXIT_OK,
                             "equivalent\n"),
        "equiv counterexample": (["equiv", "--vocab", V, "--f1", "dep(x)", "--f2", "dep()"],
                                 EXIT_NEGATIVE, None),
        "equiv parse error": (["equiv", "--vocab", V, "--f1", BROKEN, "--f2", "x = c"],
                              EXIT_USAGE, None),
        "equiv missing file": (["equiv", "--vocab", X, "--f1", "x = c", "--f2", "c = x"],
                               EXIT_USAGE, None),
        "equiv directory": (["equiv", "--vocab", D, "--f1", "x = c", "--f2", "c = x"],
                            EXIT_USAGE, None),
        "equiv max size 0": (["equiv", "--f1", "dep(x)", "--f2", "x = x", "--max-size", "0"],
                             EXIT_USAGE, None),
        "equiv max size -3": (["equiv", "--f1", "dep(x)", "--f2", "x = x", "--max-size", "-3"],
                              EXIT_USAGE, None),
        "chain": (["chain", "--model", M, "--formula", EXAMPLE3_TEXT, "--up-to", "4"], EXIT_OK,
                  "true true false false\n"),
        "chain parse error": (["chain", "--model", M, "--formula", BROKEN, "--up-to", "2"],
                              EXIT_USAGE, None),
        "chain missing file": (["chain", "--model", X, "--formula", EXAMPLE3_TEXT, "--up-to", "2"],
                               EXIT_USAGE, None),
        "chain directory": (["chain", "--model", D, "--formula", EXAMPLE3_TEXT, "--up-to", "2"],
                            EXIT_USAGE, None),
    }
    # Flags that the command has no use for: argparse rejects them and prints
    # its usage line, so only the exit code is checked.
    UNUSED_FLAGS = {
        "parse budget": ["parse", "--budget", "5", "--ascii", "--formula", "x = x"],
        "chain budget": ["chain", "--budget", "1", "--model", M, "--formula", EXAMPLE3_TEXT,
                         "--up-to", "2"],
        "eval ascii": ["eval", "--ascii", "--model", M, "--formula", TRUE],
    }

    def run(self, argv, tmp_path):
        (tmp_path / "m.txt").write_text("domain 3\nconstant c = 0\n")
        (tmp_path / "v.txt").write_text("constant c\n")
        files = {"model": tmp_path / "m.txt", "vocab": tmp_path / "v.txt",
                 "missing": tmp_path / "missing.txt", "directory": tmp_path}
        return main([arg.format(**files) for arg in argv])

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_exit_code(self, case, tmp_path, capsys):
        argv, code, out = self.CASES[case]
        assert self.run(argv, tmp_path) == code
        if code in (EXIT_USAGE, EXIT_BUDGET):
            assert_one_line_error(capsys)
        elif out is not None:
            assert capsys.readouterr().out == out

    @pytest.mark.parametrize("case", sorted(UNUSED_FLAGS))
    def test_unused_flag_exits_2(self, case, tmp_path):
        assert self.run(self.UNUSED_FLAGS[case], tmp_path) == EXIT_USAGE
