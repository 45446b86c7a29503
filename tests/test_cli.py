"""Tests for the command-line front end, run in process through main()."""

import pytest

from deplogic.cli import BUDGET_ENV_VAR, EXIT_BUDGET, EXIT_NEGATIVE, EXIT_OK, EXIT_USAGE, main

from helpers import EXAMPLE3_TEXT


def assert_one_line_error(capsys):
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert err.count("error:") == 1
    assert err.count("\n") == 1
    assert "Traceback" not in err


class TestRecursionLimit:
    def test_deep_approximation_exits_2(self, tmp_path, capsys):
        vocab = tmp_path / "v.txt"
        vocab.write_text("constant c\n")
        argv = ["approx", "--vocab", str(vocab), "--formula", EXAMPLE3_TEXT, "--n", "60"]
        assert main(argv) == EXIT_USAGE
        assert_one_line_error(capsys)

    def test_deeply_nested_negation_exits_2(self, capsys):
        assert main(["parse", "--formula", "~" * 3000 + "x = x"]) == EXIT_USAGE
        assert_one_line_error(capsys)


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


class TestExitCodes:
    """Exit codes of `eval`, `normalize`, `equiv` and `chain`.  `normalize`
    and `chain` have no negative verdict, so they never exit 1."""

    M, V, X = "{model}", "{vocab}", "{missing}"
    TRUE = "forall x. exists y. (dep(y) & y = c)"
    BROKEN = "forall x. (x = "
    # id: (argv, DEPLOGIC_BUDGET or None, exit code, stdout or None)
    CASES = {
        "eval true": (["eval", "--model", M, "--formula", TRUE], None, EXIT_OK, "true\n"),
        "eval false": (["eval", "--model", M, "--formula", EXAMPLE3_TEXT], None, EXIT_NEGATIVE,
                       "false\n"),
        "eval parse error": (["eval", "--model", M, "--formula", BROKEN], None, EXIT_USAGE, None),
        "eval missing file": (["eval", "--model", X, "--formula", TRUE], None, EXIT_USAGE, None),
        "eval budget": (["eval", "--model", M, "--formula", EXAMPLE3_TEXT], "1", EXIT_BUDGET, None),
        "normalize": (["normalize", "--vocab", V, "--formula", EXAMPLE3_TEXT], None, EXIT_OK, None),
        "normalize parse error": (["normalize", "--vocab", V, "--formula", BROKEN], None,
                                  EXIT_USAGE, None),
        "normalize missing file": (["normalize", "--vocab", X, "--formula", EXAMPLE3_TEXT], None,
                                   EXIT_USAGE, None),
        "equiv equivalent": (["equiv", "--vocab", V, "--f1", "x = c", "--f2", "c = x"], None,
                             EXIT_OK, "equivalent\n"),
        "equiv counterexample": (["equiv", "--vocab", V, "--f1", "dep(x)", "--f2", "dep()"], None,
                                 EXIT_NEGATIVE, None),
        "equiv parse error": (["equiv", "--vocab", V, "--f1", BROKEN, "--f2", "x = c"], None,
                              EXIT_USAGE, None),
        "equiv missing file": (["equiv", "--vocab", X, "--f1", "x = c", "--f2", "c = x"], None,
                               EXIT_USAGE, None),
        "equiv max size 0": (["equiv", "--f1", "dep(x)", "--f2", "x = x", "--max-size", "0"], None,
                             EXIT_USAGE, None),
        "equiv max size -3": (["equiv", "--f1", "dep(x)", "--f2", "x = x", "--max-size", "-3"],
                              None, EXIT_USAGE, None),
        "chain": (["chain", "--model", M, "--formula", EXAMPLE3_TEXT, "--up-to", "4"], None,
                  EXIT_OK, "true true false false\n"),
        "chain parse error": (["chain", "--model", M, "--formula", BROKEN, "--up-to", "2"], None,
                              EXIT_USAGE, None),
        "chain missing file": (["chain", "--model", X, "--formula", EXAMPLE3_TEXT, "--up-to", "2"],
                               None, EXIT_USAGE, None),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_exit_code(self, case, tmp_path, capsys, monkeypatch):
        argv, budget, code, out = self.CASES[case]
        (tmp_path / "m.txt").write_text("domain 3\nconstant c = 0\n")
        (tmp_path / "v.txt").write_text("constant c\n")
        files = {"model": tmp_path / "m.txt", "vocab": tmp_path / "v.txt",
                 "missing": tmp_path / "missing.txt"}
        if budget is None:
            monkeypatch.delenv(BUDGET_ENV_VAR, raising=False)
        else:
            monkeypatch.setenv(BUDGET_ENV_VAR, budget)
        assert main([arg.format(**files) for arg in argv]) == code
        if code in (EXIT_USAGE, EXIT_BUDGET):
            assert_one_line_error(capsys)
        elif out is not None:
            assert capsys.readouterr().out == out
