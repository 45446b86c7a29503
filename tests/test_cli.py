"""Tests for the command-line front end, run in process through main()."""

import pytest

from deplogic.cli import EXIT_NEGATIVE, EXIT_OK, EXIT_USAGE, main

from helpers import EXAMPLE3_TEXT


def assert_one_line_error(capsys):
    err = capsys.readouterr().err
    assert err.startswith("error: ")
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
