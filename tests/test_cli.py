"""Tests for the command-line front end, run in process through main()."""

from deplogic.cli import EXIT_USAGE, main

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
