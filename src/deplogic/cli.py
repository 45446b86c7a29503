"""Command-line front end.

Exit codes: 0 success/true/accepted, 1 false/rejected/counterexample,
2 usage or input errors, including an input file that cannot be read and
formulas nested too deeply to read, evaluate or print within Python's
recursion limit, 3 budget exceeded.

Only the commands that search take --budget (eval, equiv), and only the
commands that print a formula take --ascii (parse, normalize, approx).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Optional

from .diagnostics import ParseError
from .normalform import NormalFormError, to_normal_form, reassemble
from .approximation import approximation_chain_check, build_approximation
from .proofs import check_proof
from .semantics import (
    BudgetExceededError,
    SearchBudget,
    SemanticsError,
    equiv_on_small_models,
    satisfies,
    sentence_true,
)
from .surface import (
    format_model,
    format_team,
    parse_formula,
    parse_hypotheses,
    parse_model,
    parse_proof,
    parse_team,
    parse_vocabulary,
    print_formula,
)
from .syntax import EMPTY_VOCABULARY, Vocabulary, VocabularyError

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3


class CliError(Exception):
    """An input the command cannot use, such as a file it cannot read."""


def _read(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError as e:
        raise CliError(f"cannot read {path}: {e.strerror}") from e


def _budget(args: argparse.Namespace) -> SearchBudget:
    return SearchBudget() if args.budget is None else SearchBudget(args.budget)


def _vocabulary(args: argparse.Namespace) -> Vocabulary:
    if getattr(args, "vocab", None):
        return parse_vocabulary(_read(args.vocab))
    return EMPTY_VOCABULARY


def _print(args: argparse.Namespace, phi) -> None:
    print(print_formula(phi, unicode_symbols=not args.ascii))


def cmd_parse(args: argparse.Namespace) -> int:
    voc = _vocabulary(args)
    phi = parse_formula(args.formula, voc)
    _print(args, phi)
    return EXIT_OK


def cmd_eval(args: argparse.Namespace) -> int:
    voc, model = parse_model(_read(args.model))
    phi = parse_formula(args.formula, voc)
    budget = _budget(args)
    if args.team:
        team = parse_team(_read(args.team), model)
        verdict = satisfies(model, team, phi, budget)
    else:
        verdict = sentence_true(model, phi, budget)
    print("true" if verdict else "false")
    return EXIT_OK if verdict else EXIT_NEGATIVE


def cmd_normalize(args: argparse.Namespace) -> int:
    voc = _vocabulary(args)
    phi = parse_formula(args.formula, voc)
    nf = to_normal_form(phi)
    _print(args, reassemble(nf))
    return EXIT_OK


def cmd_approx(args: argparse.Namespace) -> int:
    voc = _vocabulary(args)
    phi = parse_formula(args.formula, voc)
    nf = to_normal_form(phi)
    _print(args, build_approximation(nf, args.n))
    return EXIT_OK


def cmd_check_proof(args: argparse.Namespace) -> int:
    voc = _vocabulary(args)
    proof = parse_proof(_read(args.proof), voc)
    hypotheses = (
        parse_hypotheses(_read(args.hypotheses), voc) if args.hypotheses else []
    )
    report = check_proof(proof, hypotheses)
    if report.accepted:
        print("accepted")
        return EXIT_OK
    print("rejected")
    for index, diagnostic in report.failures:
        print(f"step {index}: {diagnostic.message}", file=sys.stderr)
    return EXIT_NEGATIVE


def cmd_equiv(args: argparse.Namespace) -> int:
    voc = _vocabulary(args)
    f1 = parse_formula(args.f1, voc)
    f2 = parse_formula(args.f2, voc)
    ce = equiv_on_small_models(f1, f2, args.max_size, _budget(args)).counterexample
    if ce is None:
        print("equivalent")
        return EXIT_OK
    print("counterexample")
    print(format_model(voc, ce.model), end="")
    print(format_team(ce.team), end="")
    print(f"left: {ce.left_value}, right: {ce.right_value}")
    return EXIT_NEGATIVE


def cmd_chain(args: argparse.Namespace) -> int:
    voc, model = parse_model(_read(args.model))
    phi = parse_formula(args.formula, voc)
    nf = to_normal_form(phi)
    values = approximation_chain_check(nf, model, args.up_to)
    print(" ".join("true" if v else "false" for v in values))
    return EXIT_OK


def build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="deplogic",
        description="Dependence-logic workbench over finite models.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(
        p: argparse.ArgumentParser,
        formula: bool = True,
        vocab: bool = True,
        prints: bool = False,
        searches: bool = False,
    ) -> None:
        if formula:
            p.add_argument("--formula", required=True, help="formula text")
        if vocab:
            p.add_argument("--vocab", help="vocabulary declarations file")
        if prints:
            p.add_argument(
                "--ascii",
                action="store_true",
                help="print with forall/exists/&/|/~ instead of unicode symbols",
            )
        if searches:
            p.add_argument("--budget", type=int, help="search budget in choice points")

    p = sub.add_parser("parse", help="parse and reprint a formula")
    common(p, prints=True)
    p.set_defaults(run=cmd_parse)

    p = sub.add_parser("eval", help="evaluate a formula on a model (and team)")
    common(p, vocab=False, searches=True)
    p.add_argument("--model", required=True, help="model file")
    p.add_argument("--team", help="team file; omitted: sentence truth")
    p.set_defaults(run=cmd_eval)

    p = sub.add_parser("normalize", help="print the normal form of a sentence")
    common(p, prints=True)
    p.set_defaults(run=cmd_normalize)

    p = sub.add_parser("approx", help="print the n-th first-order approximation")
    common(p, prints=True)
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(run=cmd_approx)

    p = sub.add_parser("check-proof", help="check a natural-deduction script")
    common(p, formula=False)
    p.add_argument("--proof", required=True, help="proof script file")
    p.add_argument("--hypotheses", help="allowed open assumptions, one per line")
    p.set_defaults(run=cmd_check_proof)

    p = sub.add_parser("equiv", help="compare two formulas on all small models")
    common(p, formula=False, searches=True)
    p.add_argument("--f1", required=True)
    p.add_argument("--f2", required=True)
    p.add_argument("--max-size", type=int, default=3)
    p.set_defaults(run=cmd_equiv)

    p = sub.add_parser(
        "chain", help="truth values of approximations 1..n; only unsettled ones are evaluated"
    )
    common(p, vocab=False)
    p.add_argument("--model", required=True, help="model file")
    p.add_argument("--up-to", type=int, required=True)
    p.set_defaults(run=cmd_chain)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_arg_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return EXIT_USAGE if e.code not in (0, None) else EXIT_OK
    try:
        return args.run(args)
    except BudgetExceededError:
        print("error: search budget exceeded", file=sys.stderr)
        return EXIT_BUDGET
    except (
        CliError, NormalFormError, ParseError, SemanticsError, VocabularyError, ValueError
    ) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except RecursionError:
        print("error: formula nested too deeply (recursion limit)", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
