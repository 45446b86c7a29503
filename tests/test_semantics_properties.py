"""Property tests for the semantic invariants: downward closure, locality,
flatness, empty-team truth, the substitution lemma, and the agreement of a
normal form with its approximation of k**m rounds.

Hypothesis drives shrinking here; seeded random checks with fixed instance
counts sit in the test module of the layer they check.
"""

import itertools
import random

from hypothesis import given, settings, strategies as st

from deplogic import (
    BudgetExceededError,
    CaptureError,
    SearchBudget,
    Team,
    Var,
    build_approximation,
    free_vars,
    is_first_order,
    satisfies,
    sentence_true,
    substitute,
)
from deplogic.normalform import reassemble

from helpers import (
    SMALL_BUDGET,
    VOC_R1C,
    make_team,
    random_formula,
    random_fo_formula,
    random_model,
    random_normal_form,
    random_team,
    tarski,
    term_value,
)

TEAM_VARS = ["x", "y"]


@st.composite
def instances(draw, fo_only=False, extra_var=False):
    seed = draw(st.integers(0, 2**32 - 1))
    rng = random.Random(seed)
    size = rng.randint(1, 3)
    model = random_model(rng, VOC_R1C, size)
    variables = TEAM_VARS + (["w"] if extra_var else [])
    team = random_team(rng, variables, size, max_rows=4)
    gen = random_fo_formula if fo_only else random_formula
    phi = gen(rng, VOC_R1C, TEAM_VARS, depth=3)
    return model, team, phi, rng


def _sat(model, team, phi):
    return satisfies(model, team, phi, SMALL_BUDGET)


@given(instances())
def test_downward_closure(instance):
    model, team, phi, rng = instance
    try:
        if not _sat(model, team, phi):
            return
        rows = team.sorted_rows()
        for n in range(len(rows) + 1):
            for subset in itertools.combinations(rows, n):
                sub = Team(team.variables, frozenset(subset))
                assert _sat(model, sub, phi)
    except BudgetExceededError:
        return


@given(instances(extra_var=True))
def test_locality(instance):
    model, team, phi, rng = instance
    candidates = [free_vars(phi), free_vars(phi) | {"w"}]
    try:
        for view in candidates:
            if not view <= team.variables:
                continue
            restricted = make_team(view, [{v: s.as_dict()[v] for v in view} for s in team.rows])
            assert _sat(model, team, phi) == _sat(model, restricted, phi)
    except BudgetExceededError:
        return


@given(instances(fo_only=True))
def test_flatness(instance):
    model, team, phi, rng = instance
    assert is_first_order(phi)
    flat = all(tarski(model, s.as_dict(), phi) for s in team.rows)
    assert _sat(model, team, phi) == flat


@given(instances())
def test_empty_team_satisfies_everything(instance):
    model, team, phi, rng = instance
    empty = Team(team.variables, frozenset())
    assert _sat(model, empty, phi)


@given(instances())
def test_substitution_lemma(instance):
    model, team, phi, rng = instance
    variable = rng.choice(TEAM_VARS)
    term = Var(rng.choice(TEAM_VARS))
    try:
        substituted = substitute(phi, term, variable)
    except CaptureError:
        return
    supplemented = make_team(
        team.variables | {variable},
        [{**s.as_dict(), variable: term_value(model, s.as_dict(), term)} for s in team.rows],
    )
    try:
        assert _sat(model, team, substituted) == _sat(model, supplemented, phi)
    except BudgetExceededError:
        return


@given(instances())
def test_budget_monotone(instance):
    model, team, phi, rng = instance
    try:
        small = satisfies(model, team, phi, SearchBudget(20_000))
    except BudgetExceededError:
        return
    assert satisfies(model, team, phi, SearchBudget(2_000_000)) == small


@given(st.integers(0, 2**32 - 1))
def test_normal_form_equals_its_full_unrolling(seed):
    # On a model of size k, a normal form with m universals and its
    # approximation of k**m rounds agree: each round lets the universal
    # player pick one more tuple, and after k**m rounds the guards make the
    # existential answers total tables that satisfy the dependence atoms.
    rng = random.Random(seed)
    nf = random_normal_form(rng)
    m = len(nf.universals)
    k = rng.randint(1, 2 if m == 2 else 4)
    model = random_model(rng, VOC_R1C, k)
    assert k**m <= 4
    phi_n = build_approximation(nf, k**m)
    assert sentence_true(model, reassemble(nf)) == sentence_true(model, phi_n)
