"""Property tests: the columnar exhaustive search is the per-plan loop, bitwise.

``ExhaustiveSearch`` scores the whole plan space in one kernel pass.  It
must return exactly what the per-plan product loop in
``tests/property/plan_reference.py`` returns: the same best plan, the
same front in the same order, the same ``explored`` count, every float
equal to the last bit, and the same ``ValueError`` for out-of-range
input.

The tables cover 1-9 jobs (so rows of 8+ assignments take numpy's
pairwise-sum path), 1-5 candidates per job drawn with repetition (so
utility and price ties occur, and replicated plans can assign a source
twice), neutral, averse and seeking risk profiles, price sensitivities
that clip utility at 0 or push it above 1, and replication up to 3.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data import TextDocument
from repro.optimizer import CandidateAssignment, ExhaustiveSearch, make_evaluator
from repro.qos import QoSVector, QoSWeights
from repro.query import Query, QueryKind
from repro.uncertainty import (
    RiskProfile,
    UncertainEstimate,
    risk_averse,
    risk_neutral,
    risk_seeking,
)

from tests.property import plan_reference

pytestmark = pytest.mark.property

QUERY = Query(
    kind=QueryKind.SIMILARITY,
    reference_item=TextDocument(
        item_id="ref", domain="museum", latent=np.array([1.0]), terms={"w00001": 1},
    ),
)

ZERO_WEIGHTS = QoSWeights(
    response_time=0.0, completeness=0.0, freshness=0.0, correctness=0.0, trust=0.0,
)

unit = st.floats(min_value=0.0, max_value=1.0)

candidate_specs = st.tuples(
    st.sampled_from(["s0", "s1", "s2", "s3", "s4", "s5"]),
    st.floats(min_value=0.0, max_value=20.0),  # response time
    unit, unit, unit, unit,  # completeness, freshness, correctness, trust
    st.floats(min_value=0.0, max_value=10.0),  # cost mean
    unit,  # breach risk
)


def _candidate(job, spec):
    source_id, response_time, completeness, freshness, correctness, trust, cost, risk = spec
    return CandidateAssignment(
        subquery=QUERY.restricted_to(f"domain-{job}"),
        source_id=source_id,
        expected=QoSVector(
            response_time=response_time, completeness=completeness,
            freshness=freshness, correctness=correctness, trust=trust,
        ),
        cost=UncertainEstimate(mean=cost, std=0.0, low=-np.inf, high=np.inf),
        breach_risk=risk,
    )


@st.composite
def tables(draw):
    """Candidate tables of at most 3**6 single-source plans."""
    n_jobs = draw(st.integers(1, 9))
    widest = 5 if n_jobs <= 4 else 3 if n_jobs <= 6 else 2
    table = {}
    for job in range(n_jobs):
        specs = draw(st.lists(candidate_specs, min_size=1, max_size=3))
        picks = draw(st.lists(st.sampled_from(specs), min_size=1, max_size=widest))
        candidates = [_candidate(job, spec) for spec in picks]
        table[candidates[0].subquery.subquery_id] = candidates
    return table


weights = st.builds(
    QoSWeights,
    response_time=st.floats(0.0, 3.0), completeness=st.floats(0.0, 3.0),
    freshness=st.floats(0.0, 3.0), correctness=st.floats(0.0, 3.0),
    trust=st.floats(0.0, 3.0), response_half_life=st.floats(0.5, 20.0),
)
profiles = st.one_of(
    st.sampled_from([risk_neutral(), risk_averse(), risk_seeking()]),
    st.floats(-20.0, 20.0).map(lambda a: RiskProfile(aversion=a, name="drawn")),
)
# 0 never clips, 5 clips most plans' utility at 0, a negative one can push
# utility above 1 (the risk profile's range error).
sensitivities = st.sampled_from([0.0, 0.02, 5.0, -0.5])


def _outcome(run):
    """``run()``'s comparable result, or its ValueError's message."""
    try:
        best, front, explored = run()
    except ValueError as error:
        return "error", str(error)
    fingerprint = plan_reference.fingerprint
    return fingerprint(best), [fingerprint(e) for e in front], explored


def _assert_parity(table, scorer, max_replication, max_plans=20000):
    expected = _outcome(lambda: plan_reference.exhaustive_search(
        table, scorer, max_plans=max_plans, max_replication=max_replication,
    ))
    search = ExhaustiveSearch(max_plans=max_plans, max_replication=max_replication)

    def columnar():
        result = search.search(table, scorer)
        return result.best, result.front, result.explored

    assert _outcome(columnar) == expected
    return expected


@settings(max_examples=150)
@given(
    table=tables(), weights=weights, profile=profiles,
    sensitivity=sensitivities, max_replication=st.integers(1, 3),
)
def test_columnar_search_matches_per_plan_loop(
    table, weights, profile, sensitivity, max_replication
):
    scorer = make_evaluator(weights, price_sensitivity=sensitivity, risk_profile=profile)
    _assert_parity(table, scorer, max_replication)


@settings(max_examples=60)
@given(
    table=tables(), profile=profiles, max_replication=st.integers(1, 3),
    field=st.sampled_from(["response_time", "completeness", "trust", "breach_risk"]),
    value=st.sampled_from([-0.5, 1.5]),
    position=st.integers(0, 50),
    weighted=st.booleans(),
)
def test_out_of_range_candidates_raise_the_reference_error(
    table, profile, max_replication, field, value, position, weighted
):
    """A corrupted candidate anywhere in the space fails like the reference.

    With all-zero weights, the first plan's QoS error must still win over
    the weights' error, as it does when plans are scored one by one.
    """
    candidates = [c for job in sorted(table) for c in table[job]]
    target = candidates[position % len(candidates)]
    if field == "breach_risk":
        object.__setattr__(target, "breach_risk", value)
    else:
        object.__setattr__(target.expected, field, value)
    weights = QoSWeights() if weighted else ZERO_WEIGHTS
    scorer = make_evaluator(weights, price_sensitivity=0.02, risk_profile=profile)
    _assert_parity(table, scorer, max_replication)


def test_response_time_is_pythons_first_maximum():
    """Signed zeros, and a NaN before or after other jobs, follow the builtin max."""
    nan = float("nan")
    zeros = [(-0.0, 0.0), (0.0, -0.0)]
    for layout in (zeros + [(nan, 0.5)], [(nan, 0.5)] + zeros):
        table = {}
        for job, response_times in enumerate(layout):
            candidates = [
                _candidate(job, (f"s{i}", rt, 0.5, 0.5, 0.5, 0.5, 1.0, 0.1))
                for i, rt in enumerate(response_times)
            ]
            table[candidates[0].subquery.subquery_id] = candidates
        _assert_parity(table, make_evaluator(QoSWeights()), 2)


@given(table=tables())
def test_zero_weights_and_plan_budget_raise_the_reference_error(table):
    outcome = _assert_parity(table, make_evaluator(ZERO_WEIGHTS), 1)
    assert outcome == ("error", "at least one weight must be positive")
    space = int(np.prod([len(candidates) for candidates in table.values()]))
    outcome = _assert_parity(table, make_evaluator(QoSWeights()), 1, max_plans=space)
    assert outcome[0] != "error"
    if space > 1:
        outcome = _assert_parity(
            table, make_evaluator(QoSWeights()), 1, max_plans=space - 1
        )
        assert outcome[0] == "error"
