import itertools
import math
import time

import pytest
from hypothesis import given, settings, strategies as st

from zeqr.datamodel import Config, Session, Turn
from zeqr.evaluation import (
    METRIC_FIELDS,
    ambiguity_census,
    evaluate_run,
    format_census,
    format_metric_table,
    paired_t_test,
    t_two_sided_p,
)
from zeqr.ingest import Qrels, RunResult


def _run(query_id, doc_ids):
    ranked = tuple((d, float(len(doc_ids) - i)) for i, d in enumerate(doc_ids))
    return RunResult(query_id=query_id, ranked=ranked)


def _qrels(entries):
    return Qrels(judgments={(q, d): g for q, d, g in entries})


# ---- evaluate_run ----

def test_perfect_ranking_ndcg_is_one():
    qrels = _qrels([("q", "d1", 1), ("q", "d2", 1)])
    report = evaluate_run([_run("q", ["d1", "d2", "x", "y"])], qrels, Config())
    assert report.per_query["q"]["ndcg_at_5"] == pytest.approx(1.0)
    assert report.per_query["q"]["ap"] == pytest.approx(1.0)


def test_derived_ndcg_example():
    # qrels d1=3, d2=1; run order d2, d1
    qrels = _qrels([("q", "d1", 3), ("q", "d2", 1)])
    report = evaluate_run([_run("q", ["d2", "d1"])], qrels, Config())
    dcg = 1 / math.log2(2) + 3 / math.log2(3)
    idcg = 3 / math.log2(2) + 1 / math.log2(3)
    assert report.per_query["q"]["ndcg_at_5"] == pytest.approx(dcg / idcg, abs=1e-9)
    assert report.per_query["q"]["ndcg_at_5"] == pytest.approx(0.7967, abs=1e-4)


def test_no_judged_docs_retrieved_scores_zero():
    qrels = _qrels([("q", "rel", 2)])
    report = evaluate_run([_run("q", ["u1", "u2"])], qrels, Config())
    for name in METRIC_FIELDS:
        assert report.per_query["q"][name] == 0.0


def test_unjudged_query_excluded_with_count():
    qrels = _qrels([("q1", "d1", 1)])
    report = evaluate_run([_run("q1", ["d1"]), _run("q9", ["d1"])], qrels, Config())
    assert report.num_queries == 1
    assert report.num_unjudged == 1


def test_judged_query_missing_from_the_run_is_counted_not_scored():
    qrels = _qrels([("q1", "d1", 1), ("q2", "d2", 1)])
    report = evaluate_run([_run("q1", ["d1"])], qrels, Config())
    assert (report.num_queries, report.num_unretrieved) == (1, 1)
    assert report.means["ap"] == 1.0


def test_query_without_relevant_docs_dropped_from_means():
    qrels = _qrels([("q1", "d1", 1), ("q2", "d2", 0)])
    report = evaluate_run([_run("q1", ["d1"]), _run("q2", ["d2"])], qrels, Config())
    assert set(report.per_query) == {"q1"}


def test_relevance_cutoff_changes_binary_metrics():
    qrels = _qrels([("q", "d1", 1), ("q", "d2", 2)])
    run = [_run("q", ["d1", "d2"])]
    lax = evaluate_run(run, qrels, Config(map_relevance_cutoff=1))
    strictly = evaluate_run(run, qrels, Config(map_relevance_cutoff=2))
    assert lax.per_query["q"]["p_at_5"] == pytest.approx(0.4)
    assert strictly.per_query["q"]["p_at_5"] == pytest.approx(0.2)
    assert strictly.per_query["q"]["ap"] == pytest.approx(0.5)


def test_means_are_arithmetic_means():
    qrels = _qrels([("q1", "d1", 1), ("q2", "d2", 1)])
    report = evaluate_run([_run("q1", ["d1"]), _run("q2", ["x", "d2"])], qrels, Config())
    for name in METRIC_FIELDS:
        expected = (report.per_query["q1"][name] + report.per_query["q2"][name]) / 2
        assert report.means[name] == pytest.approx(expected, abs=1e-12)


def test_evaluate_run_is_linear_in_qrels_size():
    # 3000 queries x 100 judgments: scanning all 300k judgments once per
    # query takes most of a minute; indexing them once takes about a second
    queries, per_query = 3000, 100
    qrels = Qrels(judgments={(f"q{q}", f"d{d}"): 1 + (q + d) % 3
                             for q in range(queries) for d in range(per_query)})
    run = [_run(f"q{q}", [f"d{d}" for d in range(10)]) for q in range(queries)]
    start = time.perf_counter()
    report = evaluate_run(run, qrels, Config())
    assert time.perf_counter() - start < 20.0
    assert report.num_queries == queries
    assert report.per_query["q7"] == evaluate_run(
        [run[7]], _qrels([("q7", f"d{d}", 1 + (7 + d) % 3) for d in range(per_query)]),
        Config()).per_query["q7"]


def test_format_metric_table_has_all_row():
    qrels = _qrels([("q1", "d1", 1)])
    report = evaluate_run([_run("q1", ["d1"])], qrels, Config())
    table = format_metric_table(report)
    assert table.splitlines()[0] == "query_id\tndcg@5\tp@5\tr@100\tap"
    assert table.splitlines()[-1].startswith("all\t")


# ---- metric properties ----

@st.composite
def run_and_qrels(draw):
    doc_pool = [f"d{i}" for i in range(12)]
    retrieved = draw(st.lists(st.sampled_from(doc_pool), unique=True,
                              min_size=1, max_size=10))
    judged = draw(st.dictionaries(st.sampled_from(doc_pool),
                                  st.integers(min_value=0, max_value=3),
                                  min_size=1, max_size=8))
    return retrieved, judged


@given(run_and_qrels())
def test_metric_bounds(data):
    retrieved, judged = data
    qrels = _qrels([("q", d, g) for d, g in judged.items()])
    report = evaluate_run([_run("q", retrieved)], qrels, Config())
    for metrics in report.per_query.values():
        for name in METRIC_FIELDS:
            assert 0.0 <= metrics[name] <= 1.0


@settings(max_examples=30)
@given(st.dictionaries(st.sampled_from([f"d{i}" for i in range(6)]),
                       st.integers(min_value=0, max_value=3),
                       min_size=2, max_size=6))
def test_ndcg_permutation_optimality(judged):
    if not any(g > 0 for g in judged.values()):
        return
    qrels = _qrels([("q", d, g) for d, g in judged.items()])
    docs = sorted(judged)
    best_order = sorted(docs, key=lambda d: -judged[d])
    best = evaluate_run([_run("q", best_order)], qrels, Config())
    target = best.per_query["q"]["ndcg_at_5"]
    for perm in itertools.permutations(docs):
        report = evaluate_run([_run("q", list(perm))], qrels, Config())
        assert report.per_query["q"]["ndcg_at_5"] <= target + 1e-12


# ---- paired_t_test ----

def test_identical_samples():
    result = paired_t_test([0.1, 0.5, 0.9], [0.1, 0.5, 0.9])
    assert result.t_statistic == 0.0
    assert result.p_value == 1.0


def test_derived_five_sample_fixture():
    b = [0.0, 0.0, 0.0, 0.0, 0.0]
    a = [1.0, 2.0, 3.0, 4.0, 5.0]
    result = paired_t_test(a, b)
    # mean 3, sd 1.5811, t = 3 / (1.5811 / sqrt(5))
    assert result.t_statistic == pytest.approx(4.2426, abs=1e-4)
    # 2 * stats.t.sf(4.242640687119285, df=4) of SciPy 1.17.1
    assert result.p_value == pytest.approx(0.01323559956368269, rel=1e-10)
    assert result.p_value == pytest.approx(0.0132, abs=1e-3)


# 2 * stats.t.sf(t, df), computed once with SciPy 1.17.1, for t (rows) by df
# (columns).
_T_GRID_DFS = (1, 2, 5, 30, 299, 1000)
_T_GRID = {
    0.0: (1.0, 1.0, 1.0, 1.0, 1.0, 1.0),
    1e-12: (1.0, 0.9999999999992929, 0.9999999999992408, 0.9999999999992087,
            0.9999999999992027, 0.9999999999992023),
    1e-06: (0.9999993633519304, 0.9999992928932188, 0.9999992407866204,
            0.9999992087356302, 0.9999992027822867, 0.9999992023148854),
    0.1: (0.936548965138893, 0.9294654384141402, 0.9242301411546604, 0.9210096117902712,
          0.9204113409349043, 0.9203643690236041),
    1.96: (0.3003428917760331, 0.18905730960173228, 0.10728795250529416,
           0.05934231289605049, 0.05092435137727549, 0.050273184955748736),
    5.0: (0.1256659163780024, 0.037749551350623724, 0.004104715980053323,
          2.32966854670078e-05, 9.78569098969785e-07, 6.767256364648635e-07),
    50.0: (0.012730698201945594, 0.00039976015988808057, 6.047757626601225e-08,
           1.871541765922271e-30, 2.978583164338909e-147, 2.758672412325172e-274),
    1e6: (6.366197723673691e-07, 9.999999999985001e-13, 1.8980334490921362e-29,
          2.0729069296087578e-159, 0.0, 0.0),
    # t squared overflows to infinity, where every tail is 0
    1e200: (0.0, 0.0, 0.0, 0.0, 0.0, 0.0),
}


@pytest.mark.parametrize("t", sorted(_T_GRID))
def test_p_value_matches_the_reference_over_a_grid(t):
    for df, expected in zip(_T_GRID_DFS, _T_GRID[t]):
        assert t_two_sided_p(t, df) == pytest.approx(expected, rel=1e-10, abs=0.0), df
        assert t_two_sided_p(-t, df) == t_two_sided_p(t, df)


def test_single_observation_rejected():
    with pytest.raises(ValueError):
        paired_t_test([1.0], [0.5])


def test_length_mismatch_rejected():
    with pytest.raises(ValueError):
        paired_t_test([1.0, 2.0], [0.5])


def test_zero_variance_nonzero_mean_is_degenerate():
    result = paired_t_test([1.0, 1.0, 1.0], [0.0, 0.0, 0.0])
    assert result.degenerate
    assert result.p_value == 0.0
    assert math.isinf(result.t_statistic) and result.t_statistic > 0


@given(st.lists(st.tuples(st.floats(0, 1), st.floats(0, 1)), min_size=2, max_size=30))
def test_symmetry(pairs):
    a = [x for x, _ in pairs]
    b = [y for _, y in pairs]
    forward = paired_t_test(a, b)
    backward = paired_t_test(b, a)
    assert forward.t_statistic == pytest.approx(-backward.t_statistic, rel=1e-9, abs=1e-12)
    assert forward.p_value == pytest.approx(backward.p_value, rel=1e-9, abs=1e-12)


# ---- ambiguity_census ----

def test_biopsy_turn4_flags(mini_sessions, mini_idf):
    census = ambiguity_census(mini_sessions, mini_idf, Config(idf_threshold=1.5))
    flags = census.per_turn[("79", 4)]
    assert flags["has_coref"] and flags["has_omission"]


def test_biopsy_types_turn_has_omission(mini_idf):
    session = Session("s", (Turn(1, "I just had a breast biopsy for cancer. "
                                    "What are the most common types?"),))
    census = ambiguity_census([session], mini_idf, Config(idf_threshold=1.5))
    assert census.per_turn[("s", 1)]["has_omission"]
    assert not census.per_turn[("s", 1)]["has_coref"]


def test_empty_sessions_zero_counts(mini_idf):
    census = ambiguity_census([], mini_idf, Config())
    assert census.coreference_count == 0
    assert census.omission_count == 0


def test_census_monotone_in_threshold(mini_sessions, mini_idf):
    counts = []
    for eta in (0.5, 1.0, 1.5, 2.0, 3.0, 4.0):
        census = ambiguity_census(mini_sessions, mini_idf, Config(idf_threshold=eta))
        counts.append(census.omission_count)
    assert counts == sorted(counts, reverse=True)


def test_format_census_shape(mini_sessions, mini_idf):
    census = ambiguity_census(mini_sessions, mini_idf, Config(idf_threshold=1.5))
    lines = format_census(census).splitlines()
    assert lines[0] == "session_id\tturn_id\thas_coref\thas_omission"
    assert lines[-2] == f"coreference\t{census.coreference_count}"
    assert lines[-1] == f"omission\t{census.omission_count}"
