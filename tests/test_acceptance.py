"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Tolerances and runtime budgets are fixed here, not calibrated.
"""

import json
import math
import random
import time

import pytest

from conftest import BIOPSY_Q4, BIOPSY_Q4_STAR
from test_retrieval import brute_force_ranking
from zeqr.cli import main
from zeqr.datamodel import Config, Turn, context_for_turn
from zeqr.evaluation import evaluate_run, paired_t_test
from zeqr.ingest import Document, Qrels, RunResult
from zeqr.reader import OracleReader
from zeqr.reformulator import (
    make_coref_question,
    make_omission_question,
    reformulate,
    resolve_coreference,
    resolve_omission,
)
from zeqr.retrieval import bm25_search, build_index


def _report(cid: str, message: str) -> None:
    print(f"ACCEPTANCE {cid}: PASS - {message}")


def _timed(budget_s: float):
    start = time.monotonic()

    def check():
        elapsed = time.monotonic() - start
        assert elapsed < budget_s, f"runtime {elapsed:.2f}s exceeds budget {budget_s}s"
        return elapsed

    return check


# --------------------------------------------------------------------------
# C1: template fidelity

def test_c1_template_fidelity():
    done = _timed(1.0)
    assert make_coref_question("that", BIOPSY_Q4) == (
        'What is that refer to, in "Wow, that is better than I thought.  '
        'What are common treatments?"'
    )
    assert make_omission_question("treatments", "noun", BIOPSY_Q4_STAR) == (
        'treatments of what, in "Wow, Lobular Neoplasia is better than I thought.  '
        'What are common treatments?"'
    )
    assert make_coref_question("its", "What is its main economic activity?") == \
        'What is its refer to, in "What is its main economic activity?"'
    assert make_omission_question("rules", "noun", "What are the EU rules?") == \
        'rules of what, in "What are the EU rules?"'
    _report("C1", f"templates verbatim ({done():.2f}s)")


# --------------------------------------------------------------------------
# C2: biopsy dialogue end-to-end

def test_c2_biopsy_dialogue_end_to_end(biopsy_session, biopsy_oracle, hand_idf):
    done = _timed(1.0)
    config = Config(mode="full")
    ctx = context_for_turn(biopsy_session, 4, Config())
    trace = reformulate(biopsy_session.turns[3], ctx, hand_idf, biopsy_oracle, config)
    assert trace.q_double_star == (
        "Wow, Lobular Neoplasia is better than I thought.  "
        "What are common treatments of Lobular Carcinoma in Situ?"
    )
    _report("C2", f"turn 4 rewritten exactly ({done():.2f}s)")


# --------------------------------------------------------------------------
# C3: worked resolution fixtures

def _reformulate_one(raw, context, oracle, idf, **config_kwargs):
    config = Config(mode="full", **config_kwargs)
    trace = reformulate(Turn(1, raw), context, idf, oracle, config)
    return trace.q_double_star


def test_c3_worked_resolutions(hand_idf):
    done = _timed(1.0)

    # the postmodifier check must be relaxed to of-phrases for this row:
    # "with" follows "difference" and would block it under the strict rule
    raw = "What is the difference with Bologna?"
    out = _reformulate_one(
        raw,
        "Tell me about mortadella. Mortadella is an Italian sausage that is "
        "often compared with Bologna sausage.",
        OracleReader({f'difference of what, in "{raw}"': "mortadella"}),
        hand_idf,
        omission_strict=False,
    )
    assert "difference of mortadella" in out
    assert out == "What is the difference of mortadella with Bologna?"

    raw = "What are the EU rules?"
    out = _reformulate_one(
        raw,
        "Tell me about GMO Food labeling. The EU rules of GMO Food labeling are strict.",
        OracleReader({f'rules of what, in "{raw}"': "GMO Food labeling"}),
        hand_idf,
    )
    assert "EU rules of GMO Food labeling" in out
    assert out == "What are the EU rules of GMO Food labeling?"

    raw = "What licenses and permits are needed?"
    out = _reformulate_one(
        raw,
        "I want to start a food truck. A food truck owner needs a business license "
        "and several permits.",
        OracleReader({f'permits of what, in "{raw}"': "food truck"}),
        hand_idf,
    )
    assert "licenses and permits of food truck" in out
    assert out == "What licenses and permits of food truck are needed?"

    raw = "What is its main economic activity?"
    out = _reformulate_one(
        raw,
        "What is the population of Salt Lake City? Salt Lake City has about two hundred "
        "thousand people.",
        OracleReader({
            f'What is its refer to, in "{raw}"': "Salt Lake City",
            'activity of what, in "What is Salt Lake City\'s main economic '
            'activity?"': "Salt Lake City",
        }),
        hand_idf,
    )
    assert "Salt Lake City" in out
    _report("C3", f"all four resolutions present ({done():.2f}s)")


# --------------------------------------------------------------------------
# C4: coref-before-omission order

def _footnote_inputs(hand_idf):
    raw = "That is better than I thought. What are common ones?"
    context = ("How deadly is Lobular Carcinoma in Situ? "
               "In this case it will be described as Lobular Neoplasia. "
               "Common treatments include careful monitoring.")
    oracle = OracleReader({
        f'What is That refer to, in "{raw}"': "Lobular Neoplasia",
        f'What is ones refer to, in "{raw}"': "treatments",
        'treatments of what, in "Lobular Neoplasia is better than I thought. '
        'What are common treatments?"': "Lobular Carcinoma in Situ",
    })
    return raw, context, oracle


def test_c4_order_property(hand_idf, mini_dir, tmp_path):
    done = _timed(1.0)
    raw, context, oracle = _footnote_inputs(hand_idf)
    config = Config(mode="full")

    trace = reformulate(Turn(1, raw), context, hand_idf, oracle, config)
    assert "treatments of Lobular Carcinoma in Situ" in trace.q_double_star

    # deliberately reversed pipeline: omission first cannot see the noun
    # still hidden behind "ones", so the omission stays unresolved
    q_mid, omission_steps = resolve_omission(raw, context, hand_idf, oracle, config)
    q_rev, _ = resolve_coreference(q_mid, context, oracle, config)
    assert not any(s.applied for s in omission_steps)
    assert "treatments of" not in q_rev

    # every full-mode trace executes all coref steps before any omission step
    run_path = tmp_path / "order.trec"
    trace_path = tmp_path / "order.jsonl"
    code = main(["run", "--topics", str(mini_dir / "topics.json"),
                 "--collection", str(mini_dir / "collection.jsonl"),
                 "--reader", f"oracle:{mini_dir / 'oracle.json'}",
                 "--mode", "full", "--idf-threshold", "1.5",
                 "--out", str(run_path), "--traces", str(trace_path)])
    assert code == 0
    for line in trace_path.read_text().splitlines():
        record = json.loads(line)
        assert isinstance(record["coref_steps"], list)
        assert isinstance(record["omission_steps"], list)
        # serialized order mirrors execution order: q_star is produced
        # before any omission question is asked
        for step in record["omission_steps"]:
            assert record["q_star"] in step["question"]
    _report("C4", f"coreference strictly precedes omission ({done():.2f}s)")


# --------------------------------------------------------------------------
# C5: BM25 brute-force equivalence, 200 docs x 50 queries

def test_c5_bm25_oracle_equivalence():
    done = _timed(30.0)
    rng = random.Random(20230901)
    vocab = [f"term{i}" for i in range(120)]
    weights = [1.0 / (i + 1) for i in range(len(vocab))]  # zipf-ish
    docs = [
        Document(f"doc{i:03d}",
                 " ".join(rng.choices(vocab, weights=weights, k=rng.randint(5, 60))))
        for i in range(200)
    ]
    index = build_index(docs)
    config = Config()
    for q in range(50):
        query = " ".join(rng.choices(vocab, weights=weights, k=rng.randint(1, 5)))
        got = bm25_search(index, query, 20, config, query_id=f"q{q}")
        want = brute_force_ranking(docs, query, 20)
        assert [d for d, _ in got.ranked] == [d for d, _ in want]
        for (_, g), (_, w) in zip(got.ranked, want):
            assert g == pytest.approx(w, abs=1e-6)
    _report("C5", f"200 docs x 50 queries match brute force ({done():.2f}s)")


# --------------------------------------------------------------------------
# C6: metric oracle equivalence

def _brute_metrics(ranked, judged, cutoff):
    """Loop-level reimplementation of the four metrics."""
    relevant = {d for d, g in judged.items() if g >= cutoff}
    dcg = idcg = 0.0
    for rank, doc in enumerate(ranked[:5], start=1):
        dcg += judged.get(doc, 0) / math.log2(rank + 1)
    for rank, grade in enumerate(sorted(judged.values(), reverse=True)[:5], start=1):
        idcg += grade / math.log2(rank + 1)
    ndcg = dcg / idcg if idcg else 0.0
    p5 = len([d for d in ranked[:5] if d in relevant]) / 5
    r100 = len([d for d in ranked[:100] if d in relevant]) / len(relevant)
    hits, total = 0, 0.0
    for rank, doc in enumerate(ranked, start=1):
        if doc in relevant:
            hits += 1
            total += hits / rank
    ap = total / len(relevant)
    return {"ndcg_at_5": ndcg, "p_at_5": p5, "r_at_100": r100, "ap": ap}


def _as_run(query_id, ranked_docs):
    return RunResult(query_id, tuple((d, float(len(ranked_docs) - i))
                                     for i, d in enumerate(ranked_docs)))


def test_c6_metric_oracle_equivalence():
    done = _timed(30.0)
    config = Config()

    # three-query hand fixture
    qrels = Qrels(judgments={
        ("qa", "d1"): 3, ("qa", "d2"): 1,
        ("qb", "e1"): 1, ("qb", "e2"): 1,
        ("qc", "f1"): 2,
    })
    run = [_as_run("qa", ["d2", "d1"]),
           _as_run("qb", ["e1", "e2", "x1", "x2"]),
           _as_run("qc", ["u1", "u2"])]
    report = evaluate_run(run, qrels, config)

    ndcg_qa = (1 / math.log2(2) + 3 / math.log2(3)) / (3 / math.log2(2) + 1 / math.log2(3))
    assert report.per_query["qa"]["ndcg_at_5"] == pytest.approx(ndcg_qa, abs=1e-6)
    assert report.per_query["qa"]["ndcg_at_5"] == pytest.approx(0.7967, abs=1e-4)
    assert report.per_query["qa"]["ap"] == pytest.approx(1.0, abs=1e-6)
    assert report.per_query["qb"]["ndcg_at_5"] == pytest.approx(1.0, abs=1e-6)
    assert report.per_query["qb"]["p_at_5"] == pytest.approx(0.4, abs=1e-6)
    for name, value in report.per_query["qc"].items():
        assert value == 0.0
    for name in report.means:
        expected = sum(report.per_query[q][name] for q in report.per_query) / 3
        assert report.means[name] == pytest.approx(expected, abs=1e-12)

    # 100 random run/qrels pairs against the loop-level reimplementation
    rng = random.Random(6)
    docs = [f"d{i}" for i in range(15)]
    for case in range(100):
        judged = {d: rng.randint(0, 3) for d in rng.sample(docs, rng.randint(1, 10))}
        ranked = rng.sample(docs, rng.randint(1, 12))
        qrels = Qrels(judgments={("q", d): g for d, g in judged.items()})
        report = evaluate_run([_as_run("q", ranked)], qrels, config)
        if not any(g >= config.map_relevance_cutoff for g in judged.values()):
            assert report.num_queries == 0
            continue
        expected = _brute_metrics(ranked, judged, config.map_relevance_cutoff)
        for name, value in expected.items():
            assert report.per_query["q"][name] == pytest.approx(value, abs=1e-9)
    _report("C6", f"hand fixture and 100 random pairs match ({done():.2f}s)")


# --------------------------------------------------------------------------
# C7: ablation direction on the bundled mini benchmark

# Hand-scored per-turn NDCG@5, derived once from the frozen fixture and
# verified against the formula (grade-2 target at rank r gives
# (2/log2(r+1)) / idcg, etc.).
_IDCG_2 = 2.0  # single grade-2 relevant: ideal puts it at rank 1
_IDCG_21 = 2.0 + 1.0 / math.log2(3)  # grade 2 + grade 1
_EXPECTED_TURN_NDCG = {
    "full": {
        "79_1": 1.0, "79_2": 1.0, "79_3": 1.0, "79_4": 1.0,
        "80_1": 1.0, "80_2": (2.0 + 1.0 / math.log2(4)) / _IDCG_21,
        "80_3": 1.0, "80_4": 1.0,
    },
    "coref_only": {
        "79_1": 1.0, "79_2": 1.0, "79_3": 1.0,
        "79_4": (1.0 + 2.0 / math.log2(3)) / _IDCG_21,
        "80_1": 1.0, "80_2": (2.0 + 1.0 / math.log2(4)) / _IDCG_21,
        "80_3": 1.0, "80_4": (2.0 / math.log2(3)) / _IDCG_2,
    },
    "omission_only": {
        "79_1": 1.0, "79_2": (2.0 / math.log2(3)) / _IDCG_2, "79_3": 1.0,
        "79_4": 1.0, "80_1": 1.0,
        "80_2": (2.0 + 1.0 / math.log2(4)) / _IDCG_21, "80_3": 1.0, "80_4": 1.0,
    },
    "passthrough": {
        "79_1": 1.0, "79_2": (2.0 / math.log2(3)) / _IDCG_2, "79_3": 1.0,
        "79_4": (2.0 / math.log2(3) + 1.0 / math.log2(6)) / _IDCG_21,
        "80_1": 1.0, "80_2": (2.0 / math.log2(3)) / _IDCG_21,
        "80_3": 1.0, "80_4": (2.0 / math.log2(3)) / _IDCG_2,
    },
}

_EXPECTED_MEANS = {mode: sum(per_turn.values()) / len(per_turn)
                   for mode, per_turn in _EXPECTED_TURN_NDCG.items()}


def _run_ablation_mode(mode, mini_sessions, mini_idf, mini_index, mini_oracle,
                       mini_qrels):
    config = Config(idf_threshold=1.5, mode=mode)
    results = []
    for session in mini_sessions:
        for turn in session.turns:
            ctx = context_for_turn(session, turn.turn_id, config)
            trace = reformulate(turn, ctx, mini_idf, mini_oracle, config)
            results.append(bm25_search(mini_index, trace.q_double_star, 100, config,
                                       query_id=f"{session.session_id}_{turn.turn_id}"))
    return evaluate_run(results, mini_qrels, config)


def test_c7_ablation_direction(mini_sessions, mini_idf, mini_index, mini_oracle,
                               mini_qrels):
    done = _timed(60.0)
    means = {}
    for mode in ("full", "coref_only", "omission_only", "passthrough"):
        report = _run_ablation_mode(mode, mini_sessions, mini_idf, mini_index,
                                    mini_oracle, mini_qrels)
        for qid, expected in _EXPECTED_TURN_NDCG[mode].items():
            assert report.per_query[qid]["ndcg_at_5"] == pytest.approx(expected, abs=1e-6), \
                f"{mode} {qid}"
        means[mode] = report.means["ndcg_at_5"]
        assert means[mode] == pytest.approx(_EXPECTED_MEANS[mode], abs=1e-6)

    assert means["full"] >= means["omission_only"] >= means["passthrough"]
    assert means["full"] >= means["coref_only"] >= means["passthrough"]
    assert means["full"] > means["passthrough"]
    # the gap mirrors the finding that omission resolution contributes most
    assert means["omission_only"] > means["coref_only"]
    _report("C7", "full {:.4f} >= omission {:.4f} >= coref {:.4f} >= raw {:.4f} "
                  "({:.2f}s)".format(means["full"], means["omission_only"],
                                     means["coref_only"], means["passthrough"], done()))


# --------------------------------------------------------------------------
# C8: significance machinery

def test_c8_significance_machinery():
    done = _timed(1.0)
    result = paired_t_test([1.0, 2.0, 3.0, 4.0, 5.0], [0.0] * 5)
    assert result.t_statistic == pytest.approx(4.2426, abs=1e-3)
    assert result.p_value == pytest.approx(0.0132, abs=1e-3)

    same = paired_t_test([0.3, 0.7, 0.2], [0.3, 0.7, 0.2])
    assert same.t_statistic == 0.0 and same.p_value == 1.0

    forward = paired_t_test([0.1, 0.9, 0.4, 0.6], [0.2, 0.3, 0.9, 0.1])
    backward = paired_t_test([0.2, 0.3, 0.9, 0.1], [0.1, 0.9, 0.4, 0.6])
    assert forward.t_statistic == pytest.approx(-backward.t_statistic, abs=1e-12)
    assert forward.p_value == pytest.approx(backward.p_value, abs=1e-12)
    _report("C8", f"t = 4.2426, p = 0.0132 reproduced ({done():.2f}s)")


# --------------------------------------------------------------------------
# C9: census machinery

# Hand annotation of the bundled sessions under the shipped detector rules
# (eta = 1.5 over the bundled collection, strict postmodifier mode).
_HAND_FLAGS = {
    ("79", 1): (False, True),   # "types" is bare; "I" is excluded
    ("79", 2): (True, True),    # "it" x2; "spread" is a bare verb
    ("79", 3): (False, True),   # "Situ" heads a bare phrase after "in"
    ("79", 4): (True, True),    # "that"; "treatments"
    ("80", 1): (False, False),  # "population of ..." is postmodified
    ("80", 2): (True, True),    # "its"; "activity"
    ("80", 3): (False, True),   # "trucks" (generic "food" does not block)
    ("80", 4): (False, True),   # "permits" via the coordination rule
}


def test_c9_census_machinery(mini_sessions, mini_idf, mini_dir, capsys):
    from zeqr.evaluation import ambiguity_census

    census = ambiguity_census(mini_sessions, mini_idf, Config(idf_threshold=1.5))
    for key, (has_coref, has_omission) in _HAND_FLAGS.items():
        assert census.per_turn[key] == {"has_coref": has_coref,
                                        "has_omission": has_omission}, key
    assert census.coreference_count == sum(c for c, _ in _HAND_FLAGS.values())
    assert census.omission_count == sum(o for _, o in _HAND_FLAGS.values())

    # the CLI emits the totals in the two-row ambiguity/count shape
    code = main(["census", "--topics", str(mini_dir / "topics.json"),
                 "--collection", str(mini_dir / "collection.jsonl"),
                 "--idf-threshold", "1.5"])
    assert code == 0
    out = capsys.readouterr().out
    assert f"coreference\t{census.coreference_count}" in out
    assert f"omission\t{census.omission_count}" in out
    _report("C9", f"census = {census.coreference_count} coref / "
                  f"{census.omission_count} omission, matches hand annotation")


# --------------------------------------------------------------------------
# C10: run + eval byte-for-byte determinism (the remaining invariant suites
# run as property tests in the per-module files)

def test_c10_run_eval_determinism(tmp_path, mini_dir, capsys):
    outputs = []
    for attempt in ("a", "b"):
        run_path = tmp_path / f"det_{attempt}.trec"
        trace_path = tmp_path / f"det_{attempt}.jsonl"
        code = main(["run", "--topics", str(mini_dir / "topics.json"),
                     "--collection", str(mini_dir / "collection.jsonl"),
                     "--reader", f"oracle:{mini_dir / 'oracle.json'}",
                     "--mode", "full", "--idf-threshold", "1.5",
                     "--out", str(run_path), "--traces", str(trace_path)])
        assert code == 0
        capsys.readouterr()
        code = main(["eval", "--run", str(run_path),
                     "--qrels", str(mini_dir / "qrels.txt")])
        assert code == 0
        eval_stdout = capsys.readouterr().out
        # the "# run: <path>" label echoes the input file name; drop it
        metrics_only = "\n".join(line for line in eval_stdout.splitlines()
                                 if not line.startswith("# run:"))
        outputs.append((run_path.read_bytes(), trace_path.read_bytes(), metrics_only))
    assert outputs[0] == outputs[1]
    _report("C10", "run + eval reproducible byte-for-byte")
