"""Tests of the benchmark itself, at the smoke size (no service sleep)."""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
from gate import (BatchOutput, BruteForceBM25, GateError, check_batch,  # noqa: E402
                  read_qrels)
from generate import generate  # noqa: E402
from layers import metric_units  # noqa: E402

from zeqr.ingest import build_idf_table, load_collection  # noqa: E402
from zeqr.linguistics import (detect_pronouns, find_omission_candidates,  # noqa: E402
                              tokenize_and_tag)


def test_templates_produce_the_intended_detections(tmp_path):
    inputs = generate(tmp_path, 5, run.SMOKE_SIZES)
    idf = build_idf_table(load_collection(inputs.collection))
    # (pronouns, omission candidates) per turn position in every session
    expected = [(0, 0), (1, 0), (0, 1), (1, 1), (1, 1)]
    for _, turns in inputs.sessions:
        found = []
        for query in turns:
            tokens = tokenize_and_tag(query)
            found.append((len(detect_pronouns(tokens)),
                          len(find_omission_candidates(tokens, idf, 2.65))))
        assert found == expected, turns


def test_same_seed_same_inputs(tmp_path):
    first = generate(tmp_path / "a", 9, run.SMOKE_SIZES)
    second = generate(tmp_path / "b", 9, run.SMOKE_SIZES)
    for name in ("collection", "topics", "qrels", "oracle"):
        assert getattr(first, name).read_bytes() == getattr(second, name).read_bytes()


@pytest.fixture(scope="module")
def batch_outputs(tmp_path_factory):
    """One oracle-reader `zeqr index`, `zeqr run` and `zeqr eval` at smoke size."""
    work = tmp_path_factory.mktemp("gate")
    inputs = generate(work / "inputs", 2, run.SMOKE_SIZES)
    runner = run.Runner(work)
    runner.zeqr(["index", "--collection", inputs.collection, "--out", work / "index"])
    run_path, traces_path = work / "run.trec", work / "traces.jsonl"
    runner.zeqr(["run", "--index", work / "index", "--topics", inputs.topics,
                 "--collection", inputs.collection, "--reader", f"oracle:{inputs.oracle}",
                 "-k", run.RUN_DEPTH, "--out", run_path, "--traces", traces_path,
                 *run.PIPELINE_FLAGS])
    eval_stdout = runner.zeqr(["eval", "--run", run_path, "--qrels", inputs.qrels]).stdout
    expected = {f"{sid}_{t}" for sid, turns in inputs.sessions
                for t in range(1, len(turns) + 1)}
    return {"run": run_path.read_text(), "traces": traces_path.read_text(),
            "eval": eval_stdout, "expected": expected, "qrels": read_qrels(inputs.qrels),
            "reference": BruteForceBM25(inputs.collection, run.K1, run.B)}


def _gate(tmp_path, outputs, run_text=None, traces_text=None):
    run_path, traces_path = tmp_path / "run.trec", tmp_path / "traces.jsonl"
    run_path.write_text(run_text if run_text is not None else outputs["run"])
    traces_path.write_text(traces_text if traces_text is not None else outputs["traces"])
    return check_batch(BatchOutput(run_path, traces_path, outputs["eval"], 0),
                       outputs["expected"], outputs["qrels"], outputs["reference"],
                       run.RUN_DEPTH, seed=2)


def test_gate_passes_on_the_program_outputs(tmp_path, batch_outputs):
    assert 0.5 < _gate(tmp_path, batch_outputs) <= 1.0


def test_gate_trips_on_a_corrupted_run_file(tmp_path, batch_outputs):
    lines = batch_outputs["run"].splitlines()
    # Swap the documents at ranks 1 and 2 of every query.
    corrupted = []
    for i in range(0, len(lines)):
        fields = lines[i].split()
        if fields[3] == "2":
            previous = corrupted[-1].split()
            fields[2], previous[2] = previous[2], fields[2]
            corrupted[-1] = " ".join(previous)
        corrupted.append(" ".join(fields))
    with pytest.raises(GateError):
        _gate(tmp_path, batch_outputs, run_text="\n".join(corrupted) + "\n")


def test_gate_trips_on_a_dropped_turn(tmp_path, batch_outputs):
    first_query = batch_outputs["run"].split()[0]
    kept = [line for line in batch_outputs["run"].splitlines()
            if line.split()[0] != first_query]
    with pytest.raises(GateError):
        _gate(tmp_path, batch_outputs, run_text="\n".join(kept) + "\n")


def test_gate_trips_on_a_corrupted_trace(tmp_path, batch_outputs):
    records = [json.loads(line) for line in batch_outputs["traces"].splitlines()]
    applied = next(r for r in records
                   if any(s["applied"] for s in r["coref_steps"] + r["omission_steps"]))
    applied["q_double_star"] = applied["raw_query"]
    with pytest.raises(GateError):
        _gate(tmp_path, batch_outputs,
              traces_text="".join(json.dumps(r) + "\n" for r in records))


def _last_json(result: dict) -> dict:
    return json.loads(run.report(result).splitlines()[-1])


def test_batch_remote_reader_smoke(tmp_path):
    workload = run.smoke(run.WORKLOADS["batch-remote-reader"])
    result = run.run_workload(workload, seed=4, seconds=0, trace=False, work=tmp_path / "w")
    line = _last_json(result)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert list(line["metrics"]) == list(metric_units("end_to_end"))
    assert line["attempted"] == run.SMOKE_SIZES.turns and line["failed"] == 0
    assert all(v["value"] > 0 for v in line["metrics"].values())
    assert result["facts"]["nproc"] >= 1 and result["facts"]["seed"] == 4
    assert not (tmp_path / "w").exists()


def test_repl_traced_smoke(tmp_path):
    workload = run.smoke(run.WORKLOADS["repl-remote-reader"])
    result = run.run_workload(workload, seed=4, seconds=0, trace=True, work=tmp_path / "w")
    layers = result["per_layer"]
    assert list(_last_json(result)["metrics"]) == list(metric_units("per_layer"))
    turns = run.SMOKE_SIZES.turns
    assert result["end_to_end"]["turn_p50_ms"][1] == turns
    assert layers["reformulator.reformulate.calls"] == turns
    assert layers["retrieval.bm25_search.calls"] == turns
    # The service counts what the client sent.
    assert layers["reader.service_requests"] >= layers["reader.connections"] > 0
    assert layers["reader.failures"] == 0
    assert layers["reformulator.applied_steps"] > 0
    assert layers["ingest.load_topics_s"] > 0 and layers["retrieval.write_run_s"] > 0
