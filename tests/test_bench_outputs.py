"""The benchmark's inputs and outputs, by digest.

For seeds 7 and 23 of perfbench's two batch workloads, this generates the
inputs with `perfbench/generate.py`, builds the index with `zeqr index` and
runs `zeqr run` with the oracle reader at the benchmark's own depth and
flags. For seed 7 of its REPL workload, it types every session, each
followed by `:reset`, into `zeqr repl`. `tests/fixtures/bench_digests.json`
holds the sha256 of every generated input and every output. Each batch
run's trace file must also pass `ingest.read_traces` unchanged. A change that
means to move one of them rewrites the manifest, from the repository root:

    PYTHONPATH=src python tests/test_bench_outputs.py
"""

import hashlib
import json
import sys
import tempfile
from pathlib import Path

import pytest

from test_golden import cli_stdout
from zeqr.ingest import read_traces

PERFBENCH = Path(__file__).parent.parent / "perfbench"
sys.path.insert(0, str(PERFBENCH))
import run as perfbench  # noqa: E402
from generate import generate  # noqa: E402

MANIFEST = Path(__file__).parent / "fixtures" / "bench_digests.json"
CASES = ["batch-remote-reader/7", "batch-remote-reader/23",
         "batch-large-corpus/7", "batch-large-corpus/23", "repl-remote-reader/7"]


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def case_digests(case: str, work: Path) -> dict[str, str]:
    """The sha256 of each input and output of one workload seed."""
    name, seed = case.split("/")
    inputs = generate(work / "inputs", int(seed), perfbench.WORKLOADS[name].sizes)
    files = {path.name: path
             for path in (inputs.collection, inputs.topics, inputs.qrels, inputs.oracle)}
    index = work / "index"
    cli_stdout(["index", "--collection", str(inputs.collection), "--out", str(index)])
    pipeline = ["--index", str(index), "--collection", str(inputs.collection),
                "--reader", f"oracle:{inputs.oracle}", *perfbench.PIPELINE_FLAGS]
    digests = {}
    if perfbench.WORKLOADS[name].kind == "batch":
        files.update({"index.npz": index / "index.npz", "idf.tsv": index / "idf.tsv",
                      "run.trec": work / "run.trec", "traces.jsonl": work / "traces.jsonl"})
        cli_stdout(["run", "--topics", str(inputs.topics), *pipeline, "--mode", "full",
                    "-k", str(perfbench.RUN_DEPTH), "--out", str(files["run.trec"]),
                    "--traces", str(files["traces.jsonl"])])
    else:
        lines = [line for _, turns in inputs.sessions for line in (*turns, ":reset")]
        stdout = cli_stdout(["repl", *pipeline, "-k", str(perfbench.REPL_DEPTH)],
                            [*lines, ":quit"])
        digests["stdout"] = _sha256(stdout)
    digests.update({file: _sha256(path.read_bytes()) for file, path in files.items()})
    return dict(sorted(digests.items()))


@pytest.mark.parametrize("case", CASES)
def test_the_benchmark_outputs_match_the_manifest(tmp_path, case):
    # each workload seed is generated once: here, by its own test
    assert case_digests(case, tmp_path) == json.loads(MANIFEST.read_text())[case]
    # and each trace line a batch run wrote passes the trace reader unchanged
    if perfbench.WORKLOADS[case.split("/")[0]].kind == "batch":
        traces = tmp_path / "traces.jsonl"
        lines = traces.read_text(encoding="utf-8").splitlines()
        assert lines and read_traces(traces) == [json.loads(line) for line in lines]


def test_every_manifest_case_is_checked():
    assert list(json.loads(MANIFEST.read_text())) == CASES


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as work:
        manifest = {case: case_digests(case, Path(work) / case) for case in CASES}
    MANIFEST.write_text(json.dumps(manifest, indent=1) + "\n")
    print(f"wrote {MANIFEST}", file=sys.stderr)
