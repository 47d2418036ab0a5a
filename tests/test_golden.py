"""The mini fixture's outputs, byte for byte.

`tests/fixtures/golden` holds what the CLI writes for the mini fixture: the
IDF cache of `zeqr index`, the run and trace files of all four modes and of
an echo-reader run whose 24-token budget cuts the reader input, the stdout
of `zeqr trace --query-id 79_4` and of a REPL session that dumps its trace
with `:trace`, and the stdout of `zeqr eval` on the full run and of
`zeqr census` on the mini topics, both given paths relative to the
repository root as CI gives them.
A refactor that should change no output must reproduce every file. To
regenerate them after an intended output change, from the repository root:

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import json
import os
import re
import sys
import tempfile
from pathlib import Path
from unittest import mock

import pytest

from zeqr.cli import main
from zeqr.ingest import read_run

ROOT = Path(__file__).parent.parent
MINI = Path(__file__).parent / "fixtures" / "mini"
GOLDEN = Path(__file__).parent / "fixtures" / "golden"
MODES = ("full", "coref_only", "omission_only", "passthrough")
PIPELINE = ["--collection", str(MINI / "collection.jsonl"), "--idf-threshold", "1.5"]
ORACLE = ["--reader", f"oracle:{MINI / 'oracle.json'}"]
# Each run's name and flags: the four modes with the oracle reader, and the
# echo reader with a token budget that cuts the reader input of later turns.
RUNS = {**{mode: [*ORACLE, "--mode", mode] for mode in MODES},
        "echo_cut": ["--reader", "echo", "--reader-max-tokens", "24", "--mode", "full"]}
NAMES = [*(f"{kind}_{name}.{ext}" for name in RUNS
           for kind, ext in (("run", "trec"), ("traces", "jsonl"))),
         "trace_79_4.txt", "repl.txt", "idf.tsv", "eval_full.txt", "census.txt"]
REPL_LINES = [
    ":trace",
    "I just had a breast biopsy for cancer. What are the most common types?",
    "Once it breaks out, how likely is it to spread?",
    ":trace",
    "How deadly is Lobular Carcinoma in Situ?",
    "Wow, that is better than I thought.  What are common treatments?",
    ":trace",
    ":quit",
]


def cli_stdout(argv: list[str], lines: list[str] = ()) -> bytes:
    """What `zeqr ARGV` prints to stdout, given `lines` as its input."""
    typed = iter(lines)
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()), \
            mock.patch("builtins.input", lambda: next(typed)):
        assert main(argv) == 0
    return out.getvalue().encode("utf-8")


@contextlib.contextmanager
def _in_root():
    """Run the block from the repository root, so relative paths echo
    the same."""
    cwd = os.getcwd()
    os.chdir(ROOT)
    try:
        yield
    finally:
        os.chdir(cwd)


def golden_outputs(work: Path) -> dict[str, bytes]:
    """Every golden file's name and the bytes the CLI gives for it now."""
    outputs = {}
    for name, flags in RUNS.items():
        run, traces = work / f"run_{name}.trec", work / f"traces_{name}.jsonl"
        cli_stdout(["run", "--topics", str(MINI / "topics.json"), *PIPELINE, *flags,
                    "--out", str(run), "--traces", str(traces)])
        outputs[run.name], outputs[traces.name] = run.read_bytes(), traces.read_bytes()
    outputs["trace_79_4.txt"] = cli_stdout(["trace", "--file", str(work / "traces_full.jsonl"),
                                            "--query-id", "79_4"])
    outputs["repl.txt"] = cli_stdout(["repl", *PIPELINE, *ORACLE, "-k", "3"], REPL_LINES)
    cli_stdout(["index", "--collection", str(MINI / "collection.jsonl"),
                "--out", str(work / "idx")])
    outputs["idf.tsv"] = (work / "idx" / "idf.tsv").read_bytes()
    with _in_root():
        outputs["eval_full.txt"] = cli_stdout(
            ["eval", "--run", "tests/fixtures/golden/run_full.trec",
             "--qrels", "tests/fixtures/mini/qrels.txt"])
        outputs["census.txt"] = cli_stdout(
            ["census", "--topics", "tests/fixtures/mini/topics.json",
             "--idf-cache", "tests/fixtures/golden/idf.tsv", "--idf-threshold", "1.5"])
    return outputs


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    return golden_outputs(tmp_path_factory.mktemp("golden"))


@pytest.mark.parametrize("name", NAMES)
def test_the_cli_reproduces_the_golden_file(outputs, name):
    assert outputs[name] == (GOLDEN / name).read_bytes()


def test_every_golden_file_is_checked():
    assert sorted(path.name for path in GOLDEN.iterdir()) == sorted(NAMES)


def test_the_readme_library_example_gives_the_golden_query(monkeypatch):
    # the python block under README "Library surface", run from the root
    section = (ROOT / "README.md").read_text().split("## Library surface", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    monkeypatch.chdir(ROOT)
    names = {}
    exec(code, names)
    traces = map(json.loads, (GOLDEN / "traces_full.jsonl").read_text().splitlines())
    trace = next(t for t in traces if t["query_id"] == "79_4")
    run = next(r for r in read_run(GOLDEN / "run_full.trec") if r.query_id == "79_4")
    assert names["trace"].q_double_star == trace["q_double_star"]
    assert names["result"].ranked == run.ranked


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as work:
        for name, data in golden_outputs(Path(work)).items():
            (GOLDEN / name).write_bytes(data)
            print(f"wrote {GOLDEN / name} ({len(data)} bytes)", file=sys.stderr)
