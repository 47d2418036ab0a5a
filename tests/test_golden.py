"""The mini fixture's outputs, byte for byte.

`tests/fixtures/golden` holds what the CLI writes for the mini fixture: the
run and trace files of all four modes, the stdout of `zeqr trace
--query-id 79_4` and of a REPL session that dumps its trace with `:trace`.
A refactor that should change no output must reproduce every file. To
regenerate them after an intended output change, from the repository root:

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import sys
import tempfile
from pathlib import Path
from unittest import mock

import pytest

from zeqr.cli import main

MINI = Path(__file__).parent / "fixtures" / "mini"
GOLDEN = Path(__file__).parent / "fixtures" / "golden"
MODES = ("full", "coref_only", "omission_only", "passthrough")
PIPELINE = ["--collection", str(MINI / "collection.jsonl"),
            "--reader", f"oracle:{MINI / 'oracle.json'}", "--idf-threshold", "1.5"]
NAMES = [*(f"{kind}_{mode}.{ext}" for mode in MODES
           for kind, ext in (("run", "trec"), ("traces", "jsonl"))),
         "trace_79_4.txt", "repl.txt"]
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


def _stdout(argv: list[str], lines: list[str] = ()) -> bytes:
    """What `zeqr ARGV` prints to stdout, given `lines` as its input."""
    typed = iter(lines)
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()), \
            mock.patch("builtins.input", lambda: next(typed)):
        assert main(argv) == 0
    return out.getvalue().encode("utf-8")


def golden_outputs(work: Path) -> dict[str, bytes]:
    """Every golden file's name and the bytes the CLI gives for it now."""
    outputs = {}
    for mode in MODES:
        run, traces = work / f"run_{mode}.trec", work / f"traces_{mode}.jsonl"
        _stdout(["run", "--topics", str(MINI / "topics.json"), *PIPELINE, "--mode", mode,
                 "--out", str(run), "--traces", str(traces)])
        outputs[run.name], outputs[traces.name] = run.read_bytes(), traces.read_bytes()
    outputs["trace_79_4.txt"] = _stdout(["trace", "--file", str(work / "traces_full.jsonl"),
                                         "--query-id", "79_4"])
    outputs["repl.txt"] = _stdout(["repl", *PIPELINE, "-k", "3"], REPL_LINES)
    return outputs


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    return golden_outputs(tmp_path_factory.mktemp("golden"))


@pytest.mark.parametrize("name", NAMES)
def test_the_cli_reproduces_the_golden_file(outputs, name):
    assert outputs[name] == (GOLDEN / name).read_bytes()


def test_every_golden_file_is_checked():
    assert sorted(path.name for path in GOLDEN.iterdir()) == sorted(NAMES)


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as work:
        for name, data in golden_outputs(Path(work)).items():
            (GOLDEN / name).write_bytes(data)
            print(f"wrote {GOLDEN / name} ({len(data)} bytes)", file=sys.stderr)
