import argparse
import ast
import hashlib
import json
import os
import pkgutil
import random
import re
import shlex
import stat
import subprocess
import sys
import threading
import time
import warnings
import zlib
from pathlib import Path

import numpy as np
import pytest

import zeqr
from conftest import (
    BIOPSY_COREF_QUESTION,
    BIOPSY_OMISSION_QUESTION,
    BIOPSY_Q4,
    BIOPSY_Q4_RESOLVED,
    BIOPSY_Q4_STAR,
    MINI,
    index_members,
    json_reply,
    oracle_reply,
    write_index,
)
from zeqr import evaluation, reformulator
from zeqr.cli import build_parser, main
from zeqr.datamodel import Config
from zeqr.ingest import build_idf_table, load_topics, read_run
from zeqr.reader import MAX_IN_FLIGHT, OracleReader, make_reader
from zeqr.retrieval import bm25_search, save_index

GOLDEN = Path(__file__).parent / "fixtures" / "golden"
CLI = Path(__file__).parents[1] / "src" / "zeqr" / "cli.py"


# ---- configuration: flags only ----

def _echoed_run(tmp_path, index_dir, capsys, name, *flags):
    """Run the mini topics; return the echoed settings but the two output
    paths, which the echo names too, and the run and trace bytes."""
    run_path, trace_path = tmp_path / f"{name}.trec", tmp_path / f"{name}.jsonl"
    capsys.readouterr()
    assert main(["run", "--topics", str(MINI / "topics.json"), "--index", str(index_dir),
                 "--reader", f"oracle:{MINI / 'oracle.json'}",
                 "--out", str(run_path), "--traces", str(trace_path), *flags]) == 0
    echoes = [line for line in capsys.readouterr().err.splitlines()
              if line.startswith("config: ")]
    assert len(echoes) == 1
    settings = _settings(echoes[0])
    assert (settings.pop("out"), settings.pop("traces")) == (str(run_path), str(trace_path))
    return settings, run_path.read_bytes(), trace_path.read_bytes()


def _settings(echo):
    return dict(item.split("=", 1) for item in shlex.split(echo[len("config: "):]))


def test_flags_are_the_only_configuration(tmp_path, mini_index_dir, monkeypatch, capsys,
                                          extract_service):
    plain = _echoed_run(tmp_path, mini_index_dir, capsys, "plain")
    settings = plain[0]
    # run reads every Config key but the eval-only map_relevance_cutoff
    assert {name: settings[name] for name in Config._fields
            if name != "map_relevance_cutoff"} == \
        {name: str(default) for name, default in Config._field_defaults.items()
         if name != "map_relevance_cutoff"}
    assert "map_relevance_cutoff" not in settings
    assert (settings["k"], settings["tag"], "endpoint" in settings) == ("100", "zeqr", False)

    # the ranking depth, the run tag and the external retriever are echoed too
    extract_service.respond = lambda question, context: (
        200, {"hits": [{"doc_id": "b01", "score": 1.0}]})
    external = _echoed_run(tmp_path, mini_index_dir, capsys, "external", "-k", "7", "--tag", "t7",
                           "--endpoint", extract_service.url)
    assert external[0] == {**settings, "k": "7", "tag": "t7", "endpoint": extract_service.url}

    coref = _echoed_run(tmp_path, mini_index_dir, capsys, "coref", "--mode", "coref_only")
    assert coref[0] == {**settings, "mode": "coref_only"}

    # the environment is not a configuration source
    monkeypatch.setenv("ZEQR_MODE", "coref_only")
    assert _echoed_run(tmp_path, mini_index_dir, capsys, "env") == plain


def test_the_config_echo_quotes_a_value_with_a_space(tmp_path, mini_dir, mini_index_dir, capsys):
    topics = tmp_path / "my topics.json"
    topics.write_bytes((mini_dir / "topics.json").read_bytes())
    capsys.readouterr()
    assert main(["census", "--topics", str(topics),
                 "--idf-cache", str(mini_index_dir / "idf.tsv")]) == 0
    (echo,) = [line for line in capsys.readouterr().err.splitlines()
               if line.startswith("config: ")]
    assert f" topics={shlex.quote(str(topics))}" in echo
    assert _settings(echo)["topics"] == str(topics)


# census reads only idf_threshold and omission_strict; perfbench/ passes it
# --bm25-k1 and --bm25-b too.
CENSUS_KEYS = {"idf_threshold", "bm25_k1", "bm25_b", "omission_strict"}
PIPELINE_KEYS = CENSUS_KEYS | {"reader_max_tokens", "mode"}
TAKEN_KEYS = {"index": set(), "eval": {"map_relevance_cutoff"}, "run": PIPELINE_KEYS,
              "repl": PIPELINE_KEYS, "census": CENSUS_KEYS, "trace": set()}
# Each config flag with a value (None for a switch).
CENSUS_FLAGS = {"--idf-threshold": "1.5", "--bm25-k1": "1.2", "--bm25-b": "0.5",
                "--omission-lenient": None}
PIPELINE_FLAGS = {**CENSUS_FLAGS, "--reader-max-tokens": "64", "--mode": "full"}
EVAL_FLAGS = {"--map-relevance-cutoff": "2"}
# --inventory, a removed pronoun-list flag, and --min-answer-score, a removed
# answer-score floor, are taken by no command.
CONFIG_FLAGS = {**PIPELINE_FLAGS, **EVAL_FLAGS, "--inventory": "inv.txt",
                "--min-answer-score": "0.1"}
TAKEN_FLAGS = {"index": {}, "eval": EVAL_FLAGS, "run": PIPELINE_FLAGS,
               "repl": PIPELINE_FLAGS, "census": CENSUS_FLAGS, "trace": {}}


def _subparsers():
    """Each command's parser, by name, as `build_parser` makes it."""
    (commands,) = [action for action in build_parser()._actions
                   if isinstance(action, argparse._SubParsersAction)]
    return commands.choices


def _flags(keep):
    """(command, option) for each option of each command's flags whose
    argparse action `keep` accepts; -h and --help aside."""
    return [(command, option) for command, parser in sorted(_subparsers().items())
            for action in parser._actions if action.dest != "help" and keep(action)
            for option in action.option_strings]


def _command_lines(tmp_path, index_dir, reader=f"oracle:{MINI / 'oracle.json'}",
                   endpoint="http://127.0.0.1:9"):
    """Command lines that run each command on the mini fixture, run and repl
    with `reader`, the second run line with the retriever at `endpoint`.
    Together they give every flag of every command."""
    topics, collection = str(MINI / "topics.json"), str(MINI / "collection.jsonl")
    run_file, trace_file = tmp_path / "given.trec", tmp_path / "given.jsonl"
    run_file.write_text("79_1 Q0 b01 1 2.0 zeqr\n")
    trace_file.write_text(json.dumps(TRACE_RECORD) + "\n")
    index = ["--index", str(index_dir), "--collection", collection, "--reader", reader]
    census = ["--idf-threshold", "1.5", "--bm25-k1", "1.2", "--bm25-b", "0.5",
              "--omission-lenient"]
    pipeline = [*census, "--reader-max-tokens", "64", "--mode", "coref_only"]
    return {
        "index": [["index", "--collection", collection, "--out", str(tmp_path / "idx")]],
        "run": [["run", "--topics", topics, *index, *pipeline, "-k", "7", "--tag", "t7",
                 "--out", str(tmp_path / "r.trec"), "--traces", str(tmp_path / "r.jsonl")],
                ["run", "--topics", topics, *index, "--endpoint", endpoint,
                 "--out", str(tmp_path / "e.trec")]],
        "repl": [["repl", *index, *pipeline, "-k", "3"]],
        "eval": [["eval", "--run", str(run_file), "--run", str(GOLDEN / "run_full.trec"),
                  "--qrels", str(MINI / "qrels.txt"), "--map-relevance-cutoff", "2"]],
        "census": [["census", "--topics", topics, "--idf-cache", str(index_dir / "idf.tsv"),
                    *census]],
        "trace": [["trace", "--file", str(trace_file), "--query-id", "79_1"]],
    }


@pytest.mark.parametrize("command", sorted(_subparsers()))
def test_every_flag_given_is_echoed(tmp_path, mini_index_dir, monkeypatch, capsys, service,
                                    command):
    service.reply = json_reply(lambda path, body: (200, {"hits": [{"doc_id": "b01",
                                                                   "score": 1.0}]}))
    monkeypatch.setattr("builtins.input", lambda: ":quit")
    actions = _subparsers()[command]._option_string_actions
    lines = _command_lines(tmp_path, mini_index_dir, endpoint=service.url)[command]
    # the lines give every flag of the command, so a new flag must join them
    assert {token for line in lines for token in line if token in actions} == \
        {option for cmd, option in _flags(lambda action: True) if cmd == command}
    for line in lines:
        capsys.readouterr()
        assert main(line) == 0
        (echo,) = [text for text in capsys.readouterr().err.splitlines()
                   if text.startswith("config: ")]
        items = [item.split("=", 1) for item in shlex.split(echo[len("config: "):])]
        for option in {token for token in line if token in actions}:
            action = actions[option]
            given = [str((action.type or str)(line[i + 1])) if action.nargs != 0
                     else str(action.const) for i, token in enumerate(line) if token == option]
            assert [value for key, value in items if key == action.dest] == given, option


@pytest.mark.parametrize("command", sorted(TAKEN_KEYS))
def test_each_command_echoes_only_the_config_keys_it_reads(tmp_path, mini_index_dir,
                                                           monkeypatch, capsys, command):
    monkeypatch.setattr("builtins.input", lambda: ":quit")
    capsys.readouterr()
    assert main(_command_lines(tmp_path, mini_index_dir)[command][0]) == 0
    echoes = [line for line in capsys.readouterr().err.splitlines()
              if line.startswith("config: ")]
    assert len(echoes) == 1
    config_keys = set(Config._fields)
    assert set(_settings(echoes[0])) & config_keys == TAKEN_KEYS[command]


@pytest.mark.parametrize("command, flag", [
    (command, flag) for command, taken in sorted(TAKEN_FLAGS.items())
    for flag in CONFIG_FLAGS if flag not in taken])
def test_a_config_flag_the_command_does_not_read_is_unrecognized(tmp_path, mini_index_dir,
                                                                 capsys, command, flag):
    given = [flag, *([CONFIG_FLAGS[flag]] if CONFIG_FLAGS[flag] else [])]
    capsys.readouterr()
    with pytest.raises(SystemExit) as exit_info:
        main(_command_lines(tmp_path, mini_index_dir)[command][0] + given)
    assert exit_info.value.code == 2
    assert f"unrecognized arguments: {' '.join(given)}\n" in capsys.readouterr().err
    assert not (tmp_path / "idx").exists() and not (tmp_path / "r.trec").exists()


def test_verbose_is_not_a_flag(tmp_path, mini_dir, capsys):
    run_path = tmp_path / "r.trec"
    run_path.write_text("79_1 Q0 b01 1 2.0 zeqr\n")
    capsys.readouterr()
    with pytest.raises(SystemExit) as exit_info:
        main(["--verbose", "eval", "--run", str(run_path), "--qrels", str(mini_dir / "qrels.txt")])
    assert exit_info.value.code == 2
    assert "unrecognized arguments: --verbose" in capsys.readouterr().err


@pytest.mark.parametrize("flag, value", [
    ("--bm25-k1", "nan"), ("--bm25-k1", "inf"), ("--bm25-b", "nan"),
    ("--idf-threshold", "inf"),
])
def test_a_non_finite_setting_is_a_usage_error(tmp_path, mini_dir, mini_index_dir, capsys, flag,
                                               value):
    capsys.readouterr()
    assert main(["run", "--topics", str(mini_dir / "topics.json"),
                 "--index", str(mini_index_dir),
                 "--reader", f"oracle:{mini_dir / 'oracle.json'}",
                 "--out", str(tmp_path / "run.trec"), f"{flag}={value}"]) == 2
    field = flag[2:].replace("-", "_")
    errors = [line for line in capsys.readouterr().err.splitlines()
              if line.startswith("error:")]
    assert errors == [f"error: {field} must be finite, got {float(value)}"]
    assert not (tmp_path / "run.trec").exists()


def _loaded_outside_the_standard_library(code, *argv):
    """Run `code` in a fresh interpreter; return the lines it printed, the
    last naming the top-level modules it loaded from outside the standard
    library and zeqr."""
    src = str(Path(zeqr.__file__).resolve().parents[1])
    probe = subprocess.run(
        [sys.executable, "-c", "import sys; before = set(sys.modules)\n" + code
         + "\nprint('loaded', sorted({m.split('.')[0] for m in set(sys.modules) - before}"
           " - set(sys.stdlib_module_names) - {'zeqr'}))", *argv],
        capture_output=True, text=True, timeout=60, env={"PYTHONPATH": src})
    assert probe.returncode == 0, probe.stderr
    return probe.stdout.splitlines()


_ASSERT_NO_MACHINERY = ("machinery = {'dataclasses', 'inspect', 'logging'} & set(sys.modules)"
                        "\nassert not machinery, sorted(machinery)")


def test_importing_the_cli_loads_no_third_party_module_http_client_or_hashlib():
    # every zeqr command pays for what `import zeqr.cli` loads: no array
    # library; the HTTP client is loaded by the first remote call only, and
    # hashlib (OpenSSL) by the first collection hash; nor the dataclass,
    # inspect or logging machinery, which no output needs
    assert _loaded_outside_the_standard_library(
        "import zeqr.cli\nassert 'http.client' not in sys.modules\n"
        "assert 'hashlib' not in sys.modules\n" + _ASSERT_NO_MACHINERY)[-1] == "loaded []"


# Makes every import of these modules fail, as where they are not installed.
_BLOCKED = ("numpy", "scipy", "dataclasses", "inspect", "logging")
_BLOCK_IMPORTS = (
    "class Blocked:\n"
    "    def find_spec(self, name, path=None, target=None):\n"
    f"        if name.partition('.')[0] in {_BLOCKED!r}:\n"
    "            raise ImportError(f'{name} is blocked')\n"
    "sys.meta_path.insert(0, Blocked())\n")


def test_eval_trace_and_census_from_an_idf_cache_load_no_third_party_module(tmp_path, mini_dir,
                                                                            mini_index_dir):
    # they read text files only, so they pay for no array library, and they
    # give their output with numpy, scipy and that machinery unimportable
    run_a, traces = _run_mode(tmp_path, mini_index_dir, "full", "a")
    run_b, _ = _run_mode(tmp_path, mini_index_dir, "passthrough", "b")
    assert main(["index", "--collection", str(mini_dir / "collection.jsonl"),
                 "--out", str(tmp_path / "idx")]) == 0
    qrels = ["--qrels", str(mini_dir / "qrels.txt")]
    for argv, first_field in (
            (["eval", "--run", str(run_a), *qrels], "all"),
            (["eval", "--run", str(run_a), "--run", str(run_b), *qrels], "ap"),
            (["trace", "--file", str(traces)], "q**"),
            (["census", "--topics", str(mini_dir / "topics.json"),
              "--idf-cache", str(tmp_path / "idx" / "idf.tsv"), "--idf-threshold", "1.5"],
             "omission")):
        code = (_BLOCK_IMPORTS + "from zeqr.cli import main\nassert main() == 0\n"
                + _ASSERT_NO_MACHINERY)
        if argv[0] != "census":
            # and eval and trace load no module of the rewrite pipeline either
            code += ("\npipeline = {'zeqr.reformulator', 'zeqr.reader', 'zeqr.transport', "
                     "'zeqr.linguistics', 'concurrent.futures'} & set(sys.modules)"
                     "\nassert not pipeline, sorted(pipeline)")
        *printed, loaded = _loaded_outside_the_standard_library(code, *argv)
        assert loaded == "loaded []", argv
        assert any(line.split()[:1] == [first_field] for line in printed), argv


def test_every_module_but_retrieval_imports_without_numpy():
    # zeqr.retrieval alone holds the array code, so every other module, and
    # any path that loads only those, runs where numpy is not installed
    names = sorted(f"zeqr.{module.name}" for module in pkgutil.iter_modules(zeqr.__path__))
    assert "zeqr.retrieval" in names
    code = (_BLOCK_IMPORTS + "import importlib\n"
            + "".join(f"importlib.import_module({name!r})\n"
                      for name in names if name != "zeqr.retrieval")
            + "try:\n    import zeqr.retrieval\nexcept ImportError:\n    pass\n"
            + "else:\n    raise AssertionError('zeqr.retrieval imported without numpy')")
    assert _loaded_outside_the_standard_library(code)[-1] == "loaded []"


def _mini_run_argv(tmp_path, index_dir, reader, *flags):
    """`zeqr run` of the mini topics off `index_dir` by `reader`, with the
    golden flags; its run and trace files go to tmp_path."""
    return ["run", "--topics", str(MINI / "topics.json"), "--index", str(index_dir),
            "--reader", reader, "--idf-threshold", "1.5", "--out", str(tmp_path / "run.trec"),
            "--traces", str(tmp_path / "traces.jsonl"), *flags]


# Holds the import of numpy until the file named by the first argument
# exists, failing it after 10 s. The loader waits, not the finder: a finder
# runs under the interpreter's global import lock, which every other
# thread's first import of a module takes too.
_HOLD_NUMPY = (
    "import importlib.machinery, os, time\n"
    "mark = sys.argv.pop(1)\n"
    "class Held:\n"
    "    def __init__(self, loader):\n"
    "        self.loader = loader\n"
    "    def create_module(self, spec):\n"
    "        return self.loader.create_module(spec)\n"
    "    def exec_module(self, module):\n"
    "        deadline = time.monotonic() + 10\n"
    "        while not os.path.exists(mark):\n"
    "            if time.monotonic() > deadline:\n"
    "                raise ImportError('numpy was loaded before any question was asked')\n"
    "            time.sleep(0.005)\n"
    "        self.loader.exec_module(module)\n"
    "class Hold:\n"
    "    def find_spec(self, name, path=None, target=None):\n"
    "        if name != 'numpy':\n"
    "            return None\n"
    "        spec = importlib.machinery.PathFinder.find_spec(name, path)\n"
    "        spec.loader = Held(spec.loader)\n"
    "        return spec\n"
    "sys.meta_path.insert(0, Hold())\n")


def test_a_remote_run_asks_its_first_question_before_it_loads_numpy(tmp_path, mini_index_dir,
                                                                    extract_service):
    # the rewrites need no numpy, so the questions go out while it loads;
    # and its turns go to plain threads, where concurrent.futures would
    # load logging
    asked = tmp_path / "asked"
    respond = extract_service.respond

    def marking(question, context):
        asked.touch()
        return respond(question, context)

    extract_service.respond = marking
    *_, loaded = _loaded_outside_the_standard_library(
        _HOLD_NUMPY + "from zeqr.cli import main\nassert main() == 0\n"
        "machinery = {'logging', 'concurrent.futures'} & set(sys.modules)"
        "\nassert not machinery, sorted(machinery)",
        str(asked), *_mini_run_argv(tmp_path, mini_index_dir, f"remote:{extract_service.url}"))
    assert loaded == "loaded ['numpy']"
    assert (tmp_path / "run.trec").read_bytes() == (GOLDEN / "run_full.trec").read_bytes()
    assert (tmp_path / "traces.jsonl").read_bytes() == \
        (GOLDEN / "traces_full.jsonl").read_bytes()


def test_a_run_that_searches_an_endpoint_loads_no_numpy(tmp_path, mini_index_dir, mini_index,
                                                        service):
    # the loopback /search service of test_cmd_run_external_endpoint; with
    # numpy unimportable, the run writes the bytes it writes with numpy
    config = Config(idf_threshold=1.5)

    def respond(path, body):
        result = bm25_search(mini_index, body["query"], body["k"], config, query_id="q")
        return 200, {"hits": [{"doc_id": d, "score": s} for d, s in result.ranked]}

    service.reply = json_reply(respond)
    argv = _mini_run_argv(tmp_path, mini_index_dir, f"oracle:{MINI / 'oracle.json'}",
                          "--endpoint", service.url)
    assert main(argv) == 0
    with_numpy = [(tmp_path / name).read_bytes() for name in ("run.trec", "traces.jsonl")]
    *_, loaded = _loaded_outside_the_standard_library(
        _BLOCK_IMPORTS + "from zeqr.cli import main\nassert main() == 0\n"
        + _ASSERT_NO_MACHINERY, *argv)
    assert loaded == "loaded []"
    assert [(tmp_path / name).read_bytes() for name in ("run.trec", "traces.jsonl")] == with_numpy


def _index_threads(tmp_path, mini_dir, **env):
    """Run `zeqr index` on the mini collection in a fresh interpreter with
    `env`; return its OS thread count and OPENBLAS_NUM_THREADS afterwards."""
    src = str(Path(zeqr.__file__).resolve().parents[1])
    probe = subprocess.run(
        [sys.executable, "-c", "import os, sys\nfrom zeqr.cli import main\n"
         "assert main(sys.argv[1:]) == 0\n"
         "status = open('/proc/self/status').read().split()\n"
         "print(status[status.index('Threads:') + 1], "
         "os.environ.get('OPENBLAS_NUM_THREADS'))",
         "index", "--collection", str(mini_dir / "collection.jsonl"),
         "--out", str(tmp_path / "idx")],
        capture_output=True, text=True, timeout=60, env={"PYTHONPATH": src, **env})
    assert probe.returncode == 0, probe.stderr
    threads, blas_threads = probe.stdout.split()[-2:]
    return int(threads), None if blas_threads == "None" else blas_threads


def _openblas_numpy():
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):  # numpy before 1.26 reports no dict
        return False
    return "openblas" in blas.lower()


linux_only = pytest.mark.skipif(not Path("/proc/self/status").exists(),
                                reason="reads the thread count from /proc")


@linux_only
def test_the_cli_loads_numpy_without_a_blas_thread_pool(tmp_path, mini_dir):
    # zeqr calls no BLAS routine, so OpenBLAS's worker pool would only cost
    # launch time; the setting is undone once numpy has loaded
    assert _index_threads(tmp_path, mini_dir) == (1, None)


@linux_only
def test_a_user_set_openblas_num_threads_is_kept(tmp_path, mini_dir):
    threads, blas_threads = _index_threads(tmp_path, mini_dir, OPENBLAS_NUM_THREADS="2")
    assert blas_threads == "2"
    if _openblas_numpy() and len(os.sched_getaffinity(0)) >= 2:
        assert threads == 2
    # and no output depends on the count: a run off that index at another
    # count writes the golden run file
    src = str(Path(zeqr.__file__).resolve().parents[1])
    run_path = tmp_path / "run.trec"
    subprocess.run(
        [sys.executable, "-m", "zeqr.cli", "run", "--topics", str(mini_dir / "topics.json"),
         "--index", str(tmp_path / "idx"), "--reader", f"oracle:{mini_dir / 'oracle.json'}",
         "--idf-threshold", "1.5", "--out", str(run_path)],
        capture_output=True, timeout=60, env={"PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "4"},
        check=True)
    assert run_path.read_bytes() == (GOLDEN / "run_full.trec").read_bytes()


def test_importing_one_module_loads_only_what_it_needs():
    # the package re-exports nothing, so the transport alone loads no numpy
    src = str(Path(zeqr.__file__).resolve().parents[1])
    probe = subprocess.run(
        [sys.executable, "-c", "import sys, zeqr.transport; print(sorted(m for m in "
         "('numpy', 'zeqr.retrieval') if m in sys.modules))"],
        capture_output=True, text=True, timeout=60, env={"PYTHONPATH": src}, check=True)
    assert probe.stdout.strip() == "[]"


def test_a_k1_whose_scores_overflow_is_a_usage_error(tmp_path, mini_dir, mini_index_dir, capsys):
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy overflow warning fails the test
        assert main(["run", "--topics", str(mini_dir / "topics.json"),
                     "--index", str(mini_index_dir),
                     "--reader", f"oracle:{mini_dir / 'oracle.json'}",
                     "--out", str(tmp_path / "run.trec"), "--bm25-k1", "1e308"]) == 2
    errors = [line for line in capsys.readouterr().err.splitlines()
              if line.startswith("error:")]
    assert len(errors) == 1
    assert "bm25_k1=1e+308" in errors[0] and "bm25_b=0.4" in errors[0]
    assert not (tmp_path / "run.trec").exists()


@pytest.mark.parametrize("command", ["run", "repl"])
def test_a_k1_whose_scores_overflow_fails_before_any_question(tmp_path, mini_dir, mini_index_dir,
                                                              monkeypatch, capsys, extract_service,
                                                              command):
    argv = [command, "--index", str(mini_index_dir),
            "--reader", f"remote:{extract_service.url}", "--idf-threshold", "1.5",
            "--bm25-k1", "1e308"]
    if command == "run":
        argv += ["--topics", str(mini_dir / "topics.json"), "--out", str(tmp_path / "run.trec")]
    _feed_repl(monkeypatch, ["I just had a breast biopsy for cancer. What are the most "
                             "common types?", "Once it breaks out, how likely is it to spread?",
                             ":quit"])
    capsys.readouterr()
    assert main(argv) == 2
    errors = [line for line in capsys.readouterr().err.splitlines()
              if line.startswith("error:")]
    assert len(errors) == 1 and "bm25_k1=1e+308" in errors[0]
    assert extract_service.questions == []
    assert not (tmp_path / "run.trec").exists()


@pytest.mark.parametrize("command", ["index", "run", "index_to_a_directory",
                                     "run_to_a_directory"])
def test_an_unwritable_output_path_is_a_usage_error(tmp_path, mini_dir, mini_index_dir, capsys,
                                                    command):
    collection = str(mini_dir / "collection.jsonl")
    existing = tmp_path / "a_file"
    existing.write_text("x")
    directory = tmp_path / "a_directory"
    # the index archive's own path is a directory too
    (directory / "index.npz").mkdir(parents=True)
    run = ["run", "--topics", str(mini_dir / "topics.json"), "--index", str(mini_index_dir),
           "--reader", f"oracle:{mini_dir / 'oracle.json'}", "--out"]
    argv = {
        "index": ["index", "--collection", collection, "--out", str(existing)],
        "run": [*run, str(tmp_path / "missing" / "r.trec")],
        "index_to_a_directory": ["index", "--collection", collection, "--out", str(directory)],
        "run_to_a_directory": [*run, str(directory)],
    }[command]
    capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err
    errors = [line for line in err.splitlines() if line.startswith("error:")]
    assert len(errors) == 1 and errors[0].startswith("error: [Errno ")
    if command.endswith("_to_a_directory"):
        named = directory / "index.npz" if command.startswith("index") else directory
        assert errors[0] == f"error: [Errno 21] Is a directory: '{named}'"
    assert "Traceback" not in err


def test_out_and_traces_naming_one_file_is_a_usage_error(tmp_path, mini_dir, mini_index_dir,
                                                         capsys):
    same = tmp_path / "same.out"
    link = tmp_path / "link.out"
    link.symlink_to(same)
    base = ["run", "--topics", str(mini_dir / "topics.json"),
            "--index", str(mini_index_dir),
            "--reader", f"oracle:{mini_dir / 'oracle.json'}"]
    for traces in (same, link):
        capsys.readouterr()
        assert main([*base, "--out", str(same), "--traces", str(traces)]) == 2
        errors = [line for line in capsys.readouterr().err.splitlines()
                  if line.startswith("error:")]
        assert len(errors) == 1 and str(traces) in errors[0]
        # no output and no temporary file is left behind
        assert sorted(path.name for path in tmp_path.iterdir()) == ["link.out"]
    # a device is written through, not staged, so it may be named twice
    assert main([*base, "--out", os.devnull, "--traces", os.devnull]) == 0


@pytest.mark.parametrize("bad", ["out", "traces"])
def test_a_bad_output_path_fails_before_any_reader_call(tmp_path, mini_dir, mini_index_dir,
                                                        monkeypatch, capsys, bad):
    oracle = make_reader(f"oracle:{mini_dir / 'oracle.json'}")
    questions = []

    class CountingReader:
        def extract_span(self, input):
            questions.append(input.question)
            return oracle.extract_span(input)

    monkeypatch.setattr("zeqr.reader.make_reader", lambda spec: CountingReader())
    outputs = {"out": tmp_path / "r.trec", "traces": tmp_path / "t.jsonl"}
    outputs[bad] = tmp_path / "missing" / outputs[bad].name
    argv = ["run", "--topics", str(mini_dir / "topics.json"),
            "--index", str(mini_index_dir), "--reader", "counting",
            "--idf-threshold", "1.5", "--out", str(outputs["out"]),
            "--traces", str(outputs["traces"])]
    capsys.readouterr()
    assert main(argv) == 2
    errors = [line for line in capsys.readouterr().err.splitlines()
              if line.startswith("error:")]
    assert len(errors) == 1 and str(outputs[bad]) in errors[0]
    assert questions == []
    # neither output nor any temporary file is left behind
    assert list(tmp_path.iterdir()) == []

    (tmp_path / "missing").mkdir()
    assert main(argv) == 0
    assert questions and outputs["out"].exists() and outputs["traces"].exists()
    assert sorted(path.name for path in tmp_path.rglob("*")) == \
        sorted(["missing", outputs["out"].name, outputs["traces"].name])


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs FIFOs")
def test_outputs_are_written_through_a_symlink_and_a_fifo(tmp_path, mini_dir, mini_index_dir,
                                                          capsys):
    _, run_bytes, trace_bytes = _echoed_run(tmp_path, mini_index_dir, capsys, "plain")
    real = tmp_path / "real"
    real.mkdir()
    (real / "r.trec").write_text("old run")
    link = tmp_path / "link.trec"
    link.symlink_to(real / "r.trec")
    fifo = tmp_path / "traces.fifo"
    os.mkfifo(fifo)
    received = []
    drain = threading.Thread(target=lambda: received.append(fifo.read_bytes()), daemon=True)
    drain.start()
    try:
        assert main(["run", "--topics", str(mini_dir / "topics.json"),
                     "--index", str(mini_index_dir),
                     "--reader", f"oracle:{mini_dir / 'oracle.json'}",
                     "--out", str(link), "--traces", str(fifo)]) == 0
    finally:
        drain.join(timeout=30)
        if drain.is_alive():  # the FIFO was never written: let the reader go
            os.close(os.open(fifo, os.O_WRONLY | os.O_NONBLOCK))
    # the link still points at its file, which holds the run; the FIFO is
    # still a FIFO and carried the traces
    assert link.is_symlink() and link.resolve() == real / "r.trec"
    assert (real / "r.trec").read_bytes() == run_bytes
    assert stat.S_ISFIFO(fifo.lstat().st_mode)
    assert received == [trace_bytes]
    assert sorted(path.name for path in real.iterdir()) == ["r.trec"]
    assert not [path for path in tmp_path.iterdir() if path.name.endswith(".tmp")]


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs FIFOs")
def test_a_fifo_the_user_may_not_write_fails_before_any_input(tmp_path, mini_dir, monkeypatch,
                                                              capsys):
    # tests run as root, who may write any FIFO, so the refusal is patched in
    fifo = tmp_path / "traces.fifo"
    os.mkfifo(fifo)
    access = os.access
    monkeypatch.setattr("zeqr.cli.os.access",
                        lambda path, mode: Path(path) != fifo and access(path, mode))
    monkeypatch.setattr("zeqr.ingest.read_index", lambda path: pytest.fail("index loaded"))
    capsys.readouterr()
    assert main(["run", "--topics", str(mini_dir / "topics.json"),
                 "--index", str(tmp_path / "idx"), "--reader", "echo",
                 "--out", str(tmp_path / "r.trec"), "--traces", str(fifo)]) == 2
    assert capsys.readouterr().err.splitlines()[-1] == \
        f"error: [Errno 13] Permission denied: {str(fifo)!r}"
    # the FIFO is untouched, and the run staged before it is gone again
    assert list(tmp_path.iterdir()) == [fifo] and stat.S_ISFIFO(fifo.lstat().st_mode)


# ---- index ----

def test_cmd_index(tmp_path, mini_dir, capsys):
    out = tmp_path / "idx"
    code = main(["index", "--collection", str(mini_dir / "collection.jsonl"),
                 "--out", str(out)])
    assert code == 0
    assert (out / "index.npz").exists() and (out / "idf.tsv").exists()
    assert "indexed 20 documents" in capsys.readouterr().out


def test_cmd_index_missing_collection(tmp_path, capsys):
    code = main(["index", "--collection", str(tmp_path / "nope.jsonl"),
                 "--out", str(tmp_path / "idx")])
    assert code == 2
    assert "nope.jsonl" in capsys.readouterr().err
    # the out directory it made is gone again
    assert list(tmp_path.iterdir()) == []


def test_cmd_index_checks_its_outputs_before_the_collection(tmp_path, capsys):
    regular = tmp_path / "regular"
    regular.write_text("")
    out = regular / "idx"
    code = main(["index", "--collection", str(tmp_path / "nope.jsonl"), "--out", str(out)])
    assert code == 2
    errors = [line for line in capsys.readouterr().err.splitlines()
              if line.startswith("error:")]
    assert len(errors) == 1 and str(out) in errors[0] and "nope.jsonl" not in errors[0]


def test_cmd_index_to_an_empty_out_writes_nothing(tmp_path, mini_dir, monkeypatch, capsys):
    # Path("") is the working directory, which an empty --out must not name
    monkeypatch.chdir(tmp_path)
    capsys.readouterr()
    assert main(["index", "--collection", str(mini_dir / "collection.jsonl"), "--out", ""]) == 2
    errors = [line for line in capsys.readouterr().err.splitlines()
              if line.startswith("error:")]
    assert errors == ["error: --out is empty"]
    assert list(tmp_path.iterdir()) == []


# ---- run ----

def _run_mode(tmp_path, index_dir, mode, name, reader=None, extra=()):
    run_path = tmp_path / f"{name}.trec"
    trace_path = tmp_path / f"{name}.jsonl"
    code = main([
        "run",
        "--topics", str(MINI / "topics.json"),
        "--index", str(index_dir),
        "--reader", reader or f"oracle:{MINI / 'oracle.json'}",
        "--mode", mode,
        "--idf-threshold", "1.5",
        "--out", str(run_path),
        "--traces", str(trace_path),
        *extra,
    ])
    assert code == 0
    return run_path, trace_path


def test_cmd_run_produces_run_and_traces(tmp_path, mini_index_dir):
    run_path, trace_path = _run_mode(tmp_path, mini_index_dir, "full", "full")
    results = read_run(run_path)
    assert {r.query_id for r in results} == \
        {f"{s}_{t}" for s in ("79", "80") for t in (1, 2, 3, 4)}
    traces = [json.loads(line) for line in trace_path.read_text().splitlines()]
    assert len(traces) == 8
    t79_4 = next(t for t in traces if t["query_id"] == "79_4")
    assert t79_4["q_double_star"] == BIOPSY_Q4_RESOLVED


def test_cmd_run_passthrough_is_raw_search(tmp_path, mini_index_dir, mini_sessions, mini_index):
    run_path, _ = _run_mode(tmp_path, mini_index_dir, "passthrough", "passthrough")
    results = {r.query_id: r for r in read_run(run_path)}
    config = Config(idf_threshold=1.5, mode="passthrough")
    for session in mini_sessions:
        for turn in session.turns:
            direct = bm25_search(mini_index, turn.raw_query, 100, config, query_id="q")
            assert results[f"{session.session_id}_{turn.turn_id}"].ranked == direct.ranked


def test_cmd_run_coref_only_matches_full_q_star(tmp_path, mini_index_dir):
    _, full_traces = _run_mode(tmp_path, mini_index_dir, "full", "full2")
    _, coref_traces = _run_mode(tmp_path, mini_index_dir, "coref_only", "coref")
    full = {json.loads(l)["query_id"]: json.loads(l)
            for l in full_traces.read_text().splitlines()}
    coref = {json.loads(l)["query_id"]: json.loads(l)
             for l in coref_traces.read_text().splitlines()}
    assert full["79_4"]["q_star"] == coref["79_4"]["q_star"] == BIOPSY_Q4_STAR
    for qid in full:
        assert full[qid]["q_star"] == coref[qid]["q_star"]


def test_cmd_run_question_without_context_room_runs_every_turn(tmp_path, mini_index_dir, capsys):
    # at an 8-token reader budget most questions leave no room for context:
    # those steps are skipped, and no turn fails
    _, trace_path = _run_mode(tmp_path, mini_index_dir, "full", "tight",
                              extra=("--reader-max-tokens", "8"))
    assert "ran 8/8 turns" in capsys.readouterr().out
    steps = [step for line in trace_path.read_text(encoding="utf-8").splitlines()
             for key in ("coref_steps", "omission_steps") for step in json.loads(line)[key]]
    assert steps and all(step["answer"] is None and not step["applied"] for step in steps)


def test_cmd_run_local_reader_without_transformers(tmp_path, mini_dir, mini_index_dir, monkeypatch,
                                                   capsys):
    monkeypatch.setitem(sys.modules, "transformers", None)
    assert main(["run", "--topics", str(mini_dir / "topics.json"),
                 "--index", str(mini_index_dir),
                 "--reader", "local:x", "--out", str(tmp_path / "r.trec")]) == 2
    errors = [line for line in capsys.readouterr().err.splitlines()
              if line.startswith("error:")]
    assert len(errors) == 1 and "'local-reader' extra" in errors[0]


@pytest.mark.parametrize("budget", [("--reader-max-tokens", "24"),
                                    ("--reader-max-tokens", "64"), ()],
                         ids=["tokens-24", "tokens-64", "default"])
def test_cmd_run_is_byte_deterministic(tmp_path, mini_index_dir, extract_service, capsys,
                                       budget):
    # at a tight budget the context loses gold answers: in process as over
    # HTTP, each is no answer, and every turn runs
    capsys.readouterr()
    first, first_traces = _run_mode(tmp_path, mini_index_dir, "full", "det1", extra=budget)
    assert "ran 8/8 turns" in capsys.readouterr().out
    second, second_traces = _run_mode(tmp_path, mini_index_dir, "full", "det2", extra=budget)
    assert first.read_bytes() == second.read_bytes()
    assert first_traces.read_bytes() == second_traces.read_bytes()
    # the same answers from a remote reader whose concurrent calls finish in
    # scrambled order change no byte
    extract_service.delay = lambda question: (zlib.crc32(question.encode()) % 30) / 1000
    remote, remote_traces = _run_mode(tmp_path, mini_index_dir, "full", "det3",
                                      reader=f"remote:{extract_service.url}", extra=budget)
    assert remote.read_bytes() == first.read_bytes()
    assert remote_traces.read_bytes() == first_traces.read_bytes()
    assert extract_service.answered != extract_service.questions


def test_cmd_run_keeps_at_most_max_in_flight_reader_calls(tmp_path, mini_index_dir,
                                                          extract_service):
    oracle, oracle_traces = _run_mode(tmp_path, mini_index_dir, "full", "oracle")
    extract_service.delay = lambda question: 0.05
    # the worker threads share one feed of turns and the outcome slots the
    # main thread reads; frequent thread switches would expose a lost update
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        remote, remote_traces = _run_mode(tmp_path, mini_index_dir, "full", "remote",
                                          reader=f"remote:{extract_service.url}")
    finally:
        sys.setswitchinterval(interval)
    assert remote.read_bytes() == oracle.read_bytes()
    assert remote_traces.read_bytes() == oracle_traces.read_bytes()
    assert 1 < extract_service.peak <= MAX_IN_FLIGHT


def test_cmd_run_keeps_at_most_max_in_flight_reader_calls_and_searches(tmp_path, mini_oracle,
                                                                       mini_index_dir, mini_index,
                                                                       service):
    config = Config(idf_threshold=1.5)
    lock = threading.Lock()
    counts = {"/extract": 0, "/search": 0, "in_flight": 0, "peak": 0}

    def respond(path, body):
        """Answers /extract as the oracle and /search with zeqr's own BM25,
        counting reader calls and searches in flight together."""
        with lock:
            counts[path] += 1
            counts["in_flight"] += 1
            counts["peak"] = max(counts["peak"], counts["in_flight"])
        # Released before the reply is written, as the client may send
        # its next request as soon as it has the reply.
        try:
            time.sleep(0.02)
            if path == "/search":
                result = bm25_search(mini_index, body["query"], body["k"], config, query_id="q")
                return 200, {"hits": [{"doc_id": d, "score": s} for d, s in result.ranked]}
            return oracle_reply(mini_oracle, body["question"], body["context"])
        finally:
            with lock:
                counts["in_flight"] -= 1

    oracle, oracle_traces = _run_mode(tmp_path, mini_index_dir, "full", "oracle")
    service.reply = json_reply(respond)
    remote, remote_traces = _run_mode(tmp_path, mini_index_dir, "full", "remote",
                                      reader=f"remote:{service.url}",
                                      extra=["--endpoint", service.url])
    # the searches run in the worker threads, one per turn, and each turn
    # holds at most one request in flight, question or search
    assert remote.read_bytes() == oracle.read_bytes()
    assert remote_traces.read_bytes() == oracle_traces.read_bytes()
    assert counts["/search"] == 8 and counts["/extract"] > counts["/search"]
    assert 1 < counts["peak"] <= MAX_IN_FLIGHT

    # with an in-process reader, the searches alone leave the process, and
    # the turns still overlap
    counts.update({"/extract": 0, "/search": 0, "peak": 0})
    searched, searched_traces = _run_mode(tmp_path, mini_index_dir, "full", "searched",
                                          extra=["--endpoint", service.url])
    assert searched.read_bytes() == oracle.read_bytes()
    assert searched_traces.read_bytes() == oracle_traces.read_bytes()
    assert counts["/search"] == 8 and counts["/extract"] == 0
    assert 1 < counts["peak"] <= MAX_IN_FLIGHT


def test_an_unreadable_posting_stops_a_remote_run_before_its_turns_are_asked(tmp_path,
                                                                             mini_index,
                                                                             extract_service,
                                                                             capsys):
    # BM25 checks the postings while the first questions wait: the run
    # then exits 2, its workers ask nothing more, and nothing is written
    index = tmp_path / "index.npz"
    members = index_members(mini_index)
    members["post_docs"] = members["post_docs"] + 1000
    write_index(index, members)
    extract_service.delay = lambda question: 0.3
    out = tmp_path / "out"
    out.mkdir()
    capsys.readouterr()
    assert main(_mini_run_argv(out, index, f"remote:{extract_service.url}")) == 2
    lines = capsys.readouterr().err.splitlines()
    assert [line for line in lines if not line.startswith("config: ")] == [
        f"error: {index}: not a readable zeqr index (a posting names no document or has no "
        "occurrence); rebuild it with `zeqr index`"]
    assert list(out.iterdir()) == []
    assert len(extract_service.questions) <= MAX_IN_FLIGHT


def test_a_workers_unexpected_exception_is_raised_in_the_main_thread(tmp_path, mini_index_dir,
                                                                    extract_service,
                                                                    monkeypatch):
    # as ThreadPoolExecutor.map raises it, and no output is written
    reformulate = reformulator.reformulate

    def failing(turn, *args):
        if turn.raw_query == BIOPSY_Q4:
            raise RuntimeError("a bug")
        return reformulate(turn, *args)

    monkeypatch.setattr("zeqr.reformulator.reformulate", failing)
    out = tmp_path / "out"
    out.mkdir()
    with pytest.raises(RuntimeError, match="a bug"):
        main(_mini_run_argv(out, mini_index_dir, f"remote:{extract_service.url}"))
    assert list(out.iterdir()) == []


def test_cmd_run_failed_question_fails_only_its_turn(tmp_path, mini_index_dir, extract_service,
                                                     capsys):
    clean, clean_traces = _run_mode(tmp_path, mini_index_dir, "full", "clean")
    respond = extract_service.respond
    extract_service.respond = lambda question, context: (
        (500, {"error": "boom"}) if question == BIOPSY_COREF_QUESTION
        else respond(question, context))
    capsys.readouterr()
    run, traces = _run_mode(tmp_path, mini_index_dir, "full", "one_500",
                            reader=f"remote:{extract_service.url}")

    def without_79_4(path):
        return [line for line in path.read_text().splitlines()
                if not line.startswith(("79_4 ", '{"query_id": "79_4"'))]

    assert run.read_text().splitlines() == without_79_4(clean)
    assert traces.read_text().splitlines() == without_79_4(clean_traces)
    assert len(without_79_4(clean_traces)) == 7
    # retried as a server error, then the turn asks no omission question
    assert extract_service.questions.count(BIOPSY_COREF_QUESTION) == 3
    assert BIOPSY_OMISSION_QUESTION not in extract_service.questions
    # the failure is reported once, by the turn that it fails, on one line
    reports = [line for line in capsys.readouterr().err.splitlines()
               if not line.startswith("config: ")]
    assert len(reports) == 1 and reports[0].startswith("ERROR zeqr.cli: turn 79_4 failed: "
                                                       "HTTP 500 ")


def test_cmd_run_a_score_too_large_for_a_float_fails_only_its_turn(tmp_path, mini_index_dir,
                                                                   extract_service, capsys):
    clean, _ = _run_mode(tmp_path, mini_index_dir, "full", "clean")
    respond = extract_service.respond

    def huge_score(question, context):
        status, reply = respond(question, context)
        if question == BIOPSY_COREF_QUESTION:
            reply = {**reply, "score": 10 ** 400}
        return status, reply

    extract_service.respond = huge_score
    capsys.readouterr()
    run, _ = _run_mode(tmp_path, mini_index_dir, "full", "huge",
                       reader=f"remote:{extract_service.url}")
    assert run.read_text().splitlines() == \
        [line for line in clean.read_text().splitlines() if not line.startswith("79_4 ")]
    reports = [line for line in capsys.readouterr().err.splitlines()
               if not line.startswith("config: ")]
    assert reports == [f"ERROR zeqr.cli: turn 79_4 failed: {extract_service.url}/extract: "
                       f"response.score is 1{'0' * 36}..., not a finite number"]


# Valid JSON, nested far past the recursion limit of Python's json parser.
DEEP_REPLY = b"[" * 100_000 + b"]" * 100_000
DEEP_ERROR = "invalid JSON: maximum recursion depth exceeded while decoding a JSON array from a " \
             "unicode string"


def _answer_deep(mini_index, deep):
    """A service answering /extract as the mini oracle and /search with
    zeqr's own BM25, but with DEEP_REPLY to a question or query in `deep`."""
    oracle = OracleReader.from_json(MINI / "oracle.json")
    config = Config(idf_threshold=1.5)

    def reply(path, body):
        body = json.loads(body)
        if body.get("question", body.get("query")) in deep:
            return 200, {}, DEEP_REPLY
        if path == "/search":
            result = bm25_search(mini_index, body["query"], body["k"], config, query_id="q")
            payload = {"hits": [{"doc_id": d, "score": s} for d, s in result.ranked]}
        else:
            _, payload = oracle_reply(oracle, body["question"], body["context"])
        return 200, {}, json.dumps(payload).encode()
    return reply


@pytest.mark.parametrize("deep, flags, path", [
    (BIOPSY_COREF_QUESTION, ["--reader", "remote:{url}"], "/extract"),
    (BIOPSY_Q4_RESOLVED, ["--reader", f"oracle:{MINI / 'oracle.json'}", "--endpoint", "{url}"],
     "/search"),
], ids=["remote-reader", "endpoint"])
def test_cmd_run_a_reply_nested_too_deep_fails_only_its_turn(tmp_path, mini_index_dir, mini_index,
                                                             service, capsys, deep, flags, path):
    service.reply = _answer_deep(mini_index, {deep})
    capsys.readouterr()
    assert main(["run", "--topics", str(MINI / "topics.json"), "--index", str(mini_index_dir),
                 "--mode", "full", "--idf-threshold", "1.5", "--out", str(tmp_path / "r.trec"),
                 *(flag.format(url=service.url) for flag in flags)]) == 0
    out, err = capsys.readouterr()
    assert "ran 7/8 turns" in out
    reports = [line for line in err.splitlines() if not line.startswith("config: ")]
    assert reports == [f"ERROR zeqr.cli: turn 79_4 failed: {service.url}{path}: {DEEP_ERROR}"]
    assert {result.query_id for result in read_run(tmp_path / "r.trec")} == \
        {f"{s}_{t}" for s in ("79", "80") for t in (1, 2, 3, 4)} - {"79_4"}


def test_cmd_run_reads_idf_off_the_index(tmp_path, mini_dir, mini_index_dir):
    index_dir = tmp_path / "idx"
    assert main(["index", "--collection", str(mini_dir / "collection.jsonl"),
                 "--out", str(index_dir)]) == 0
    outputs = [_run_mode(tmp_path, mini_index_dir, "full", "shared")]
    outputs.append(_run_mode(tmp_path, index_dir, "full", "with_tsv"))
    (index_dir / "idf.tsv").unlink()
    outputs.append(_run_mode(tmp_path, index_dir, "full", "without_tsv"))
    # --index names the index directory or the index file in it
    outputs.append(_run_mode(tmp_path, index_dir / "index.npz", "full", "by_file"))
    run_bytes = {run.read_bytes() for run, _ in outputs}
    trace_bytes = {traces.read_bytes() for _, traces in outputs}
    assert len(run_bytes) == 1 and len(trace_bytes) == 1


def test_run_and_repl_take_passages_from_the_index(tmp_path, mini_dir, mini_index_dir, monkeypatch,
                                                   capsys):
    index_dir = tmp_path / "idx"
    assert main(["index", "--collection", str(mini_dir / "collection.jsonl"),
                 "--out", str(index_dir)]) == 0
    built = _run_mode(tmp_path, mini_index_dir, "full", "built")
    run_path, trace_path = tmp_path / "indexed.trec", tmp_path / "indexed.jsonl"
    assert main(["run", "--topics", str(mini_dir / "topics.json"),
                 "--index", str(index_dir), "--reader", f"oracle:{mini_dir / 'oracle.json'}",
                 "--idf-threshold", "1.5", "--out", str(run_path),
                 "--traces", str(trace_path)]) == 0
    assert run_path.read_bytes() == built[0].read_bytes()
    assert trace_path.read_bytes() == built[1].read_bytes()

    # the REPL's next context holds the top hit's body, read off the index
    _feed_repl(monkeypatch, [
        "I just had a breast biopsy for cancer. What are the most common types?",
        "Once it breaks out, how likely is it to spread?",
        "How deadly is Lobular Carcinoma in Situ?",
        "Wow, that is better than I thought.  What are common treatments?",
        ":quit",
    ])
    capsys.readouterr()
    assert main(["repl", "--index", str(index_dir),
                 "--reader", f"oracle:{mini_dir / 'oracle.json'}",
                 "--idf-threshold", "1.5", "-k", "3"]) == 0
    out = capsys.readouterr().out
    assert f"q**: {BIOPSY_Q4_RESOLVED}" in out
    assert [line for line in out.splitlines() if line.startswith("q**: ")] == \
        [line for line in (GOLDEN / "repl.txt").read_text(encoding="utf-8").splitlines()
         if line.startswith("q**: ")]


@pytest.mark.parametrize("command", ["run", "repl"])
def test_a_collection_other_than_the_indexed_one_exits_2(tmp_path, mini_dir, monkeypatch,
                                                         capsys, command):
    collection = mini_dir / "collection.jsonl"
    index_dir = tmp_path / "idx"
    assert main(["index", "--collection", str(collection), "--out", str(index_dir)]) == 0
    other = tmp_path / "other.jsonl"
    other.write_text(collection.read_text(encoding="utf-8")
                     + json.dumps({"id": "extra", "contents": "one more passage"}) + "\n",
                     encoding="utf-8")
    monkeypatch.setattr("builtins.input", lambda: ":quit")
    argv = [command, "--index", str(index_dir), "--collection", str(other),
            "--reader", f"oracle:{mini_dir / 'oracle.json'}"]
    if command == "run":
        argv += ["--topics", str(mini_dir / "topics.json"), "--out", str(tmp_path / "r.trec")]
    capsys.readouterr()
    assert main(argv) == 2
    errors = [line for line in capsys.readouterr().err.splitlines()
              if line.startswith("error:")]
    assert len(errors) == 1
    assert str(other) in errors[0] and str(index_dir / "index.npz") in errors[0]
    assert not (tmp_path / "r.trec").exists()


def test_an_index_that_records_no_collection_hash_says_so(tmp_path, mini_dir, mini_index,
                                                          capsys):
    # the collection is the indexed one, but the index cannot tell
    index = tmp_path / "index.npz"
    save_index(mini_index, index)
    collection = mini_dir / "collection.jsonl"
    capsys.readouterr()
    assert main(["run", "--index", str(index), "--collection", str(collection),
                 "--topics", str(mini_dir / "topics.json"), "--reader", "echo",
                 "--out", str(tmp_path / "r.trec")]) == 2
    errors = [line for line in capsys.readouterr().err.splitlines()
              if line.startswith("error:")]
    assert errors == [f"error: {index} records no collection hash to check {collection} "
                      "against; rebuild the index or drop --collection"]
    assert not (tmp_path / "r.trec").exists()


@pytest.mark.parametrize("command", ["run", "repl"])
def test_missing_reader_is_reported_before_loading(tmp_path, mini_dir, command,
                                                   monkeypatch, capsys):
    def never(*args, **kwargs):
        raise AssertionError("inputs loaded before the usage check")

    for module, name in (("ingest", "load_collection"), ("ingest", "load_topics"),
                         ("ingest", "read_index"), ("retrieval", "build_index")):
        monkeypatch.setattr(f"zeqr.{module}.{name}", never)
    args = [command, "--index", str(tmp_path / "missing_index"),
            "--collection", str(mini_dir / "collection.jsonl")]
    if command == "run":
        args += ["--topics", str(mini_dir / "topics.json"), "--out", str(tmp_path / "r.trec")]
    with pytest.raises(SystemExit) as exit_info:
        main(args)
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert err.endswith(f"zeqr {command}: error: the following arguments are required: "
                        "--reader\n")
    assert "config:" not in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", ["run", "repl"])
def test_a_depth_below_one_fails_before_any_input_or_question(tmp_path, mini_dir, mini_index_dir,
                                                              monkeypatch, capsys, extract_service,
                                                              command):
    argv = [command, "--index", str(mini_index_dir),
            "--reader", f"remote:{extract_service.url}", "--idf-threshold", "1.5", "-k", "0"]
    if command == "run":
        argv += ["--topics", str(mini_dir / "topics.json"), "--out", str(tmp_path / "r.trec")]
    _feed_repl(monkeypatch, ["I just had a breast biopsy for cancer. What are the most "
                             "common types?", "Once it breaks out, how likely is it to spread?",
                             ":quit"])
    capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert [line for line in err.splitlines() if line.startswith("error:")] == \
        ["error: k must be >= 1, got 0"]
    assert "> " not in err  # the REPL never prompted
    assert extract_service.questions == []
    assert list(tmp_path.iterdir()) == []


# an empty tag fails in main, before this check
@pytest.mark.parametrize("tag", ["my run", "t\x00"])
def test_a_tag_a_run_file_cannot_carry_fails_before_any_input(tmp_path, mini_dir, mini_index_dir,
                                                              monkeypatch, capsys, extract_service,
                                                              tag):
    def never(*args, **kwargs):
        raise AssertionError("inputs loaded before the tag check")

    monkeypatch.setattr("zeqr.ingest.read_index", never)
    capsys.readouterr()
    assert main(["run", "--topics", str(mini_dir / "topics.json"),
                 "--index", str(mini_index_dir),
                 "--reader", f"remote:{extract_service.url}", "--tag", tag,
                 "--out", str(tmp_path / "r.trec")]) == 2
    assert [line for line in capsys.readouterr().err.splitlines()
            if line.startswith("error:")] == [f"error: tag {tag!r} is not one a run file can carry"]
    assert extract_service.questions == []
    assert list(tmp_path.iterdir()) == []


def test_every_run_file_run_writes_is_read_by_eval(tmp_path, mini_dir, mini_index_dir):
    # a tag and topic numbers outside ASCII still make six-field run lines
    topics = json.loads((mini_dir / "topics.json").read_text(encoding="utf-8"))
    topics[0]["number"] = "79\u00e9"
    renumbered = tmp_path / "topics.json"
    renumbered.write_text(json.dumps(topics), encoding="utf-8")
    run_path = tmp_path / "r.trec"
    assert main(["run", "--topics", str(renumbered),
                 "--index", str(mini_index_dir),
                 "--reader", f"oracle:{mini_dir / 'oracle.json'}", "--tag", "t\u00e9",
                 "--out", str(run_path)]) == 0
    assert main(["eval", "--run", str(run_path), "--qrels", str(mini_dir / "qrels.txt")]) == 0
    results = read_run(run_path)
    assert "79\u00e9_1" in {r.query_id for r in results}
    assert {r.tag for r in results} == {"t\u00e9"}


# ---- inputs: index alone reads a collection ----

@pytest.mark.parametrize("command", ["index", "run", "repl"])
def test_unreadable_collection_is_a_usage_error(tmp_path, mini_dir, mini_index_dir, command,
                                                capsys):
    # run and repl read --collection only to check it against --index
    topics, index = str(mini_dir / "topics.json"), str(mini_index_dir)

    def args(collection):
        return {
            "index": ["index", "--collection", collection, "--out", str(tmp_path / "idx")],
            "run": ["run", "--index", index, "--collection", collection, "--topics", topics,
                    "--reader", "echo", "--out", str(tmp_path / "r.trec")],
            "repl": ["repl", "--index", index, "--collection", collection, "--reader", "echo"],
        }[command]

    missing = str(tmp_path / "nope.jsonl")
    capsys.readouterr()
    assert main(args(missing)) == 2
    assert f"error: [Errno 2] No such file or directory: '{missing}'\n" in \
        capsys.readouterr().err

    directory = tmp_path / "a_directory"
    directory.mkdir()
    assert main(args(str(directory))) == 2
    assert f"error: [Errno 21] Is a directory: '{directory}'\n" in capsys.readouterr().err


REQUIRED = {"index_without_collection": "index --collection",
            "run_without_topics": "run --topics", "run_without_index": "run --index",
            "run_without_reader": "run --reader",
            "run_without_inputs": "run --topics, --index, --reader",
            "repl_without_index": "repl --index", "repl_without_reader": "repl --reader",
            "eval_without_qrels": "eval --qrels", "census_without_topics": "census --topics",
            "census_without_idf_cache": "census --idf-cache"}


@pytest.mark.parametrize("case", [*REQUIRED, "census_index", "census_collection",
                                  "run_idf_cache", "repl_idf_cache"])
def test_each_command_takes_its_inputs_one_way(tmp_path, mini_dir, mini_index_dir, monkeypatch,
                                               capsys, case):
    # run and repl load an index and take IDF from it alone, census reads an
    # IDF cache; an input a command cannot run without is missing in the
    # parser, before the echo
    def never(*args, **kwargs):
        raise AssertionError("an input loaded before the usage check")

    for name in ("ingest.load_collection", "ingest.load_topics", "ingest.load_qrels",
                 "ingest.load_idf_table", "ingest.read_run", "ingest.read_index",
                 "retrieval.build_index", "reader.make_reader"):
        monkeypatch.setattr(f"zeqr.{name}", never)
    topics, collection = str(mini_dir / "topics.json"), str(mini_dir / "collection.jsonl")
    index, idf_cache = str(mini_index_dir), str(mini_index_dir / "idf.tsv")
    out = ["--out", str(tmp_path / "r.trec")]
    census = ["census", "--topics", topics, "--idf-cache", idf_cache]
    argv = {
        "index_without_collection": ["index", "--out", str(tmp_path / "idx")],
        "run_without_topics": ["run", "--index", index, "--reader", "echo", *out],
        "run_without_index": ["run", "--topics", topics, "--collection", collection,
                              "--reader", "echo", *out],
        "run_without_reader": ["run", "--topics", topics, "--index", index, *out],
        "run_without_inputs": ["run", "--collection", collection, *out],
        "repl_without_index": ["repl", "--collection", collection, "--reader", "echo"],
        "repl_without_reader": ["repl", "--index", index],
        "eval_without_qrels": ["eval", "--run", str(GOLDEN / "run_full.trec")],
        "census_without_topics": ["census", "--idf-cache", idf_cache],
        "census_without_idf_cache": ["census", "--topics", topics],
        "census_index": [*census, "--index", index],
        "census_collection": [*census, "--collection", collection],
        "run_idf_cache": ["run", "--topics", topics, "--index", index, "--reader", "echo", *out,
                          "--idf-cache", idf_cache],
        "repl_idf_cache": ["repl", "--index", index, "--reader", "echo",
                           "--idf-cache", idf_cache],
    }[case]
    if case in REQUIRED:
        command, flags = REQUIRED[case].split(" ", 1)
        message = f"zeqr {command}: error: the following arguments are required: {flags}\n"
    else:
        message = f"unrecognized arguments: {' '.join(argv[-2:])}\n"
    capsys.readouterr()
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    captured = capsys.readouterr()
    assert captured.err.endswith(message) and captured.out == ""
    assert "config:" not in captured.err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command, flag", _flags(
    lambda action: action.nargs != 0 and action.type is None and action.choices is None))
def test_an_empty_value_is_never_read_as_the_flag_left_out(tmp_path, mini_index_dir,
                                                          monkeypatch, capsys, extract_service,
                                                          command, flag):
    # every flag whose value is the string given: an empty one fails before
    # the echo and before any input is read, so that Path("") never names
    # the working directory
    def never(*args, **kwargs):
        raise AssertionError("an input was read")

    for name in ("ingest.load_collection", "ingest.load_topics", "ingest.load_qrels",
                 "ingest.read_run", "ingest.load_idf_table", "ingest.read_traces",
                 "ingest.read_index"):
        monkeypatch.setattr(f"zeqr.{name}", never)
    inputs, cwd = tmp_path / "inputs", tmp_path / "cwd"
    inputs.mkdir()
    cwd.mkdir()
    monkeypatch.chdir(cwd)
    argv = _command_lines(inputs, mini_index_dir, reader=f"remote:{extract_service.url}",
                          endpoint=extract_service.url)[command][0] + [flag, ""]
    given = sorted(inputs.iterdir())
    _feed_repl(monkeypatch, ["I just had a breast biopsy for cancer. What are the most "
                             "common types?", ":quit"])
    capsys.readouterr()
    assert main(argv) == 2
    # no config echo, no REPL prompt and no output
    assert capsys.readouterr() == ("", f"error: {flag} is empty\n")
    assert extract_service.questions == []
    assert sorted(inputs.iterdir()) == given
    assert list(cwd.iterdir()) == []


def _is_args(node):
    return isinstance(node, ast.Name) and node.id == "args"


def test_the_cli_never_tests_a_flag_for_truth():
    # argparse alone decides whether a flag was given (required=True); a
    # truth test of args.X, or of a name bound from getattr(args, ...),
    # would read an empty value as the flag left out
    tree = ast.parse(CLI.read_text(encoding="utf-8"))
    from_getattr = set()
    tested = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Assign, ast.NamedExpr)) and isinstance(node.value, ast.Call) \
                and isinstance(node.value.func, ast.Name) and node.value.func.id == "getattr" \
                and _is_args(node.value.args[0]):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            from_getattr |= {target.id for target in targets if isinstance(target, ast.Name)}
        if isinstance(node, (ast.If, ast.While, ast.IfExp, ast.Assert)):
            tested.append(node.test)
        elif isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Not):
            tested.append(node.operand)
        elif isinstance(node, ast.BoolOp):
            tested += node.values
        elif isinstance(node, ast.comprehension):
            tested += node.ifs
    sites = sorted(node.lineno for node in tested
                   if (isinstance(node, ast.Attribute) and _is_args(node.value))
                   or (isinstance(node, ast.Name) and node.id in from_getattr))
    assert sites == []


# ---- malformed input: file:line and exit 2 ----

MALFORMED = ("empty_contents", "empty_id", "truncated_index", "index_without_terms",
             "index_meta_not_an_object", "turn_not_a_list", "idf_zero_docs",
             "idf_negative_docs", "utf16_collection", "utf16_topics", "utf16_qrels",
             "utf16_run", "utf16_idf", "utf16_trace", "oracle_bad_json",
             "oracle_null_answer", "trace_bad_json_line", "trace_missing_keys",
             "run_nan_score", "contents_null", "id_a_float", "passage_a_number",
             "result_id_a_list", "utterance_null", "idf_nan_row", "idf_minus_inf_row",
             "id_with_whitespace", "id_with_nul", "index_bodies_not_utf8",
             "id_lone_surrogate", "oracle_lone_surrogate", "topic_number_with_space",
             "duplicate_topic_number", "idf_repeated_term", "idf_empty_term",
             "idf_uppercase_term", "idf_two_terms", "idf_huge_docs",
             "turn_number_a_float", "turn_number_a_boolean", "topic_number_a_boolean",
             "topic_number_a_float", "topic_number_null", "id_too_many_digits",
             "grade_with_underscore", "grade_arabic_digit", "score_with_underscore",
             "idf_underscore_docs", "idf_arabic_digit_row", "json_too_deep",
             "topics_not_a_list", "topic_without_turn", "turn_without_utterance",
             "grade_negative", "grade_too_large", "trace_q_star_a_number",
             "trace_pronoun_a_number", "empty_collection", "blank_collection", "empty_index",
             "turn_number_zero", "utterance_blank")

# A field of the second turn of the first mini topic, set to a value it
# cannot take, and the message naming what is wrong.
TOPIC_FIELDS = {
    "passage_a_number": ("canonical_passage", 5,
                         "topics[0].turn[1].canonical_passage is 5, not null or a string"),
    "result_id_a_list": ("canonical_result_id", ["b02"], "topics[0].turn[1].canonical_result_id "
                         'is ["b02"], not null or a string'),
    "utterance_null": ("raw_utterance", None,
                       "topics[0].turn[1].raw_utterance is null, not a string"),
    "turn_number_a_float": ("number", 2.7, "topics[0].turn[1].number is 2.7, not an integer "
                            "or a string of ASCII digits"),
    "turn_number_a_boolean": ("number", True, "topics[0].turn[1].number is true, not an "
                              "integer or a string of ASCII digits"),
    "turn_number_zero": ("number", 0, "topic 79: turn_id must be >= 1, got 0"),
    "utterance_blank": ("raw_utterance", "   ", "topic 79: turn 2: raw_query is empty"),
}

# A topics file of the wrong shape, and the message naming what is wrong.
TOPICS_SHAPES = {
    "turn_not_a_list": ([{"number": "1", "turn": 5}], "topics[0].turn is 5, not a list"),
    "topics_not_a_list": ({"number": "1", "turn": []},
                          'topics is {"number": "1", "turn": []}, not a list'),
    "topic_without_turn": ([{"number": "1"}], "topics[0] has no field 'turn'"),
    "turn_without_utterance": ([{"number": "1", "turn": [{"number": 1}]}],
                               "topics[0].turn[0] has no field 'raw_utterance'"),
}

TRACE_RECORD = {"query_id": "79_1", "raw_query": "q", "mode": "full", "coref_steps": [],
                "q_star": "q", "omission_steps": [], "q_double_star": "q"}


def _utf16_input(kind, tmp_path, mini_dir, mini_index_dir):
    """A command reading one UTF-16 file (bytes ff fe first) of the given kind."""
    topics, idf_cache = str(mini_dir / "topics.json"), str(mini_index_dir / "idf.tsv")
    qrels = str(mini_dir / "qrels.txt")
    text = {"collection": (mini_dir / "collection.jsonl").read_text(encoding="utf-8"),
            "topics": (mini_dir / "topics.json").read_text(encoding="utf-8"),
            "qrels": (mini_dir / "qrels.txt").read_text(encoding="utf-8"),
            "run": "79_1 Q0 b01 1 2.0 zeqr\n",
            "idf": "#docs=3\ncancer\t1.0\n",
            "trace": json.dumps(TRACE_RECORD) + "\n"}[kind]
    bad = tmp_path / f"{kind}.utf16"
    bad.write_bytes(b"\xff\xfe" + text.encode("utf-16-le"))
    good_run = tmp_path / "good.trec"
    good_run.write_text("79_1 Q0 b01 1 2.0 zeqr\n")
    return {
        "collection": ["index", "--collection", str(bad), "--out", str(tmp_path / "idx")],
        "topics": ["census", "--topics", str(bad), "--idf-cache", idf_cache],
        "qrels": ["eval", "--run", str(good_run), "--qrels", str(bad)],
        "run": ["eval", "--run", str(bad), "--qrels", qrels],
        "idf": ["census", "--topics", topics, "--idf-cache", str(bad)],
        "trace": ["trace", "--file", str(bad)],
    }[kind], f"{bad}:1: "


def _malformed_input(case, tmp_path, mini_dir, mini_index, mini_index_dir):
    """A command reading one malformed file, and the error prefix naming it."""
    topics, index = str(mini_dir / "topics.json"), str(mini_index_dir)
    if case.startswith("utf16_"):
        return _utf16_input(case[len("utf16_"):], tmp_path, mini_dir, mini_index_dir)
    if case in ("oracle_bad_json", "oracle_null_answer", "oracle_lone_surrogate"):
        bad = tmp_path / "oracle.json"
        prefix = f"{bad}: "
        if case == "oracle_bad_json":
            bad.write_text("{bad")
        else:
            answers = json.loads((mini_dir / "oracle.json").read_text(encoding="utf-8"))
            question = next(iter(answers))
            if case == "oracle_null_answer":
                answers[question] = None
                prefix += f"answer to {question!r}"
            else:
                answers[question] += "\udfff"
                prefix += "a string holds the lone surrogate '\\udfff'"
            bad.write_text(json.dumps(answers))
        return ["run", "--topics", topics, "--index", index,
                "--reader", f"oracle:{bad}", "--out", str(tmp_path / "r.trec")], prefix
    if case in ("trace_bad_json_line", "trace_missing_keys"):
        bad = tmp_path / "traces.jsonl"
        lines = [json.dumps(TRACE_RECORD), "{bad"] if case == "trace_bad_json_line" else \
            [json.dumps({"query_id": "x"})]
        bad.write_text("\n".join(lines) + "\n")
        return ["trace", "--file", str(bad)], f"{bad}:{len(lines)}: "
    if case in ("trace_q_star_a_number", "trace_pronoun_a_number"):
        # a field of the wrong type fails naming its path, the first broken
        # field in table order
        record, message = {
            "trace_q_star_a_number": (
                {**TRACE_RECORD, "q_star": 5, "omission_steps": {}, "q_double_star": None},
                "q_star is 5, not a string"),
            "trace_pronoun_a_number": (
                {**TRACE_RECORD, "coref_steps": [{"pronoun": 3, "question": "q",
                                                  "answer": None, "applied": False}]},
                "coref_steps[0].pronoun is 3, not an object")}[case]
        bad = tmp_path / "traces.jsonl"
        bad.write_text(json.dumps({**record, "query_id": "1_1"}) + "\n")
        return ["trace", "--file", str(bad)], f"{bad}:1: {message}"
    if case in ("grade_with_underscore", "grade_arabic_digit", "grade_negative",
                "grade_too_large", "score_with_underscore"):
        # numbers int() and float() read, where trec_eval's atoi and strtod
        # stop at the `_` or read no digit; a grade below 0, and one too
        # large for the float its gain is scored as
        qrels, run = tmp_path / "qrels.txt", tmp_path / "run.trec"
        qrels.write_text("79_1 0 b01 1\n", encoding="utf-8")
        run.write_text("79_1 Q0 b01 1 2.0 zeqr\n", encoding="utf-8")
        if case == "score_with_underscore":
            bad, message = run, "bad score '1_5.0'"
            bad.write_text("79_1 Q0 b01 1 2.0 zeqr\n79_1 Q0 b02 2 1_5.0 zeqr\n")
        else:
            grade = {"grade_with_underscore": "1_0", "grade_arabic_digit": "\u0661",
                     "grade_negative": "-1", "grade_too_large": "1" + "0" * 400}[case]
            bad, message = qrels, {"grade_negative": "grade -1 is negative",
                                   "grade_too_large": f"grade {grade!r} is too large"}.get(
                                       case, f"grade {grade!r} is not an integer")
            bad.write_text(f"79_1 0 b01 1\n79_1 0 b02 {grade}\n", encoding="utf-8")
        return ["eval", "--run", str(run), "--qrels", str(qrels)], f"{bad}:2: {message}"
    if case in ("empty_collection", "blank_collection"):
        bad = tmp_path / "collection.jsonl"
        bad.write_text("" if case == "empty_collection" else "\n \n\n")
        return ["index", "--collection", str(bad), "--out", str(tmp_path / "idx")], \
            f"{bad}: collection is empty"
    if case == "json_too_deep":
        # nesting past Python's recursion limit, which json.loads meets as
        # RecursionError rather than ValueError
        bad = tmp_path / "collection.jsonl"
        bad.write_text(json.dumps({"id": "d1", "contents": "x"}) + "\n" + "[" * 100000 + "\n")
        return ["index", "--collection", str(bad), "--out", str(tmp_path / "idx")], \
            f"{bad}:2: invalid JSON: maximum recursion depth exceeded"
    if case == "run_nan_score":
        bad = tmp_path / "nan.trec"
        bad.write_text("79_1 Q0 b01 1 nan zeqr\n")
        return ["eval", "--run", str(bad), "--qrels", str(mini_dir / "qrels.txt")], f"{bad}: "
    if case in TOPIC_FIELDS:
        key, value, message = TOPIC_FIELDS[case]
        data = json.loads((mini_dir / "topics.json").read_text(encoding="utf-8"))
        data[0]["turn"][1][key] = value
        bad = tmp_path / "topics.json"
        bad.write_text(json.dumps(data))
        return ["run", "--topics", str(bad), "--index", index, "--reader", "echo",
                "--out", str(tmp_path / "r.trec")], f"{bad}: {message}"
    if case in ("empty_contents", "empty_id", "contents_null", "id_a_float",
                "id_with_whitespace", "id_with_nul", "id_lone_surrogate", "id_too_many_digits"):
        bad = tmp_path / "collection.jsonl"
        second = {"empty_contents": {"id": "d2", "contents": ""},
                  "empty_id": {"id": "", "contents": "z"},
                  "contents_null": {"id": "d2", "contents": None},
                  "id_a_float": {"id": 2.5, "contents": "z"},
                  # ids a run line cannot carry: it splits on whitespace,
                  # and an index archive drops a trailing NUL
                  "id_with_whitespace": {"id": "x y", "contents": "z"},
                  "id_with_nul": {"id": "d2\u0000", "contents": "z"},
                  # json.dumps writes the lone surrogate as a \ud800 escape
                  "id_lone_surrogate": {"id": "d\ud800", "contents": "z"}}.get(case)
        # an integer past Python's int-string digit limit, which json.dumps
        # cannot write either
        second = json.dumps(second) if second else '{"id": ' + "1" * 5000 + ', "contents": "z"}'
        bad.write_text(json.dumps({"id": "d1", "contents": "x y"}) + "\n" + second + "\n")
        return ["index", "--collection", str(bad), "--out", str(tmp_path / "idx")], f"{bad}:2: "
    if case in ("truncated_index", "empty_index", "index_without_terms",
                "index_meta_not_an_object", "index_bodies_not_utf8"):
        bad = tmp_path / "index.npz"
        save_index(mini_index, bad)
        if case in ("truncated_index", "empty_index"):
            data = bad.read_bytes()
            # an empty file is the one mmap cannot map
            bad.write_bytes(data[:len(data) // 2] if case == "truncated_index" else b"")
        else:
            members = index_members(mini_index)
            if case == "index_without_terms":
                del members["terms"]
            elif case == "index_bodies_not_utf8":
                members["bodies"][:] = 0xff
            write_index(bad, members,
                        lambda meta: [2] if case == "index_meta_not_an_object" else meta)
        return ["run", "--index", str(bad), "--topics", topics, "--reader", "echo",
                "--out", str(tmp_path / "r.trec")], f"{bad}: "
    if case.startswith("topic_number_") or case == "duplicate_topic_number":
        # the number starts every query id of a run line, which splits on
        # whitespace; two topics of one number would give one query id twice;
        # str() of a number that is neither a string nor an integer would
        # give ids like True_1
        data = json.loads((mini_dir / "topics.json").read_text(encoding="utf-8"))
        if case.startswith("topic_number_"):
            data[0]["number"] = {"topic_number_with_space": "79 b",
                                 "topic_number_a_boolean": True,
                                 "topic_number_a_float": 79.0,
                                 "topic_number_null": None}[case]
            message = (f"topics[0].number is {json.dumps(data[0]['number'])}, "
                       "not an integer or a string a run file can carry")
        else:
            data[1]["number"] = 79
            message = "duplicate topic number '79'"
        bad = tmp_path / "topics.json"
        bad.write_text(json.dumps(data))
        return ["run", "--topics", str(bad), "--index", index, "--reader", "echo",
                "--out", str(tmp_path / "r.trec")], f"{bad}: {message}"
    if case in TOPICS_SHAPES:
        bad = tmp_path / "topics.json"
        data, message = TOPICS_SHAPES[case]
        bad.write_text(json.dumps(data))
        return ["census", "--topics", str(bad), "--idf-cache", str(mini_index_dir / "idf.tsv")], \
            f"{bad}: {message}"
    bad = tmp_path / "idf.tsv"
    header, row = {"idf_zero_docs": ("#docs=0", "cancer\t1.0"),
                   "idf_negative_docs": ("#docs=-3", "cancer\t1.0"),
                   "idf_nan_row": ("#docs=3", "cancer\tnan"),
                   "idf_minus_inf_row": ("#docs=3", "cancer\t-inf"),
                   "idf_repeated_term": ("#docs=3", "biopsy\t2.0"),
                   "idf_empty_term": ("#docs=3", "\t0.5"),
                   "idf_uppercase_term": ("#docs=3", "Cancer\t1.0"),
                   "idf_two_terms": ("#docs=3", "breast cancer\t1.0"),
                   "idf_underscore_docs": ("#docs=1_0", "cancer\t1.0"),
                   # twice the count overflows a float
                   "idf_huge_docs": ("#docs=1" + "0" * 400, "cancer\t1.0"),
                   "idf_arabic_digit_row": ("#docs=3", "cancer\t\u0661.5")}[case]
    bad.write_text(f"{header}\nbiopsy\t1.5\n{row}\n", encoding="utf-8")
    line = 1 if case.endswith("_docs") else 3
    return ["census", "--topics", topics, "--idf-cache", str(bad)], f"{bad}:{line}: "


@pytest.mark.parametrize("kind", ["collection", "topics"])
def test_a_lone_surrogate_fails_before_any_output_or_question(tmp_path, mini_dir, mini_index_dir,
                                                              capsys, extract_service, kind):
    source = mini_dir / ("collection.jsonl" if kind == "collection" else "topics.json")
    bad = tmp_path / source.name
    if kind == "collection":
        lines = source.read_text(encoding="utf-8").splitlines()
        lines.insert(1, json.dumps({"id": "s1", "contents": "broken \ud800 surrogate text"}))
        bad.write_text("\n".join(lines) + "\n", encoding="utf-8")
        argv = ["index", "--collection", str(bad), "--out", str(tmp_path / "idx")]
        prefix = f"error: {bad}:2: "
    else:
        topics = json.loads(source.read_text(encoding="utf-8"))
        topics[0]["turn"][0]["raw_utterance"] += "\ud800"
        bad.write_text(json.dumps(topics), encoding="utf-8")
        argv = ["run", "--topics", str(bad), "--index", str(mini_index_dir),
                "--reader", f"remote:{extract_service.url}", "--out", str(tmp_path / "r.trec"),
                "--traces", str(tmp_path / "t.jsonl")]
        prefix = f"error: {bad}: "
    capsys.readouterr()
    assert main(argv) == 2
    errors = [line for line in capsys.readouterr().err.splitlines()
              if line.startswith("error:")]
    assert len(errors) == 1 and errors[0].startswith(prefix)
    assert "lone surrogate '\\ud800'" in errors[0]
    assert extract_service.questions == []
    assert sorted(path.name for path in tmp_path.iterdir()) == [bad.name]


@pytest.mark.parametrize("case", MALFORMED)
def test_malformed_input_is_a_usage_error(tmp_path, mini_dir, mini_index, mini_index_dir, case,
                                          capsys):
    argv, prefix = _malformed_input(case, tmp_path, mini_dir, mini_index, mini_index_dir)
    capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err
    errors = [line for line in err.splitlines() if line.startswith("error:")]
    assert len(errors) == 1 and errors[0].startswith(f"error: {prefix}")
    assert "Traceback" not in err


# ---- eval ----

def test_cmd_eval_single_run(tmp_path, mini_dir, mini_index_dir, capsys):
    run_path, _ = _run_mode(tmp_path, mini_index_dir, "full", "eval1")
    capsys.readouterr()
    code = main(["eval", "--run", str(run_path), "--qrels", str(mini_dir / "qrels.txt")])
    assert code == 0
    out = capsys.readouterr().out
    assert "query_id\tndcg@5\tp@5\tr@100\tap" in out
    assert "\nall\t" in out


def test_cmd_eval_two_runs_significance(tmp_path, mini_dir, mini_index_dir, capsys):
    run_a, _ = _run_mode(tmp_path, mini_index_dir, "full", "sig_a")
    run_b, _ = _run_mode(tmp_path, mini_index_dir, "passthrough", "sig_b")
    capsys.readouterr()
    code = main(["eval", "--run", str(run_a), "--run", str(run_b),
                 "--qrels", str(mini_dir / "qrels.txt")])
    assert code == 0
    out = capsys.readouterr().out
    assert "paired t-test" in out
    assert "significant(p<0.05)" in out
    assert out.count("# run:") == 2


def _seeded_runs(directory, seed=7):
    """Two run files and their qrels shaped like the benchmark's: 300 queries,
    each with 100 ranked docs and 50 graded judgments; the first run ranks
    relevant docs higher than the second."""
    rng = random.Random(seed)
    qrels, runs = [], ([], [])
    for q in range(300):
        query_id = f"{q // 5 + 1}_{q % 5 + 1}"
        pool = rng.sample(range(5000), 200)
        grades = {d: rng.choice((0, 1, 1, 2, 3)) for d in pool[:50]}
        qrels += [f"{query_id} 0 d{d} {grade}" for d, grade in grades.items()]
        for lines, boost in zip(runs, (0.11, 0.1)):
            ranked = sorted(pool, key=lambda d: rng.random() - boost * grades.get(d, 0))
            lines += [f"{query_id} Q0 d{d} {rank} {100.0 - rank} zeqr"
                      for rank, d in enumerate(ranked[:100], start=1)]
    for name, lines in (("qrels.txt", qrels), ("a.trec", runs[0]), ("b.trec", runs[1])):
        (directory / name).write_text("".join(line + "\n" for line in lines))
    return directory / "qrels.txt"


# stdout of `zeqr eval --run a.trec --run b.trec` as the t-test on NumPy
# and SciPy printed it: its sha256, and its t-test lines.
TWO_RUN_EVAL = {
    "mini": ("348ec59d26267e0619c866a072ddafd8014ddc1f28723dcdae8a3faa7c8f5ff4",
             "# paired t-test over 8 shared queries (a.trec vs b.trec)\n"
             "metric\tt\tp\tsignificant(p<0.05)\n"
             "ndcg_at_5\t2.6145\t0.0347\t*\n"
             "p_at_5\t1.0000\t0.3506\t\n"
             "r_at_100\t0.0000\t1.0000\t\n"
             "ap\t2.6348\t0.0337\t*\n"),
    "seeded": ("4ee26d6a17b0d7d8fefc5fc4d5a91efd8c47d5dd19ccf3ae9a26485b464ab25a",
               "# paired t-test over 300 shared queries (a.trec vs b.trec)\n"
               "metric\tt\tp\tsignificant(p<0.05)\n"
               "ndcg_at_5\t1.7019\t0.0898\t\n"
               "p_at_5\t1.4023\t0.1619\t\n"
               "r_at_100\t1.1493\t0.2513\t\n"
               "ap\t2.3780\t0.0180\t*\n"),
}


@pytest.mark.parametrize("inputs", sorted(TWO_RUN_EVAL))
def test_two_run_eval_prints_the_pinned_bytes(tmp_path, mini_dir, mini_index_dir, monkeypatch,
                                              capsys, inputs):
    if inputs == "mini":
        _run_mode(tmp_path, mini_index_dir, "full", "a")
        _run_mode(tmp_path, mini_index_dir, "passthrough", "b")
        qrels = mini_dir / "qrels.txt"
    else:
        qrels = _seeded_runs(tmp_path)
    monkeypatch.chdir(tmp_path)
    capsys.readouterr()
    assert main(["eval", "--run", "a.trec", "--run", "b.trec", "--qrels", str(qrels)]) == 0
    out = capsys.readouterr().out
    digest, t_test = TWO_RUN_EVAL[inputs]
    assert out[out.index("# paired t-test"):] == t_test
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("shared", [0, 1])
def test_two_run_eval_over_fewer_than_two_shared_queries_prints_na(tmp_path, mini_dir,
                                                                   monkeypatch, capsys, shared):
    # a t-test needs two pairs, so each metric's row reads n/a
    (tmp_path / "a.trec").write_text("79_1 Q0 b01 1 2.0 zeqr\n79_2 Q0 b02 1 2.0 zeqr\n")
    (tmp_path / "b.trec").write_text(f"{'79_1' if shared else '80_1'} Q0 b05 1 2.0 zeqr\n")
    monkeypatch.chdir(tmp_path)
    capsys.readouterr()
    assert main(["eval", "--run", "a.trec", "--run", "b.trec",
                 "--qrels", str(mini_dir / "qrels.txt")]) == 0
    out = capsys.readouterr().out
    assert out[out.index("# paired t-test"):] == (
        f"# paired t-test over {shared} shared queries (a.trec vs b.trec)\n"
        "metric\tt\tp\tsignificant(p<0.05)\n"
        + "".join(f"{name}\tn/a\tn/a\tn/a\n" for name in evaluation.METRIC_FIELDS))


def test_cmd_eval_unjudged_only_reports_na(tmp_path, mini_dir, capsys):
    run_path = tmp_path / "unjudged.trec"
    run_path.write_text("q_unknown Q0 b01 1 2.0 zeqr\n")
    capsys.readouterr()
    code = main(["eval", "--run", str(run_path), "--qrels", str(mini_dir / "qrels.txt")])
    assert code == 0
    captured = capsys.readouterr()
    assert "all\tn/a\tn/a\tn/a\tn/a" in captured.out
    # the skipped query is reported on one line after the config echo, and
    # so are the judged queries the run misses
    assert captured.err.splitlines()[1:] == [
        "WARNING zeqr.evaluation: 1 run queries had no qrels entries and were skipped",
        "WARNING zeqr.evaluation: 8 judged queries have no run entry"]


def test_cmd_eval_bad_run_file(tmp_path, mini_dir, capsys):
    bad = tmp_path / "bad.trec"
    bad.write_text("only three fields\n")
    code = main(["eval", "--run", str(bad), "--qrels", str(mini_dir / "qrels.txt")])
    assert code == 2


# ---- census ----

@pytest.mark.parametrize("source", ["idf-cache"])
def test_cmd_census(mini_dir, mini_index_dir, mini_collection, capsys, source):
    capsys.readouterr()
    code = main(["census", "--topics", str(mini_dir / "topics.json"),
                 f"--{source}", str(mini_index_dir / "idf.tsv"), "--idf-threshold", "1.5"])
    assert code == 0
    out = capsys.readouterr().out
    assert "coreference\t3" in out
    assert "omission\t7" in out
    # the IDF cache `zeqr index` writes gives the census of the
    # collection-scanning IDF reference
    reference = evaluation.ambiguity_census(load_topics(mini_dir / "topics.json"),
                                            build_idf_table(mini_collection),
                                            Config(idf_threshold=1.5))
    assert out == evaluation.format_census(reference) + "\n"


# ---- trace ----

def test_cmd_trace_pretty_prints(tmp_path, mini_index_dir, capsys):
    _, trace_path = _run_mode(tmp_path, mini_index_dir, "full", "viewer")
    capsys.readouterr()
    code = main(["trace", "--file", str(trace_path), "--query-id", "79_4"])
    assert code == 0
    out = capsys.readouterr().out
    assert BIOPSY_Q4_RESOLVED in out
    assert "79_4" in out and "80_1" not in out


def test_cmd_trace_keeps_a_record_with_a_unicode_line_separator(tmp_path, capsys):
    # run writes traces with ensure_ascii=False, so U+2028 stays raw inside
    # a record; only "\n" ends a JSON line
    path = tmp_path / "traces.jsonl"
    path.write_text(json.dumps({**TRACE_RECORD, "raw_query": "a\u2028b"},
                               ensure_ascii=False) + "\n", encoding="utf-8")
    capsys.readouterr()
    assert main(["trace", "--file", str(path)]) == 0
    assert capsys.readouterr().out.startswith("79_1: a\u2028b  [full]\n")


def test_cmd_trace_query_id_that_no_record_has_exits_2(tmp_path, capsys):
    path = tmp_path / "traces.jsonl"
    path.write_text(json.dumps(TRACE_RECORD) + "\n")
    assert main(["trace", "--file", str(path), "--query-id", "79_2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"config: file={shlex.quote(str(path))} query_id=79_2\n"
                            f"error: {path}: no trace record has query id '79_2'\n")
    # every record is checked first, the ones of other query ids too
    path.write_text(json.dumps(TRACE_RECORD) + "\n" + json.dumps({"query_id": "x"}) + "\n")
    assert main(["trace", "--file", str(path), "--query-id", "79_1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines()[-1].startswith(f"error: {path}:2: the record has no field ")


def test_cmd_trace_prints_no_answer_for_a_blank_or_missing_answer(tmp_path, capsys):
    def step(surface, answer):
        return {"pronoun": {"token_index": 0, "surface": surface, "is_possessive": False},
                "question": f"What is {surface} refer to, in \"q\"", "answer": answer,
                "applied": False}

    answers = [None, {"text": "", "char_start": 0, "char_end": 0, "score": 0.0},
               {"text": " \t", "char_start": 0, "char_end": 2, "score": 0.0},
               {"text": "x", "char_start": 0, "char_end": 1, "score": 0.0}]
    record = {**TRACE_RECORD, "coref_steps": [step("it", answer) for answer in answers]}
    path = tmp_path / "traces.jsonl"
    path.write_text(json.dumps(record) + "\n", encoding="utf-8")
    capsys.readouterr()
    assert main(["trace", "--file", str(path)]) == 0
    printed = [line for line in capsys.readouterr().out.splitlines() if "A: " in line]
    assert printed == ["    A: (no answer) [skipped]"] * 3 + ["    A: x [skipped]"]


# ---- repl ----

def _feed_repl(monkeypatch, lines):
    """Answer each input() with the next of lines, then raise EOFError as
    input() does at the end of its input."""
    iterator = iter(lines)

    def read():
        for line in iterator:
            return line
        raise EOFError

    monkeypatch.setattr("builtins.input", read)


def test_repl_biopsy_session(mini_dir, mini_index_dir, monkeypatch, capsys):
    _feed_repl(monkeypatch, [
        "I just had a breast biopsy for cancer. What are the most common types?",
        "Once it breaks out, how likely is it to spread?",
        "How deadly is Lobular Carcinoma in Situ?",
        "Wow, that is better than I thought.  What are common treatments?",
        ":quit",
    ])
    code = main(["repl",
                 "--index", str(mini_index_dir),
                 "--reader", f"oracle:{mini_dir / 'oracle.json'}",
                 "--idf-threshold", "1.5", "-k", "3"])
    assert code == 0
    out = capsys.readouterr().out
    assert f"q**: {BIOPSY_Q4_RESOLVED}" in out


def test_repl_reset_clears_context(mini_dir, mini_index_dir, monkeypatch, capsys):
    _feed_repl(monkeypatch, [
        "What is the population of Salt Lake City?",
        ":reset",
        "What is its main economic activity?",
        ":quit",
    ])
    code = main(["repl",
                 "--index", str(mini_index_dir),
                 "--reader", f"oracle:{mini_dir / 'oracle.json'}",
                 "--idf-threshold", "1.5", "-k", "3"])
    assert code == 0
    out = capsys.readouterr().out
    # after :reset the turn has no context, so the pronoun stays unresolved
    assert "q**: What is its main economic activity?" in out


def test_repl_first_turn_identity(mini_dir, mini_index_dir, monkeypatch, capsys):
    # a blank line asks nothing, and the end of input ends the session
    _feed_repl(monkeypatch, ["What is the population of Salt Lake City?", ""])
    code = main(["repl",
                 "--index", str(mini_index_dir),
                 "--reader", f"oracle:{mini_dir / 'oracle.json'}",
                 "--idf-threshold", "1.5", "-k", "3"])
    assert code == 0
    assert [line for line in capsys.readouterr().out.splitlines() if line.startswith("q**")] == \
        ["q**: What is the population of Salt Lake City?"]


def test_repl_turn_over_a_non_utf8_passage_fails_alone(tmp_path, mini_dir, mini_index,
                                                       monkeypatch, capsys):
    bad = tmp_path / "index.npz"
    members = index_members(mini_index)
    members["bodies"][:] = 0xff
    write_index(bad, members)
    _feed_repl(monkeypatch, ["What is the population of Salt Lake City?", ":trace", ":quit"])
    capsys.readouterr()
    assert main(["repl", "--index", str(bad), "--reader", f"oracle:{mini_dir / 'oracle.json'}",
                 "--idf-threshold", "1.5", "-k", "3"]) == 0
    # the error follows the turn's prompt; the next prompts still answer
    # :trace and :quit
    out, err = capsys.readouterr()
    assert err.count("error:") == 1
    assert re.search(rf"^> error: {re.escape(str(bad))}: passage '\w+' is not UTF-8\n> > $",
                     err, re.MULTILINE)
    # the failed turn set no trace
    assert out == "(no trace yet)\n"


def test_repl_turn_with_a_reply_nested_too_deep_fails_alone(mini_index_dir, mini_index, service,
                                                           monkeypatch, capsys):
    first = "What is the population of Salt Lake City?"
    second = "What is its main economic activity?"
    coref_question = f'What is its refer to, in "{second}"'
    service.reply = _answer_deep(mini_index, {coref_question})
    _feed_repl(monkeypatch, [first, second, first, ":quit"])
    capsys.readouterr()
    assert main(["repl", "--index", str(mini_index_dir), "--reader", f"remote:{service.url}",
                 "--idf-threshold", "1.5", "-k", "3"]) == 0
    # the error follows the failed turn's prompt, and the next turn answers
    out, err = capsys.readouterr()
    assert err.count("error:") == 1
    assert f"> error: {service.url}/extract: {DEEP_ERROR}\n> > " in err
    assert out.count(f"q**: {first}\n") == 2


def test_repl_trace_meta_command(mini_dir, mini_index_dir, monkeypatch, capsys):
    _feed_repl(monkeypatch, [
        ":trace",
        "What is the population of Salt Lake City?",
        ":trace",
        ":reset",
        ":trace",
        ":quit",
    ])
    code = main(["repl",
                 "--index", str(mini_index_dir),
                 "--reader", f"oracle:{mini_dir / 'oracle.json'}",
                 "--idf-threshold", "1.5", "-k", "3"])
    assert code == 0
    out = capsys.readouterr().out
    assert out.startswith("(no trace yet)\n")
    assert '"q_double_star": "What is the population of Salt Lake City?"' in out
    # :reset drops the trace with the session
    assert out.endswith("}\n(no trace yet)\n")


# ---- external retriever through the CLI ----

def test_cmd_run_external_endpoint(tmp_path, mini_dir, mini_index_dir, mini_index, extract_service,
                                   service, capsys):
    config = Config(idf_threshold=1.5)
    rejected, stringly_scored = set(), set()

    def respond(path, body):
        if body["query"] in rejected:
            return 400, {"error": "rejected"}
        result = bm25_search(mini_index, body["query"], body["k"], config, query_id="q")
        return 200, {"hits": [
            {"doc_id": d, "score": str(s) if body["query"] in stringly_scored else s}
            for d, s in result.ranked]}

    def run(name, reader):
        run_path = tmp_path / f"{name}.trec"
        capsys.readouterr()
        code = main([
            "run",
            "--topics", str(mini_dir / "topics.json"),
            "--index", str(mini_index_dir),
            "--reader", reader,
            "--endpoint", service.url,
            "--mode", "full", "--idf-threshold", "1.5",
            "--out", str(run_path),
        ])
        assert code == 0
        return {r.query_id: r for r in read_run(run_path)}, capsys.readouterr()

    service.reply = json_reply(respond)
    clean, _ = run("ext", f"oracle:{mini_dir / 'oracle.json'}")
    assert clean["79_4"].ranked[0][0] == "b04"
    # a 400 fails at once, without a retry; with a remote reader the
    # searches run in the worker threads, and the rejected one fails only
    # its own turn
    rejected.add(BIOPSY_Q4_RESOLVED)
    partial, captured = run("ext_400", f"remote:{extract_service.url}")
    assert "ran 7/8 turns" in captured.out
    assert partial == {query_id: result for query_id, result in clean.items()
                       if query_id != "79_4"}
    # reported as a failed reader call is: the transport's own error
    (error,) = [line for line in captured.err.splitlines() if line.startswith("ERROR")]
    assert error == (f"ERROR zeqr.cli: turn 79_4 failed: HTTP 400 from {service.url}/search "
                     f"(endpoint={service.url}, attempts=1)")
    # so does a reply whose hit scores are strings: "1.5" is not taken as 1.5
    rejected.clear()
    stringly_scored.add(BIOPSY_Q4_RESOLVED)
    partial, captured = run("ext_string_score", f"remote:{extract_service.url}")
    assert "ran 7/8 turns" in captured.out
    assert partial == {query_id: result for query_id, result in clean.items()
                       if query_id != "79_4"}
    (error,) = [line for line in captured.err.splitlines() if line.startswith("ERROR")]
    score = clean["79_4"].ranked[0][1]
    assert error == (f"ERROR zeqr.cli: turn 79_4 failed: {service.url}/search: "
                     f'response.hits[0].score is "{score}", not a finite number')


@pytest.mark.parametrize("command, flags, url", [
    ("run", ["--reader", "remote:localhost:8000"], "localhost:8000"),
    ("repl", ["--reader", "remote:ftp://host/extract"], "ftp://host/extract"),
    ("run", ["--reader", "echo", "--endpoint", "127.0.0.1:9000"], "127.0.0.1:9000"),
    # URLs no request can carry, given to each of the three flags
    *((command, flags, url) for url in ("http://127.0.0.1:9/\u00e9", "http://my host:9/",
                                        "http://127.0.0.1:9/my api", "http://127.0.0.1:9/a\tb")
      for command, flags in (("run", ["--reader", f"remote:{url}"]),
                             ("repl", ["--reader", f"remote:{url}"]),
                             ("run", ["--reader", "echo", "--endpoint", url]))),
])
def test_a_bad_endpoint_url_fails_before_any_input_is_loaded(tmp_path, capsys, command,
                                                             flags, url):
    # no input file exists, so loading any of them first would fail naming it
    args = [command, "--index", str(tmp_path / "absent"), *flags]
    if command == "run":
        args += ["--topics", str(tmp_path / "absent.json"), "--out", str(tmp_path / "run.trec")]
    assert main(args) == 2
    errors = [line for line in capsys.readouterr().err.splitlines()
              if line.startswith("error: ")]
    assert len(errors) == 1
    assert errors[0].startswith(f"error: endpoint {url!r} is not an http:// or https:// URL")


@pytest.mark.parametrize("flag", ["--bm25-k1", "--bm25-b"])
def test_a_bm25_setting_with_an_endpoint_fails_before_any_input_is_loaded(tmp_path, capsys,
                                                                          flag):
    # the external retriever ranks, so the setting would be silently ignored
    assert main(["run", "--index", str(tmp_path / "absent"),
                 "--topics", str(tmp_path / "absent.json"), "--reader", "echo",
                 "--endpoint", "http://127.0.0.1:9", "--out", str(tmp_path / "run.trec"),
                 flag, "0.5"]) == 2
    errors = [line for line in capsys.readouterr().err.splitlines()
              if line.startswith("error: ")]
    assert errors == ["error: --bm25-k1 and --bm25-b tune zeqr's own BM25, which "
                      "--endpoint replaces; drop them"]
    assert list(tmp_path.iterdir()) == []

