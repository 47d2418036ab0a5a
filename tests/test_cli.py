import dataclasses
import json
import subprocess
import sys
import zlib
from pathlib import Path

import numpy as np
import pytest

import zeqr
from conftest import (
    BIOPSY_COREF_QUESTION,
    BIOPSY_OMISSION_QUESTION,
    BIOPSY_Q4_RESOLVED,
    BIOPSY_Q4_STAR,
)
from zeqr.cli import main
from zeqr.datamodel import Config
from zeqr.retrieval import bm25_search, read_run, save_index


# ---- configuration: flags only ----

def _echoed_run(tmp_path, mini_dir, capsys, name, *flags):
    """Run the mini topics; return the config echo, run bytes and trace bytes."""
    run_path, trace_path = tmp_path / f"{name}.trec", tmp_path / f"{name}.jsonl"
    capsys.readouterr()
    assert main(["run", "--topics", str(mini_dir / "topics.json"),
                 "--collection", str(mini_dir / "collection.jsonl"),
                 "--reader", f"oracle:{mini_dir / 'oracle.json'}",
                 "--out", str(run_path), "--traces", str(trace_path), *flags]) == 0
    echoes = [line for line in capsys.readouterr().err.splitlines()
              if line.startswith("config: ")]
    assert len(echoes) == 1
    return echoes[0], run_path.read_bytes(), trace_path.read_bytes()


def _settings(echo):
    return dict(item.split("=", 1) for item in echo[len("config: "):].split(" "))


def test_flags_are_the_only_configuration(tmp_path, mini_dir, monkeypatch, capsys):
    plain = _echoed_run(tmp_path, mini_dir, capsys, "plain")
    settings = _settings(plain[0])
    assert {f.name: settings[f.name] for f in dataclasses.fields(Config)} == \
        {f.name: str(f.default) for f in dataclasses.fields(Config)}

    coref = _echoed_run(tmp_path, mini_dir, capsys, "coref", "--mode", "coref_only")
    assert _settings(coref[0]) == {**settings, "mode": "coref_only"}

    # the environment is not a configuration source
    monkeypatch.setenv("ZEQR_MODE", "coref_only")
    assert _echoed_run(tmp_path, mini_dir, capsys, "env") == plain


def test_importing_the_cli_leaves_scipy_unloaded():
    # every zeqr command pays for what `import zeqr.cli` loads; the HTTP
    # client is loaded by the first remote call only
    src = str(Path(zeqr.__file__).resolve().parents[1])
    probe = subprocess.run(
        [sys.executable, "-c", "import sys, zeqr.cli; print(sorted(m for m in "
         "('scipy', 'requests', 'http.client') if m in sys.modules))"],
        capture_output=True, text=True, timeout=60, env={"PYTHONPATH": src}, check=True)
    assert probe.stdout.strip() == "[]"


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


# ---- run ----

def _run_mode(tmp_path, mini_dir, mode, name, reader=None, extra=()):
    run_path = tmp_path / f"{name}.trec"
    trace_path = tmp_path / f"{name}.jsonl"
    code = main([
        "run",
        "--topics", str(mini_dir / "topics.json"),
        "--collection", str(mini_dir / "collection.jsonl"),
        "--reader", reader or f"oracle:{mini_dir / 'oracle.json'}",
        "--mode", mode,
        "--idf-threshold", "1.5",
        "--out", str(run_path),
        "--traces", str(trace_path),
        *extra,
    ])
    assert code == 0
    return run_path, trace_path


def test_cmd_run_produces_run_and_traces(tmp_path, mini_dir):
    run_path, trace_path = _run_mode(tmp_path, mini_dir, "full", "full")
    results = read_run(run_path)
    assert {r.query_id for r in results} == \
        {f"{s}_{t}" for s in ("79", "80") for t in (1, 2, 3, 4)}
    traces = [json.loads(line) for line in trace_path.read_text().splitlines()]
    assert len(traces) == 8
    t79_4 = next(t for t in traces if t["query_id"] == "79_4")
    assert t79_4["q_double_star"] == BIOPSY_Q4_RESOLVED


def test_cmd_run_passthrough_is_raw_search(tmp_path, mini_dir, mini_sessions, mini_index):
    run_path, _ = _run_mode(tmp_path, mini_dir, "passthrough", "passthrough")
    results = {r.query_id: r for r in read_run(run_path)}
    config = Config(idf_threshold=1.5, mode="passthrough")
    for session in mini_sessions:
        for turn in session.turns:
            direct = bm25_search(mini_index, turn.raw_query, 100, config)
            assert results[f"{session.session_id}_{turn.turn_id}"].ranked == direct.ranked


def test_cmd_run_coref_only_matches_full_q_star(tmp_path, mini_dir):
    _, full_traces = _run_mode(tmp_path, mini_dir, "full", "full2")
    _, coref_traces = _run_mode(tmp_path, mini_dir, "coref_only", "coref")
    full = {json.loads(l)["query_id"]: json.loads(l)
            for l in full_traces.read_text().splitlines()}
    coref = {json.loads(l)["query_id"]: json.loads(l)
             for l in coref_traces.read_text().splitlines()}
    assert full["79_4"]["q_star"] == coref["79_4"]["q_star"] == BIOPSY_Q4_STAR
    for qid in full:
        assert full[qid]["q_star"] == coref[qid]["q_star"]


def test_cmd_run_partial_failure_is_logged_not_fatal(tmp_path, mini_dir):
    # a fixture answer that is not in the context makes turn 79_4 fail;
    # the other turns still run and the command succeeds
    broken = tmp_path / "broken_oracle.json"
    broken.write_text(json.dumps({
        'What is that refer to, in "Wow, that is better than I thought.  '
        'What are common treatments?"': "never occurs in any passage",
    }))
    run_path = tmp_path / "partial.trec"
    code = main([
        "run",
        "--topics", str(mini_dir / "topics.json"),
        "--collection", str(mini_dir / "collection.jsonl"),
        "--reader", f"oracle:{broken}",
        "--mode", "full", "--idf-threshold", "1.5",
        "--out", str(run_path),
    ])
    assert code == 0
    query_ids = {r.query_id for r in read_run(run_path)}
    assert "79_4" not in query_ids
    assert len(query_ids) == 7


def test_cmd_run_question_without_context_room_runs_every_turn(tmp_path, mini_dir, capsys):
    # at an 8-token reader budget most questions leave no room for context:
    # those steps are skipped, and no turn fails
    _, trace_path = _run_mode(tmp_path, mini_dir, "full", "tight",
                              extra=("--reader-max-tokens", "8"))
    assert "ran 8/8 turns" in capsys.readouterr().out
    steps = [step for line in trace_path.read_text(encoding="utf-8").splitlines()
             for key in ("coref_steps", "omission_steps") for step in json.loads(line)[key]]
    assert steps and all(step["answer"] is None and not step["applied"] for step in steps)


def test_cmd_run_local_reader_without_transformers(tmp_path, mini_dir, monkeypatch, capsys):
    monkeypatch.setitem(sys.modules, "transformers", None)
    assert main(["run", "--topics", str(mini_dir / "topics.json"),
                 "--collection", str(mini_dir / "collection.jsonl"),
                 "--reader", "local:x", "--out", str(tmp_path / "r.trec")]) == 2
    errors = [line for line in capsys.readouterr().err.splitlines()
              if line.startswith("error:")]
    assert len(errors) == 1 and "'local-reader' extra" in errors[0]


def test_cmd_run_is_byte_deterministic(tmp_path, mini_dir, extract_service):
    first, first_traces = _run_mode(tmp_path, mini_dir, "full", "det1")
    second, second_traces = _run_mode(tmp_path, mini_dir, "full", "det2")
    assert first.read_bytes() == second.read_bytes()
    assert first_traces.read_bytes() == second_traces.read_bytes()
    # the same answers from a remote reader whose concurrent calls finish in
    # scrambled order change no byte
    extract_service.delay = lambda question: (zlib.crc32(question.encode()) % 30) / 1000
    remote, remote_traces = _run_mode(tmp_path, mini_dir, "full", "det3",
                                      reader=f"remote:{extract_service.url}")
    assert remote.read_bytes() == first.read_bytes()
    assert remote_traces.read_bytes() == first_traces.read_bytes()
    assert extract_service.answered != extract_service.questions


def test_cmd_run_failed_question_fails_only_its_turn(tmp_path, mini_dir, extract_service):
    clean, clean_traces = _run_mode(tmp_path, mini_dir, "full", "clean")
    respond = extract_service.respond
    extract_service.respond = lambda question, context: (
        (500, {"error": "boom"}) if question == BIOPSY_COREF_QUESTION
        else respond(question, context))
    run, traces = _run_mode(tmp_path, mini_dir, "full", "one_500",
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


def test_cmd_run_reads_idf_off_the_index(tmp_path, mini_dir):
    index_dir = tmp_path / "idx"
    assert main(["index", "--collection", str(mini_dir / "collection.jsonl"),
                 "--out", str(index_dir)]) == 0
    outputs = [_run_mode(tmp_path, mini_dir, "full", "built")]
    outputs.append(_run_mode(tmp_path, mini_dir, "full", "with_tsv",
                             extra=["--index", str(index_dir)]))
    (index_dir / "idf.tsv").unlink()
    outputs.append(_run_mode(tmp_path, mini_dir, "full", "without_tsv",
                             extra=["--index", str(index_dir)]))
    run_bytes = {run.read_bytes() for run, _ in outputs}
    trace_bytes = {traces.read_bytes() for _, traces in outputs}
    assert len(run_bytes) == 1 and len(trace_bytes) == 1


@pytest.mark.parametrize("with_index", [False, True])
def test_cmd_run_honours_idf_cache(tmp_path, mini_dir, with_index, capsys):
    index_args = []
    if with_index:
        index_args = ["--index", str(tmp_path / "idx")]
        assert main(["index", "--collection", str(mini_dir / "collection.jsonl"),
                     "--out", index_args[1]]) == 0
    # one document: every term, seen or not, has an idf of at most ln(2),
    # below the 1.5 threshold, so no omission question is asked
    flat = tmp_path / "flat_idf.tsv"
    flat.write_text("#docs=1\n")
    _, traces = _run_mode(tmp_path, mini_dir, "full", "flat",
                          extra=[*index_args, "--idf-cache", str(flat)])
    records = {json.loads(line)["query_id"]: json.loads(line)
               for line in traces.read_text().splitlines()}
    assert records["79_4"]["q_double_star"] == BIOPSY_Q4_STAR
    assert all(not record["omission_steps"] for record in records.values())

    missing = tmp_path / "no_such_idf.tsv"
    capsys.readouterr()
    code = main(["run", "--topics", str(mini_dir / "topics.json"),
                 "--collection", str(mini_dir / "collection.jsonl"),
                 "--reader", f"oracle:{mini_dir / 'oracle.json'}",
                 "--out", str(tmp_path / "missing.trec"),
                 *index_args, "--idf-cache", str(missing)])
    assert code == 2
    assert "no_such_idf.tsv" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["run", "repl"])
def test_missing_reader_is_reported_before_loading(tmp_path, mini_dir, command,
                                                   monkeypatch, capsys):
    def never(*args, **kwargs):
        raise AssertionError("inputs loaded before the usage check")

    for module, name in (("ingest", "load_collection"), ("ingest", "load_topics"),
                         ("retrieval", "load_index"), ("retrieval", "build_index")):
        monkeypatch.setattr(f"zeqr.{module}.{name}", never)
    args = [command, "--index", str(tmp_path / "missing_index"),
            "--collection", str(mini_dir / "collection.jsonl")]
    if command == "run":
        args += ["--topics", str(mini_dir / "topics.json"), "--out", str(tmp_path / "r.trec")]
    assert main(args) == 2
    errors = [line for line in capsys.readouterr().err.splitlines()
              if line.startswith("error:")]
    assert len(errors) == 1 and f"{command} needs --reader" in errors[0]


# ---- collection loading, one message for every command ----

@pytest.mark.parametrize("command", ["index", "run", "repl", "census"])
def test_unreadable_collection_is_a_usage_error(tmp_path, mini_dir, command, capsys):
    topics = str(mini_dir / "topics.json")

    def args(collection):
        return {
            "index": ["index", "--collection", collection, "--out", str(tmp_path / "idx")],
            "run": ["run", "--collection", collection, "--topics", topics,
                    "--reader", "echo", "--out", str(tmp_path / "r.trec")],
            "repl": ["repl", "--collection", collection, "--reader", "echo"],
            "census": ["census", "--collection", collection, "--topics", topics],
        }[command]

    missing = str(tmp_path / "nope.jsonl")
    capsys.readouterr()
    assert main(args(missing)) == 2
    assert f"error: collection file not found: {missing}\n" in capsys.readouterr().err

    directory = tmp_path / "a_directory"
    directory.mkdir()
    assert main(args(str(directory))) == 2
    assert f"error: [Errno 21] Is a directory: '{directory}'\n" in capsys.readouterr().err


# ---- malformed input: file:line and exit 2 ----

MALFORMED = ("empty_contents", "empty_id", "truncated_index", "index_without_terms",
             "index_meta_not_an_object", "turn_not_a_list", "idf_zero_docs",
             "idf_negative_docs", "utf16_collection", "utf16_topics", "utf16_qrels",
             "utf16_run", "utf16_idf", "utf16_inventory", "utf16_trace", "oracle_bad_json",
             "oracle_null_answer", "trace_bad_json_line", "trace_missing_keys")

TRACE_RECORD = {"query_id": "79_1", "raw_query": "q", "mode": "full", "coref_steps": [],
                "q_star": "q", "omission_steps": [], "q_double_star": "q"}


def _utf16_input(kind, tmp_path, mini_dir):
    """A command reading one UTF-16 file (bytes ff fe first) of the given kind."""
    topics, collection = str(mini_dir / "topics.json"), str(mini_dir / "collection.jsonl")
    qrels = str(mini_dir / "qrels.txt")
    text = {"collection": (mini_dir / "collection.jsonl").read_text(encoding="utf-8"),
            "topics": (mini_dir / "topics.json").read_text(encoding="utf-8"),
            "qrels": (mini_dir / "qrels.txt").read_text(encoding="utf-8"),
            "run": "79_1 Q0 b01 1 2.0 zeqr\n",
            "idf": "#docs=3\ncancer\t1.0\n",
            "inventory": "it\nthey\n",
            "trace": json.dumps(TRACE_RECORD) + "\n"}[kind]
    bad = tmp_path / f"{kind}.utf16"
    bad.write_bytes(b"\xff\xfe" + text.encode("utf-16-le"))
    good_run = tmp_path / "good.trec"
    good_run.write_text("79_1 Q0 b01 1 2.0 zeqr\n")
    return {
        "collection": ["index", "--collection", str(bad), "--out", str(tmp_path / "idx")],
        "topics": ["census", "--topics", str(bad), "--collection", collection],
        "qrels": ["eval", "--run", str(good_run), "--qrels", str(bad)],
        "run": ["eval", "--run", str(bad), "--qrels", qrels],
        "idf": ["census", "--topics", topics, "--idf-cache", str(bad)],
        "inventory": ["census", "--topics", topics, "--collection", collection,
                      "--inventory", str(bad)],
        "trace": ["trace", "--file", str(bad)],
    }[kind], f"{bad}:1: "


def _malformed_input(case, tmp_path, mini_dir, mini_index):
    """A command reading one malformed file, and the error prefix naming it."""
    topics, collection = str(mini_dir / "topics.json"), str(mini_dir / "collection.jsonl")
    if case.startswith("utf16_"):
        return _utf16_input(case[len("utf16_"):], tmp_path, mini_dir)
    if case in ("oracle_bad_json", "oracle_null_answer"):
        bad = tmp_path / "oracle.json"
        prefix = f"{bad}: "
        if case == "oracle_bad_json":
            bad.write_text("{bad")
        else:
            answers = json.loads((mini_dir / "oracle.json").read_text(encoding="utf-8"))
            question = next(iter(answers))
            answers[question] = None
            bad.write_text(json.dumps(answers))
            prefix += f"answer to {question!r}"
        return ["run", "--topics", topics, "--collection", collection,
                "--reader", f"oracle:{bad}", "--out", str(tmp_path / "r.trec")], prefix
    if case in ("trace_bad_json_line", "trace_missing_keys"):
        bad = tmp_path / "traces.jsonl"
        lines = [json.dumps(TRACE_RECORD), "{bad"] if case == "trace_bad_json_line" else \
            [json.dumps({"query_id": "x"})]
        bad.write_text("\n".join(lines) + "\n")
        return ["trace", "--file", str(bad)], f"{bad}:{len(lines)}: "
    if case in ("empty_contents", "empty_id"):
        bad = tmp_path / "collection.jsonl"
        second = {"id": "d2", "contents": ""} if case == "empty_contents" else \
            {"id": "", "contents": "z"}
        bad.write_text(json.dumps({"id": "d1", "contents": "x y"}) + "\n"
                       + json.dumps(second) + "\n")
        return ["index", "--collection", str(bad), "--out", str(tmp_path / "idx")], f"{bad}:2: "
    if case in ("truncated_index", "index_without_terms", "index_meta_not_an_object"):
        bad = tmp_path / "index.npz"
        save_index(mini_index, bad)
        if case == "truncated_index":
            data = bad.read_bytes()
            bad.write_bytes(data[:len(data) // 2])
        else:
            with np.load(bad) as data:
                arrays = dict(data)
            if case == "index_without_terms":
                del arrays["terms"]
            else:
                arrays["meta"] = np.array(json.dumps([2]))
            np.savez(bad, **arrays)
        return ["run", "--index", str(bad), "--topics", topics, "--reader", "echo",
                "--out", str(tmp_path / "r.trec")], f"{bad}: "
    if case == "turn_not_a_list":
        bad = tmp_path / "topics.json"
        bad.write_text(json.dumps([{"number": "1", "turn": 5}]))
        return ["census", "--topics", str(bad), "--collection", collection], f"{bad}: "
    bad = tmp_path / "idf.tsv"
    header = "#docs=0" if case == "idf_zero_docs" else "#docs=-3"
    bad.write_text(f"{header}\ncancer\t1.0\n")
    return ["census", "--topics", topics, "--idf-cache", str(bad)], f"{bad}:1: "


@pytest.mark.parametrize("case", MALFORMED)
def test_malformed_input_is_a_usage_error(tmp_path, mini_dir, mini_index, case, capsys):
    argv, prefix = _malformed_input(case, tmp_path, mini_dir, mini_index)
    capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err
    errors = [line for line in err.splitlines() if line.startswith("error:")]
    assert len(errors) == 1 and errors[0].startswith(f"error: {prefix}")
    assert "Traceback" not in err


# ---- eval ----

def test_cmd_eval_single_run(tmp_path, mini_dir, capsys):
    run_path, _ = _run_mode(tmp_path, mini_dir, "full", "eval1")
    capsys.readouterr()
    code = main(["eval", "--run", str(run_path), "--qrels", str(mini_dir / "qrels.txt")])
    assert code == 0
    out = capsys.readouterr().out
    assert "query_id\tndcg@5\tp@5\tr@100\tap" in out
    assert "\nall\t" in out


def test_cmd_eval_two_runs_significance(tmp_path, mini_dir, capsys):
    run_a, _ = _run_mode(tmp_path, mini_dir, "full", "sig_a")
    run_b, _ = _run_mode(tmp_path, mini_dir, "passthrough", "sig_b")
    capsys.readouterr()
    code = main(["eval", "--run", str(run_a), "--run", str(run_b),
                 "--qrels", str(mini_dir / "qrels.txt")])
    assert code == 0
    out = capsys.readouterr().out
    assert "paired t-test" in out
    assert "significant(p<0.05)" in out
    assert out.count("# run:") == 2


def test_cmd_eval_unjudged_only_reports_na(tmp_path, mini_dir, capsys):
    run_path = tmp_path / "unjudged.trec"
    run_path.write_text("q_unknown Q0 b01 1 2.0 zeqr\n")
    capsys.readouterr()
    code = main(["eval", "--run", str(run_path), "--qrels", str(mini_dir / "qrels.txt")])
    assert code == 0
    assert "all\tn/a\tn/a\tn/a\tn/a" in capsys.readouterr().out


def test_cmd_eval_bad_run_file(tmp_path, mini_dir, capsys):
    bad = tmp_path / "bad.trec"
    bad.write_text("only three fields\n")
    code = main(["eval", "--run", str(bad), "--qrels", str(mini_dir / "qrels.txt")])
    assert code == 2


# ---- census ----

def test_cmd_census(mini_dir, capsys):
    code = main(["census", "--topics", str(mini_dir / "topics.json"),
                 "--collection", str(mini_dir / "collection.jsonl"),
                 "--idf-threshold", "1.5"])
    assert code == 0
    out = capsys.readouterr().out
    assert "coreference\t3" in out
    assert "omission\t7" in out


# ---- trace ----

def test_cmd_trace_pretty_prints(tmp_path, mini_dir, capsys):
    _, trace_path = _run_mode(tmp_path, mini_dir, "full", "viewer")
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


# ---- repl ----

def _feed_repl(monkeypatch, lines):
    iterator = iter(lines)
    monkeypatch.setattr("builtins.input", lambda: next(iterator))


def test_repl_biopsy_session(mini_dir, monkeypatch, capsys):
    _feed_repl(monkeypatch, [
        "I just had a breast biopsy for cancer. What are the most common types?",
        "Once it breaks out, how likely is it to spread?",
        "How deadly is Lobular Carcinoma in Situ?",
        "Wow, that is better than I thought.  What are common treatments?",
        ":quit",
    ])
    code = main(["repl",
                 "--collection", str(mini_dir / "collection.jsonl"),
                 "--reader", f"oracle:{mini_dir / 'oracle.json'}",
                 "--idf-threshold", "1.5", "-k", "3"])
    assert code == 0
    out = capsys.readouterr().out
    assert f"q**: {BIOPSY_Q4_RESOLVED}" in out


def test_repl_reset_clears_context(mini_dir, monkeypatch, capsys):
    _feed_repl(monkeypatch, [
        "What is the population of Salt Lake City?",
        ":reset",
        "What is its main economic activity?",
        ":quit",
    ])
    code = main(["repl",
                 "--collection", str(mini_dir / "collection.jsonl"),
                 "--reader", f"oracle:{mini_dir / 'oracle.json'}",
                 "--idf-threshold", "1.5", "-k", "3"])
    assert code == 0
    out = capsys.readouterr().out
    # after :reset the turn has no context, so the pronoun stays unresolved
    assert "q**: What is its main economic activity?" in out


def test_repl_first_turn_identity(mini_dir, monkeypatch, capsys):
    _feed_repl(monkeypatch, ["What is the population of Salt Lake City?", ":quit"])
    code = main(["repl",
                 "--collection", str(mini_dir / "collection.jsonl"),
                 "--reader", f"oracle:{mini_dir / 'oracle.json'}",
                 "--idf-threshold", "1.5", "-k", "3"])
    assert code == 0
    assert "q**: What is the population of Salt Lake City?" in capsys.readouterr().out


def test_repl_trace_meta_command(mini_dir, monkeypatch, capsys):
    _feed_repl(monkeypatch, [
        ":trace",
        "What is the population of Salt Lake City?",
        ":trace",
        ":quit",
    ])
    code = main(["repl",
                 "--collection", str(mini_dir / "collection.jsonl"),
                 "--reader", f"oracle:{mini_dir / 'oracle.json'}",
                 "--idf-threshold", "1.5", "-k", "3"])
    assert code == 0
    out = capsys.readouterr().out
    assert "(no trace yet)" in out
    assert '"q_double_star": "What is the population of Salt Lake City?"' in out


# ---- external retriever through the CLI ----

def test_cmd_run_external_endpoint(tmp_path, mini_dir, mini_index):
    import json as json_module
    import threading
    from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

    config = Config(idf_threshold=1.5)

    class Handler(BaseHTTPRequestHandler):
        def do_POST(self):
            body = json_module.loads(self.rfile.read(int(self.headers["Content-Length"])))
            result = bm25_search(mini_index, body["query"], body["k"], config)
            data = json_module.dumps(
                {"hits": [{"doc_id": d, "score": s} for d, s in result.ranked]}
            ).encode()
            self.send_response(200)
            self.send_header("Content-Length", str(len(data)))
            self.end_headers()
            self.wfile.write(data)

        def log_message(self, *args):
            pass

    server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
    threading.Thread(target=server.serve_forever, daemon=True).start()
    try:
        run_path = tmp_path / "ext.trec"
        code = main([
            "run",
            "--topics", str(mini_dir / "topics.json"),
            "--collection", str(mini_dir / "collection.jsonl"),
            "--reader", f"oracle:{mini_dir / 'oracle.json'}",
            "--endpoint", f"http://127.0.0.1:{server.server_port}",
            "--mode", "full", "--idf-threshold", "1.5",
            "--out", str(run_path),
        ])
        assert code == 0
        results = {r.query_id: r for r in read_run(run_path)}
        assert results["79_4"].ranked[0][0] == "b04"
    finally:
        server.shutdown()


@pytest.mark.parametrize("command, flags, url", [
    ("run", ["--reader", "remote:localhost:8000"], "localhost:8000"),
    ("repl", ["--reader", "remote:ftp://host/extract"], "ftp://host/extract"),
    ("run", ["--reader", "echo", "--endpoint", "127.0.0.1:9000"], "127.0.0.1:9000"),
])
def test_a_bad_endpoint_url_fails_before_any_input_is_loaded(tmp_path, capsys, command,
                                                             flags, url):
    # no input file exists, so loading any of them first would fail naming it
    args = [command, "--collection", str(tmp_path / "absent.jsonl"), *flags]
    if command == "run":
        args += ["--topics", str(tmp_path / "absent.json"), "--out", str(tmp_path / "run.trec")]
    assert main(args) == 2
    errors = [line for line in capsys.readouterr().err.splitlines()
              if line.startswith("error: ")]
    assert len(errors) == 1
    assert errors[0].startswith(f"error: endpoint {url!r} is not an http:// or https:// URL")


# ---- linguistic configuration seams ----

def test_cmd_census_custom_inventory(tmp_path, mini_dir, capsys):
    inventory = tmp_path / "inv.txt"
    inventory.write_text("it\n")  # drop "that", "its" from the inventory
    code = main(["census", "--topics", str(mini_dir / "topics.json"),
                 "--collection", str(mini_dir / "collection.jsonl"),
                 "--idf-threshold", "1.5", "--inventory", str(inventory)])
    assert code == 0
    assert "coreference\t1" in capsys.readouterr().out
