"""Command-line entry point.

Subcommands: index (build index + IDF cache), run (rewrite and search
every turn), eval (metrics and significance), census (ambiguity counts),
trace (inspect trace files), repl (interactive session). run and repl
rewrite and search a turn through one function; the REPL takes its
context from the previous turn's top hit and has no --endpoint yet.

Flags are the only configuration, and each command takes only the flags
of the settings it reads, census aside: run and repl take the six
pipeline flags, eval --map-relevance-cutoff, index none. census takes
four and reads two (--idf-threshold and --omission-lenient): the
benchmark in perfbench/ passes it --bm25-k1 and --bm25-b too. Each
starts from the Config defaults, overlays the flags given and echoes the
result to stderr, so every invocation is auditable.
Exit codes: 0 success, 1 when every turn of a run failed, 2 usage or
format error.

The parser alone decides whether a flag was given: an input a command
cannot run without is `required=True`, so leaving it out fails in argparse
(its usage line, then `zeqr CMD: error: ...`, exit 2) before the echo, and
an optional flag is compared with None, never tested for truth, so an
empty value is a value and fails as one. An empty path, which Path("")
would read as the working directory, fails in `main` naming its flag.

Commands raise; `main` alone turns a ZeqrError, OSError, ValueError or
ImportError into one `error: ...` line on stderr and exit 2. Only a
failed turn is caught inside a command, so it fails alone. Every input
is read through its checked reader in `ingest` (trace files through
`read_traces`), so a command indexes the records it gets.

Each command has one way in: index alone reads a collection, run and repl
load the index (--index) and take IDF from it alone, and census reads the
IDF cache (--idf-cache). Each
imports only the modules it calls: `retrieval`, and numpy with it, through
`_retrieval` with one BLAS thread; census loads no array library, and eval
and trace no module of the rewrite pipeline either.
"""

from __future__ import annotations

import argparse
import contextlib
import errno
import json
import os
import shlex
import sys
from pathlib import Path
from typing import TYPE_CHECKING

from . import evaluation, ingest
from .datamodel import MODES, Config, Session, Turn, context_for_turn
from .errors import ZeqrError

if TYPE_CHECKING:
    from types import ModuleType

    from .retrieval import InvertedIndex

# Flags other than the Config fields that shape the output: the inputs, the
# external retriever, the ranking depth and the run tag. The echo lists them.
_ECHOED_FLAGS = ("collection", "topics", "qrels", "idf_cache", "index", "reader", "endpoint",
                 "k", "tag")
# Flags that name a path, each of which `main` rejects when empty.
_PATH_FLAGS = ("collection", "out", "topics", "index", "traces", "run", "qrels", "idf_cache",
               "file")


def _config(args: argparse.Namespace) -> Config:
    """The Config defaults overlaid with the flags given, echoed to stderr.

    Only the fields the command's parser defines a flag for are overlaid
    and echoed; the others keep their defaults and go unechoed, as the
    command never reads them. The echo also names every other flag given
    that shapes the output, so one line says which settings and inputs
    produced it.
    """
    defaults = {name: default for name, default in Config._field_defaults.items()
                if hasattr(args, name)}
    settings = defaults | {key: value for key in (*defaults, *_ECHOED_FLAGS)
                           if (value := getattr(args, key, None)) is not None}
    print("config: " + " ".join(f"{k}={shlex.quote(str(settings[k]))}"
                                for k in sorted(settings)), file=sys.stderr)
    return Config(**{key: settings[key] for key in defaults})


def _retrieval() -> ModuleType:
    """The `zeqr.retrieval` module, its numpy loaded with one BLAS thread.

    OpenBLAS starts a pool of worker threads when it loads, sized by
    OPENBLAS_NUM_THREADS, which it reads then and never again. zeqr makes no
    BLAS call (bincount, partition, argsort and unique are not BLAS), so the
    pool only costs launch time and CPU. The variable is set for numpy's
    load alone, unless the user set it: the process environment is restored
    at once, so a library loaded later (a `local:` reader's torch) sees the
    user's own.
    """
    name = "OPENBLAS_NUM_THREADS"
    user_set = name in os.environ
    os.environ.setdefault(name, "1")
    try:
        from . import retrieval
    finally:
        if not user_set:
            del os.environ[name]
    return retrieval


def _index_paths(out_dir: str | Path) -> tuple[Path, Path]:
    out = Path(out_dir)
    return out / "index.npz", out / "idf.tsv"


@contextlib.contextmanager
def _staged(*targets: str | Path | None):
    """Yield the path to write each target through (None for None).

    A target that is missing or a regular file (after following symlinks)
    is staged: a temporary file is created beside it before the block runs,
    so a target in a missing or unwritable directory, or a file named by two
    targets, fails before any work is done, and the temporary files are
    moved onto their targets only after the block has written them all; a
    failed block leaves no file behind.
    Any other existing target, such as a device or a FIFO, is written
    through directly, as moving a file onto it would replace it.
    """
    staged: list[tuple[Path, Path]] = []
    writes: list[Path | None] = []
    try:
        for i, target in enumerate(targets):
            write = None
            if target is not None:
                path = Path(target)
                if path.is_dir():
                    raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(target))
                # Checked before resolving: /dev/stdout on a pipe resolves
                # to a name that does not exist.
                if path.exists() and not path.is_file():
                    if not os.access(path, os.W_OK):
                        raise PermissionError(errno.EACCES, os.strerror(errno.EACCES),
                                              str(target))
                    write = path
                else:
                    path = path.resolve()
                    if any(path == staged_path for _, staged_path in staged):
                        raise ValueError(f"{target} is named as two outputs")
                    write = path.with_name(f".{path.name}.{os.getpid()}.{i}.tmp")
                    try:
                        write.touch()
                    except OSError as exc:
                        raise OSError(exc.errno, exc.strerror, str(target)) from None
                    staged.append((write, path))
            writes.append(write)
        yield writes
        for temp, path in staged:
            os.replace(temp, path)
    finally:
        for temp, _ in staged:
            temp.unlink(missing_ok=True)


def cmd_index(args: argparse.Namespace) -> int:
    retrieval = _retrieval()

    _config(args)
    out = Path(args.out)
    made = [path for path in (out, *out.parents) if not path.exists()]
    out.mkdir(parents=True, exist_ok=True)
    try:
        # Staged before the collection is read, so that a bad --out fails at
        # once, and so that a REPL still mapping the old index keeps its file.
        with _staged(*_index_paths(out)) as (index_path, idf_path):
            index = retrieval.build_index(ingest.load_collection(args.collection))
            retrieval.save_index(index, index_path, ingest.file_sha256(args.collection))
            ingest.save_idf_table(index.idf_table(), idf_path)
    finally:
        # The directories made here, innermost first, if a failure left them empty.
        for path in made:
            with contextlib.suppress(OSError):
                path.rmdir()
    print(f"indexed {index.num_docs} documents, {index.num_terms} terms")
    return 0


def _load_index(args: argparse.Namespace) -> InvertedIndex:
    """The index of run and repl: --index, a directory or its index.npz file.

    The collection is never parsed: passages come from the index. A
    --collection given too must be the file the index was built from (its
    sha256 is compared with the recorded one).
    """
    index_file = Path(args.index)
    if index_file.is_dir():
        index_file = _index_paths(index_file)[0]
    index = _retrieval().load_index(index_file)
    if args.collection is not None:
        if index.collection_sha256 is None:
            raise ValueError(f"{index_file} records no collection hash to check "
                             f"{args.collection} against; rebuild the index or drop "
                             "--collection")
        if ingest.file_sha256(args.collection) != index.collection_sha256:
            raise ValueError(f"{args.collection} is not the collection {index_file} was "
                             "built from; rebuild the index or drop --collection")
    return index


def _report(level: str, module: str, message: str) -> None:
    """Write one `LEVEL zeqr.MODULE: message` line to stderr in a single
    write, so that lines from pool threads never interleave."""
    sys.stderr.write(f"{level} zeqr.{module}: {message}\n")


def _turn_pipeline(args: argparse.Namespace, config: Config):
    """The setup `run` and `repl` share: the index, the reader and the one
    function that rewrites a turn of its session and searches the rewrite,
    returning (trace, run result). A failed question or search raises; a
    depth below one raises before any module or input is loaded."""
    if args.k < 1:
        raise ValueError(f"k must be >= 1, got {args.k}")
    from . import reformulator
    from .reader import make_reader

    retrieval = _retrieval()

    endpoint = getattr(args, "endpoint", None)
    tag = getattr(args, "tag", "zeqr")
    reader = make_reader(args.reader)
    index = _load_index(args)
    if endpoint is None:
        # Computed once here, so a (k1, b) whose scores overflow fails
        # before any question, and no pool thread computes them again.
        index.impacts(config.bm25_k1, config.bm25_b)
    idf = index.idf_table()

    def rewrite_and_search(session: Session, turn: Turn):
        query_id = f"{session.session_id}_{turn.turn_id}"
        context = context_for_turn(session, turn.turn_id, config)
        trace = reformulator.reformulate(turn, context, idf, reader, config)
        if endpoint is not None:
            result = retrieval.external_search(endpoint, trace.q_double_star, args.k,
                                               query_id=query_id, tag=tag)
        else:
            result = retrieval.bm25_search(index, trace.q_double_star, args.k, config,
                                           query_id=query_id, tag=tag)
        return trace, result

    return index, reader, rewrite_and_search


def cmd_run(args: argparse.Namespace) -> int:
    from .reader import MAX_IN_FLIGHT, RemoteReader
    from .transport import check_endpoint

    config = _config(args)
    if not ingest.writable_doc_id(args.tag):
        raise ValueError(f"tag {args.tag!r} is not one a run file can carry")
    # endpoints are checked before any input is loaded, so a bad URL
    # fails at once rather than at the first question or search
    if args.endpoint is not None:
        if args.bm25_k1 is not None or args.bm25_b is not None:
            raise ValueError("--bm25-k1 and --bm25-b tune zeqr's own BM25, which "
                             "--endpoint replaces; drop them")
        check_endpoint(args.endpoint)
    with _staged(args.out, args.traces) as (run_path, traces_path):
        index, reader, rewrite_and_search = _turn_pipeline(args, config)
        sessions = ingest.load_topics(args.topics, index.passages)

        def run_turn(item: tuple[Session, Turn]) -> tuple[ingest.RunResult, str] | None:
            """Its run result and trace line, or None once its error is reported."""
            session, turn = item
            try:
                trace, result = rewrite_and_search(session, turn)
            except ZeqrError as exc:
                _report("ERROR", "cli", f"turn {session.session_id}_{turn.turn_id} failed: {exc}")
                return None
            record = {"query_id": result.query_id, **trace.to_dict()}
            return result, json.dumps(record, ensure_ascii=False)

        # Turns of a batch run are independent: a turn's context comes from
        # the topics file, never from an earlier rewrite. When a reader call
        # or a search leaves the process (a remote reader or --endpoint), up
        # to MAX_IN_FLIGHT turns are rewritten and searched at once, each
        # making one blocking request at a time; map keeps the input order.
        # A run that stays in process runs the turns in this thread: with
        # the oracle reader on perfbench's seed-7 batch-large-corpus inputs,
        # a pool made the run slower in 19 of 20 alternating pairs (README).
        turns = [(session, turn) for session in sessions for turn in session.turns]
        if isinstance(reader, RemoteReader) or args.endpoint is not None:
            from concurrent.futures import ThreadPoolExecutor

            with ThreadPoolExecutor(max_workers=MAX_IN_FLIGHT) as pool:
                outcomes = list(pool.map(run_turn, turns))
        else:
            outcomes = list(map(run_turn, turns))
        done = [outcome for outcome in outcomes if outcome is not None]

        ingest.write_run([result for result, _ in done], run_path)
        if traces_path:
            traces_path.write_text("".join(line + "\n" for _, line in done), encoding="utf-8")
    print(f"ran {len(done)}/{len(outcomes)} turns -> {args.out}")
    return 1 if outcomes and not done else 0


def cmd_eval(args: argparse.Namespace) -> int:
    config = _config(args)
    qrels = ingest.load_qrels(args.qrels)
    runs = [ingest.read_run(path) for path in args.run]

    reports = [evaluation.evaluate_run(run, qrels, config) for run in runs]
    for report in reports:
        if report.num_unjudged:
            _report("WARNING", "evaluation", f"{report.num_unjudged} run queries had no "
                    "qrels entries and were skipped")
        if report.num_unretrieved:
            _report("WARNING", "evaluation", f"{report.num_unretrieved} judged queries have "
                    "no run entry")
    for path, report in zip(args.run, reports):
        print(f"# run: {path}")
        print(evaluation.format_metric_table(report))

    if len(reports) == 2:
        first, second = reports
        common = sorted(set(first.per_query) & set(second.per_query))
        print(f"# paired t-test over {len(common)} shared queries "
              f"({args.run[0]} vs {args.run[1]})")
        print("metric\tt\tp\tsignificant(p<0.05)")
        for name in evaluation.METRIC_FIELDS:
            if len(common) < 2:
                print(f"{name}\tn/a\tn/a\tn/a")
                continue
            test = evaluation.paired_t_test(
                [first.per_query[q][name] for q in common],
                [second.per_query[q][name] for q in common],
            )
            marker = "*" if test.p_value < 0.05 else ""
            print(f"{name}\t{test.t_statistic:.4f}\t{test.p_value:.4f}\t{marker}")
    return 0


def cmd_census(args: argparse.Namespace) -> int:
    config = _config(args)
    idf = ingest.load_idf_table(args.idf_cache)
    sessions = ingest.load_topics(args.topics)
    census = evaluation.ambiguity_census(sessions, idf, config)
    print(evaluation.format_census(census))
    return 0


def _answer_text(step: dict) -> str:
    """How a step's answer prints, in `trace` and the REPL alike: its text,
    or (no answer) for a question never asked or a blank answer."""
    answer = step["answer"]
    return answer["text"] if answer and answer["text"].strip() else "(no answer)"


def _format_step(step: dict) -> str:
    mark = "applied" if step["applied"] else "skipped"
    return f"    Q: {step['question']}\n    A: {_answer_text(step)} [{mark}]"


def _format_record(record: dict) -> list[str]:
    lines = [f"{record['query_id']}: {record['raw_query']}  [{record['mode']}]"]
    for step in record["coref_steps"]:
        lines += [f"  coref {step['pronoun']['surface']!r}:", _format_step(step)]
    lines.append(f"  q*  : {record['q_star']}")
    for step in record["omission_steps"]:
        lines += [f"  omission {step['candidate']['surface']!r} ({step['preposition']}):",
                  _format_step(step)]
    lines.append(f"  q** : {record['q_double_star']}")
    return lines


def cmd_trace(args: argparse.Namespace) -> int:
    # Every record is checked before anything is printed.
    records = ingest.read_traces(args.file)
    if args.query_id is not None:
        records = [record for record in records if record["query_id"] == args.query_id]
        if not records:
            raise ValueError(f"{args.file}: no trace record has query id {args.query_id!r}")
    for record in records:
        print("\n".join(_format_record(record)))
    return 0


def cmd_repl(args: argparse.Namespace) -> int:
    config = _config(args)
    index, _, rewrite_and_search = _turn_pipeline(args, config)

    # A failed turn joins no session and sets no trace record.
    session: Session | None = None
    record: dict | None = None
    print("type a query, or :reset / :trace / :quit", file=sys.stderr)
    while True:
        try:
            print("> ", end="", file=sys.stderr, flush=True)
            line = input().strip()
        except EOFError:
            return 0
        if not line:
            continue
        if line == ":quit":
            return 0
        if line == ":reset":
            session, record = None, None
            print("session reset", file=sys.stderr)
            continue
        if line == ":trace":
            print(json.dumps(record, ensure_ascii=False, indent=2) if record
                  else "(no trace yet)")
            continue

        earlier = session.turns if session else ()
        turn = Turn(turn_id=len(earlier) + 1, raw_query=line)
        try:
            trace, result = rewrite_and_search(Session("repl", (*earlier, turn)), turn)
            canonical = index.passages[result.ranked[0][0]] if result.ranked else None
        except ZeqrError as exc:
            print(f"error: {exc}", file=sys.stderr)
            continue
        record = trace.to_dict()
        for step in (*record["coref_steps"], *record["omission_steps"]):
            status = "->" if step["applied"] else "x "
            item = (f"coref  {status} {step['pronoun']['surface']!r}" if "pronoun" in step else
                    f"omis   {status} {step['candidate']['surface']!r} {step['preposition']}")
            print(f"{item}: {_answer_text(step)}")
        print(f"q**: {record['q_double_star']}")
        for rank, (doc_id, score) in enumerate(result.ranked, start=1):
            print(f"{rank}. {doc_id} {score:.4f}")
        session = Session("repl", (*earlier, turn._replace(canonical_answer=canonical)))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zeqr",
        description="Conversational query reformulation, retrieval and evaluation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_census_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("--idf-threshold", dest="idf_threshold", type=float)
        p.add_argument("--bm25-k1", dest="bm25_k1", type=float)
        p.add_argument("--bm25-b", dest="bm25_b", type=float)
        p.add_argument("--omission-lenient", dest="omission_strict",
                       action="store_const", const=False,
                       help="only the template preposition blocks a candidate")

    def add_pipeline_flags(p: argparse.ArgumentParser) -> None:
        add_census_flags(p)
        p.add_argument("--reader-max-tokens", dest="reader_max_tokens", type=int)
        p.add_argument("--mode", choices=MODES)

    def add_index_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("--index", required=True,
                       help="index directory or its index.npz file; build one with zeqr index")
        p.add_argument("--collection",
                       help="collection JSONL, only checked to be the one the index "
                            "was built from")

    p_index = sub.add_parser("index", help="build the inverted index and IDF cache")
    p_index.add_argument("--collection", required=True)
    p_index.add_argument("--out", required=True, help="output directory")
    p_index.set_defaults(func=cmd_index)

    p_run = sub.add_parser("run", help="reformulate every turn and retrieve")
    p_run.add_argument("--topics", required=True)
    add_index_flags(p_run)
    p_run.add_argument("--reader", required=True,
                       help="echo | oracle:file.json | remote:url | local:path")
    p_run.add_argument("--endpoint", help="external retriever base URL")
    p_run.add_argument("--out", required=True, help="TREC run file to write")
    p_run.add_argument("--traces", help="JSONL trace file to write")
    p_run.add_argument("-k", type=int, default=100, help="ranking depth")
    p_run.add_argument("--tag", default="zeqr")
    add_pipeline_flags(p_run)
    p_run.set_defaults(func=cmd_run)

    p_eval = sub.add_parser("eval", help="score runs against qrels")
    p_eval.add_argument("--run", action="append", required=True,
                        help="run file; repeat for a significance comparison")
    p_eval.add_argument("--qrels", required=True)
    p_eval.add_argument("--map-relevance-cutoff", dest="map_relevance_cutoff", type=int)
    p_eval.set_defaults(func=cmd_eval)

    p_census = sub.add_parser("census", help="count ambiguities per raw query")
    p_census.add_argument("--topics", required=True)
    p_census.add_argument("--idf-cache", dest="idf_cache", required=True,
                          help="IDF table file, the idf.tsv zeqr index writes")
    add_census_flags(p_census)
    p_census.set_defaults(func=cmd_census)

    p_trace = sub.add_parser("trace", help="inspect a trace file")
    p_trace.add_argument("--file", required=True)
    p_trace.add_argument("--query-id", dest="query_id")
    p_trace.set_defaults(func=cmd_trace)

    p_repl = sub.add_parser("repl", help="interactive conversational session")
    add_index_flags(p_repl)
    p_repl.add_argument("--reader", required=True)
    p_repl.add_argument("-k", type=int, default=5)
    add_pipeline_flags(p_repl)
    p_repl.set_defaults(func=cmd_repl)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        for name in _PATH_FLAGS:
            value = getattr(args, name, None)
            if "" in (value if isinstance(value, list) else [value]):
                raise ValueError(f"--{name.replace('_', '-')} is empty; name a path")
        return args.func(args)
    except (ZeqrError, OSError, ValueError, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
