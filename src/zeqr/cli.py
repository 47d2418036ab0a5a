"""Command-line entry point.

Subcommands: index (build index + IDF cache), run (batch reformulate +
retrieve), eval (metrics and significance), census (ambiguity counts),
trace (inspect trace files), repl (interactive session).

Flags are the only configuration: each command starts from the Config
defaults, overlays the flags given and echoes the result to stderr, so
every invocation is auditable. Exit codes: 0 success, 1 partial failure,
2 usage or format error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import sys
from pathlib import Path

from . import evaluation, ingest, reformulator, retrieval
from .datamodel import MODES, Config, Session, Turn, context_for_turn
from .errors import ParseError, ZeqrError
from .linguistics import load_pronoun_inventory
from .reader import make_reader
from .transport import check_endpoint

logger = logging.getLogger(__name__)

# Flags that name an input rather than a Config field; the echo lists them.
_INPUT_FLAGS = ("collection", "topics", "qrels", "idf_cache", "index", "reader", "inventory")


def _config(args: argparse.Namespace) -> Config:
    """The Config defaults overlaid with the flags given, echoed to stderr.

    The echo also names every input flag given, so one line says which
    settings and inputs produced the output.
    """
    defaults = {f.name: f.default for f in dataclasses.fields(Config)}
    settings = defaults | {key: value for key in (*defaults, *_INPUT_FLAGS)
                           if (value := getattr(args, key, None)) is not None}
    print("config: " + " ".join(f"{k}={settings[k]}" for k in sorted(settings)),
          file=sys.stderr)
    return Config(**{key: settings[key] for key in defaults})


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def _index_paths(out_dir: str | Path) -> tuple[Path, Path]:
    out = Path(out_dir)
    return out / "index.npz", out / "idf.tsv"


def _load_collection(path: str | Path) -> list[ingest.Document]:
    """Load --collection; every command reports a missing file the same way."""
    if not Path(path).exists():
        raise FileNotFoundError(f"collection file not found: {path}")
    return ingest.load_collection(path)


def cmd_index(args: argparse.Namespace) -> int:
    _config(args)
    if not args.collection:
        return _fail("index needs --collection")
    try:
        index = retrieval.build_index(_load_collection(args.collection))
    except (ZeqrError, OSError, ValueError) as exc:
        return _fail(str(exc))
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    index_path, idf_path = _index_paths(out)
    retrieval.save_index(index, index_path)
    ingest.save_idf_table(index.idf_table(), idf_path)
    print(f"indexed {index.num_docs} documents, {index.num_terms} terms")
    return 0


def _load_index_and_idf(args: argparse.Namespace, collection: list | None, command: str):
    """The index and IDF table for run and repl.

    The index is --index (a directory or an .npz file), or else built from
    the already loaded collection. The IDF table is --idf-cache when given,
    or else read off the index's document frequencies.
    """
    if args.index:
        index_file = Path(args.index)
        if index_file.is_dir():
            index_file = _index_paths(index_file)[0]
        index = retrieval.load_index(index_file)
    elif collection is not None:
        index = retrieval.build_index(collection)
    else:
        raise FileNotFoundError(f"{command} needs --index or --collection")
    if args.idf_cache:
        return index, ingest.load_idf_table(args.idf_cache)
    return index, index.idf_table()


def _load_run_inputs(args: argparse.Namespace):
    collection = _load_collection(args.collection) if args.collection else None
    index, idf = _load_index_and_idf(args, collection, "run")

    if not args.topics:
        raise FileNotFoundError("run needs --topics")
    sessions = ingest.load_topics(args.topics, collection)
    unresolved = sum(
        1 for s in sessions for t in s.turns
        if t.canonical_answer_id is not None and t.canonical_answer is None
    )
    if unresolved:
        logger.warning(
            "%d turns reference canonical passage ids but no --collection was "
            "given to resolve them; contexts will lack passages", unresolved)
    return index, idf, sessions


def cmd_run(args: argparse.Namespace) -> int:
    config = _config(args)
    if not args.reader:
        return _fail("run needs --reader (echo, oracle:file.json, remote:url, local:path)")
    try:
        # endpoints are checked before any input is loaded, so a bad URL
        # fails at once rather than at the first question or search
        if args.endpoint:
            check_endpoint(args.endpoint)
        reader = make_reader(args.reader)
        index, idf, sessions = _load_run_inputs(args)
        inventory = load_pronoun_inventory(args.inventory) if args.inventory else None
    except (ZeqrError, OSError, ValueError, ImportError) as exc:
        return _fail(str(exc))

    # Turns of a batch run are independent: a turn's context comes from the
    # topics file, never from an earlier rewrite, so all of them are
    # reformulated together and the reader sees each stage as one batch.
    turns = [(session, turn) for session in sessions for turn in session.turns]
    contexts = [context_for_turn(session, turn.turn_id, config) for session, turn in turns]
    traces = reformulator.reformulate_turns([turn for _, turn in turns], contexts, idf,
                                            reader, config, inventory=inventory)
    results: list[retrieval.RunResult] = []
    trace_lines: list[str] = []
    failures = 0
    for (session, turn), trace in zip(turns, traces):
        query_id = f"{session.session_id}_{turn.turn_id}"
        try:
            if isinstance(trace, ZeqrError):
                raise trace
            if args.endpoint:
                result = retrieval.external_search(args.endpoint, trace.q_double_star,
                                                   args.k, query_id=query_id, tag=args.tag)
            else:
                result = retrieval.bm25_search(index, trace.q_double_star, args.k,
                                               config, query_id=query_id, tag=args.tag)
        except ZeqrError as exc:
            failures += 1
            logger.error("turn %s failed: %s", query_id, exc)
            continue
        results.append(result)
        record = {"query_id": query_id}
        record.update(trace.to_dict())
        trace_lines.append(json.dumps(record, ensure_ascii=False))

    retrieval.write_run(results, args.out)
    if args.traces:
        Path(args.traces).write_text("\n".join(trace_lines) + ("\n" if trace_lines else ""),
                                     encoding="utf-8")
    attempted = len(turns)
    print(f"ran {attempted - failures}/{attempted} turns -> {args.out}")
    return 1 if attempted and failures == attempted else 0


def cmd_eval(args: argparse.Namespace) -> int:
    config = _config(args)
    if not args.qrels:
        return _fail("eval needs --qrels")
    try:
        qrels = ingest.load_qrels(args.qrels)
        runs = [retrieval.read_run(path) for path in args.run]
    except (ZeqrError, OSError, ValueError) as exc:
        return _fail(str(exc))

    reports = [evaluation.evaluate_run(run, qrels, config) for run in runs]
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
    if not args.topics:
        return _fail("census needs --topics")
    try:
        if args.idf_cache:
            idf = ingest.load_idf_table(args.idf_cache)
        elif args.collection:
            idf = ingest.build_idf_table(_load_collection(args.collection))
        else:
            return _fail("census needs --idf-cache or --collection")
        sessions = ingest.load_topics(args.topics)
        inventory = load_pronoun_inventory(args.inventory) if args.inventory else None
    except (ZeqrError, OSError, ValueError) as exc:
        return _fail(str(exc))
    census = evaluation.ambiguity_census(sessions, idf, config, inventory=inventory)
    print(evaluation.format_census(census))
    return 0


def _format_step(step: dict) -> str:
    answer = step.get("answer")
    answer_text = answer["text"] if answer else "(no answer)"
    mark = "applied" if step["applied"] else "skipped"
    return f"    Q: {step['question']}\n    A: {answer_text} [{mark}]"


def _format_record(record: dict) -> list[str]:
    lines = [f"{record.get('query_id', '?')}: {record['raw_query']}  [{record['mode']}]"]
    for step in record["coref_steps"]:
        lines += [f"  coref {step['pronoun']['surface']!r}:", _format_step(step)]
    lines.append(f"  q*  : {record['q_star']}")
    for step in record["omission_steps"]:
        lines += [f"  omission {step['candidate']['surface']!r} ({step['preposition']}):",
                  _format_step(step)]
    lines.append(f"  q** : {record['q_double_star']}")
    return lines


def cmd_trace(args: argparse.Namespace) -> int:
    path = Path(args.file)
    if not path.exists():
        return _fail(f"trace file not found: {path}")
    # Every record is checked before anything is printed.
    lines: list[str] = []
    try:
        for lineno, line in ingest.read_lines(path):
            record = ingest.parse_json(line, path, lineno)
            try:
                formatted = _format_record(record)
            except (AttributeError, KeyError, TypeError) as exc:
                raise ParseError(f"not a trace record ({type(exc).__name__}: {exc})",
                                 path=str(path), line=lineno) from None
            if not args.query_id or record.get("query_id") == args.query_id:
                lines += formatted
    except (ZeqrError, OSError) as exc:
        return _fail(str(exc))
    for line in lines:
        print(line)
    return 0


def cmd_repl(args: argparse.Namespace) -> int:
    config = _config(args)
    if not args.collection:
        return _fail("repl needs --collection (for passage bodies)")
    if not args.reader:
        return _fail("repl needs --reader")
    try:
        reader = make_reader(args.reader)
        collection = _load_collection(args.collection)
        bodies = {doc.doc_id: doc.body for doc in collection}
        index, idf = _load_index_and_idf(args, collection, "repl")
        inventory = load_pronoun_inventory(args.inventory) if args.inventory else None
    except (ZeqrError, OSError, ValueError, ImportError) as exc:
        return _fail(str(exc))

    turns: list[Turn] = []
    last_trace: reformulator.ReformulationTrace | None = None
    print("type a query, or :reset / :trace / :quit", file=sys.stderr)
    while True:
        try:
            print("> ", end="", file=sys.stderr, flush=True)
            line = input()
        except EOFError:
            return 0
        line = line.strip()
        if not line:
            continue
        if line == ":quit":
            return 0
        if line == ":reset":
            turns = []
            last_trace = None
            print("session reset", file=sys.stderr)
            continue
        if line == ":trace":
            print(json.dumps(last_trace.to_dict(), ensure_ascii=False, indent=2)
                  if last_trace else "(no trace yet)")
            continue

        turn = Turn(turn_id=len(turns) + 1, raw_query=line)
        session = Session(session_id="repl", turns=tuple(turns) + (turn,))
        try:
            context = context_for_turn(session, turn.turn_id, config)
            trace = reformulator.reformulate(turn, context, idf, reader, config,
                                             inventory=inventory)
            result = retrieval.bm25_search(index, trace.q_double_star, args.k, config,
                                           query_id=f"repl_{turn.turn_id}")
        except ZeqrError as exc:
            print(f"error: {exc}", file=sys.stderr)
            continue
        last_trace = trace
        for step in trace.coref_steps:
            status = "->" if step.applied else "x "
            answer = step.answer.text if step.answer else "(no answer)"
            print(f"coref  {status} {step.pronoun.surface!r}: {answer}")
        for step in trace.omission_steps:
            status = "->" if step.applied else "x "
            answer = step.answer.text if step.answer else "(no answer)"
            print(f"omis   {status} {step.candidate.surface!r} {step.preposition}: {answer}")
        print(f"q**: {trace.q_double_star}")
        for rank, (doc_id, score) in enumerate(result.ranked, start=1):
            print(f"{rank}. {doc_id} {score:.4f}")

        canonical = bodies[result.ranked[0][0]] if result.ranked else None
        turns.append(Turn(turn_id=turn.turn_id, raw_query=line,
                          canonical_answer=canonical))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zeqr",
        description="Conversational query reformulation, retrieval and evaluation.",
    )
    parser.add_argument("--verbose", action="store_true", help="debug logging")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_config_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("--idf-threshold", dest="idf_threshold", type=float)
        p.add_argument("--bm25-k1", dest="bm25_k1", type=float)
        p.add_argument("--bm25-b", dest="bm25_b", type=float)
        p.add_argument("--reader-max-tokens", dest="reader_max_tokens", type=int)
        p.add_argument("--min-answer-score", dest="min_answer_score", type=float)
        p.add_argument("--mode", choices=MODES)
        p.add_argument("--map-relevance-cutoff", dest="map_relevance_cutoff", type=int)
        p.add_argument("--omission-lenient", dest="omission_strict",
                       action="store_const", const=False,
                       help="only the template preposition blocks a candidate")
        p.add_argument("--inventory", help="pronoun inventory file, one word per line")

    p_index = sub.add_parser("index", help="build the inverted index and IDF cache")
    p_index.add_argument("--collection")
    p_index.add_argument("--out", required=True, help="output directory")
    add_config_flags(p_index)
    p_index.set_defaults(func=cmd_index)

    p_run = sub.add_parser("run", help="reformulate every turn and retrieve")
    p_run.add_argument("--topics")
    p_run.add_argument("--index", help="index directory or .npz file")
    p_run.add_argument("--collection",
                       help="collection JSONL; resolves canonical passage ids and, "
                            "without --index, builds the index on the fly")
    p_run.add_argument("--idf-cache", dest="idf_cache",
                       help="IDF table file; default: read off the index")
    p_run.add_argument("--reader", help="echo | oracle:file.json | remote:url | local:path")
    p_run.add_argument("--endpoint", help="external retriever base URL")
    p_run.add_argument("--out", required=True, help="TREC run file to write")
    p_run.add_argument("--traces", help="JSONL trace file to write")
    p_run.add_argument("-k", type=int, default=100, help="ranking depth")
    p_run.add_argument("--tag", default="zeqr")
    add_config_flags(p_run)
    p_run.set_defaults(func=cmd_run)

    p_eval = sub.add_parser("eval", help="score runs against qrels")
    p_eval.add_argument("--run", action="append", required=True,
                        help="run file; repeat for a significance comparison")
    p_eval.add_argument("--qrels")
    add_config_flags(p_eval)
    p_eval.set_defaults(func=cmd_eval)

    p_census = sub.add_parser("census", help="count ambiguities per raw query")
    p_census.add_argument("--topics")
    p_census.add_argument("--idf-cache", dest="idf_cache")
    p_census.add_argument("--collection")
    add_config_flags(p_census)
    p_census.set_defaults(func=cmd_census)

    p_trace = sub.add_parser("trace", help="inspect a trace file")
    p_trace.add_argument("--file", required=True)
    p_trace.add_argument("--query-id", dest="query_id")
    p_trace.set_defaults(func=cmd_trace)

    p_repl = sub.add_parser("repl", help="interactive conversational session")
    p_repl.add_argument("--collection")
    p_repl.add_argument("--index")
    p_repl.add_argument("--idf-cache", dest="idf_cache",
                        help="IDF table file; default: read off the index")
    p_repl.add_argument("--reader")
    p_repl.add_argument("-k", type=int, default=5)
    add_config_flags(p_repl)
    p_repl.set_defaults(func=cmd_repl)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
        stream=sys.stderr,
    )
    try:
        return args.func(args)
    except ValueError as exc:
        return _fail(str(exc))


if __name__ == "__main__":
    sys.exit(main())
