"""Span recording around zeqr's public functions, from outside the package.

A Tracer replaces module attributes that the CLI calls with wrappers that
record one span per call: name, start, end, parent span and turn id. Spans
stay in memory and are written once, when the traced process ends. Nothing
here is imported by zeqr; the untraced benchmark runs never load it.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import threading
import time
from pathlib import Path

# (module, attribute, span name). Attributes are the names the CLI and the
# reformulator look up at call time, so patching them reaches every call.
# A missing attribute (a layer deleted from the package) is skipped, and
# its metrics then read zero.
TARGETS = (
    ("zeqr.ingest", "load_collection", "ingest.load_collection"),
    ("zeqr.ingest", "build_idf_table", "ingest.build_idf_table"),
    ("zeqr.ingest", "save_idf_table", "ingest.save_idf_table"),
    ("zeqr.ingest", "load_idf_table", "ingest.load_idf_table"),
    ("zeqr.ingest", "load_topics", "ingest.load_topics"),
    ("zeqr.ingest", "load_qrels", "ingest.load_qrels"),
    ("zeqr.cli", "context_for_turn", "datamodel.context_for_turn"),
    ("zeqr.reformulator", "reformulate", "reformulator.reformulate"),
    ("zeqr.reformulator", "tokenize_and_tag", "linguistics.tokenize_and_tag"),
    ("zeqr.reformulator", "detect_pronouns", "linguistics.detect_pronouns"),
    ("zeqr.reformulator", "find_omission_candidates", "linguistics.find_omission_candidates"),
    ("zeqr.reformulator", "build_reader_input", "reader.build_input"),
    ("zeqr.reader", "OracleReader.extract_span", "reader.extract_span"),
    ("zeqr.reader", "EchoReader.extract_span", "reader.extract_span"),
    ("zeqr.reader", "RemoteReader.extract_span", "reader.extract_span"),
    ("zeqr.reader", "GenerativeReader.extract_span", "reader.extract_span"),
    ("zeqr.reader", "TransformersReader.extract_span", "reader.extract_span"),
    ("zeqr.retrieval", "build_index", "retrieval.build_index"),
    ("zeqr.retrieval", "save_index", "retrieval.save_index"),
    ("zeqr.retrieval", "load_index", "retrieval.load_index"),
    ("zeqr.retrieval", "bm25_search", "retrieval.bm25_search"),
    ("zeqr.retrieval", "write_run", "retrieval.write_run"),
    ("zeqr.retrieval", "read_run", "retrieval.read_run"),
    ("zeqr.retrieval", "bm25_accumulate", "kernels.bm25_accumulate"),
    ("zeqr.evaluation", "evaluate_run", "evaluation.evaluate_run"),
    # The REPL blocks here between turns; recording it keeps the wait out
    # of the command's self time.
    ("builtins", "input", "cli.stdin_wait"),
)

# Spans that only hold the tracer's own bookkeeping; they are subtracted
# from their parent's self time and reported nowhere else.
BOOKKEEPING = "tracer.bookkeeping"


def _step_counts(args, kwargs, trace) -> dict:
    coref = getattr(trace, "coref_steps", ())
    omission = getattr(trace, "omission_steps", ())
    return {"coref_steps": len(coref), "omission_steps": len(omission),
            "applied_steps": sum(1 for s in (*coref, *omission) if s.applied)}


def _postings(args, kwargs, result) -> dict:
    index, query = args[0], args[1]
    return {"postings": sum(index.document_frequency(t)
                            for t in index.analyzer.terms(query))}


def _judgments(args, kwargs, report) -> dict:
    qrels = args[1] if len(args) > 1 else kwargs.get("qrels")
    return {"queries": getattr(report, "num_queries", 0),
            "judgments": len(getattr(qrels, "judgments", ()))}


# Counts read at the layer boundary from arguments and return values.
EXTRAS = {
    "reformulator.reformulate": _step_counts,
    "retrieval.bm25_search": _postings,
    "evaluation.evaluate_run": _judgments,
}


class Tracer:
    """Collects spans in memory; one instance per traced process."""

    def __init__(self):
        self.spans: list[dict] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._turns = itertools.count(1)
        self._undo: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn):
        extra = EXTRAS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            span_id = next(self._ids)
            parent = stack[-1] if stack else None
            if name == "datamodel.context_for_turn":
                # A new turn starts where the CLI assembles its context:
                # context_for_turn(session, turn_id, config).
                session, turn_id = args[0], args[1]
                self._local.turn = f"{session.session_id}_{turn_id}#{next(self._turns)}"
            turn = getattr(self._local, "turn", None)
            stack.append(span_id)
            error = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                span = {"id": span_id, "name": name, "start": start, "end": end,
                        "parent": parent, "turn": turn}
                if error:
                    span["error"] = error
                self.spans.append(span)
            if extra is not None:
                span.update(extra(args, kwargs, result))
                self.spans.append({"id": next(self._ids), "name": BOOKKEEPING,
                                   "start": end, "end": time.perf_counter(),
                                   "parent": parent, "turn": turn})
            return result

        return traced

    def root(self, name: str, fn, *args):
        """Call fn as the root span of this process."""
        return self.wrap(name, fn)(*args)

    def install(self) -> None:
        for module_name, attr, name in TARGETS:
            try:
                owner = importlib.import_module(module_name)
            except ImportError:
                continue
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            if owner is None or not hasattr(owner, leaf):
                continue
            original = getattr(owner, leaf)
            self._undo.append((owner, leaf, original))
            setattr(owner, leaf, self.wrap(name, original))

    def uninstall(self) -> None:
        for owner, leaf, original in reversed(self._undo):
            setattr(owner, leaf, original)
        self._undo.clear()

    def dump(self, path: Path, **facts) -> None:
        path.write_text(json.dumps({**facts, "spans": self.spans}), encoding="utf-8")
