"""Metric definitions and the per-layer aggregation of recorded spans.

Names, units and directions of the reported metrics come from BENCHMARK.json.
That file admits no key beyond name, unit, direction and bound, so the notes
here record what each metric means: which end-to-end metric a layer metric
should move, and on which workload.
"""

from __future__ import annotations

import json
import statistics
from dataclasses import dataclass
from pathlib import Path

SPEC_PATH = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def metric_units(kind: str) -> dict[str, str]:
    """Name -> unit of BENCHMARK.json's metrics of one kind, in file order.

    kind is "end_to_end" (the last line of an untraced run) or "per_layer"
    (that of a traced run).
    """
    return {m["name"]: m["unit"] for m in json.loads(SPEC_PATH.read_text())[kind]}


# Printed in the human-readable table only: BENCHMARK.json's end-to-end
# metrics must be reported by every workload, and these are not (turn
# latency exists only in the REPL) or would be 0 (no turn fails).
TABLE_ONLY = {"turn_p50_ms": "ms", "turn_p95_ms": "ms", "failed_turn_ratio": "ratio"}

# Prefix of the per-layer metrics that report an end-to-end metric traced
# minus untraced.
OVERHEAD = "tracing.overhead."

_RUN = "run_turns_per_s on both batch workloads"
_LARGE_RUN = "run_turns_per_s on batch-large-corpus"
_REMOTE = "run_turns_per_s on batch-remote-reader, run_turns_per_s on repl-remote-reader"
_LARGE_SETUP = "setup_s on batch-large-corpus"
_SEARCH = "run_turns_per_s on batch-large-corpus, run_turns_per_s on repl-remote-reader"

NOTES = {
    "setup_s": "wall time of `zeqr index` (batch); launch to first `> ` prompt (repl)",
    "run_turns_per_s": "turns over the wall time of `zeqr run --mode full` (batch); "
                       "turns over the summed REPL turn latencies (repl)",
    "eval_s": "wall time of `zeqr eval` on the full-mode run (batch) or on the "
              "REPL session's rankings (repl)",
    "peak_rss_mb": "highest ru_maxrss of the workload's zeqr processes",
    "ndcg_at_5": "mean NDCG@5 on the workload's qrels, recomputed by the gate",
    "turn_p50_ms": "REPL: query line written to next prompt",
    "turn_p95_ms": "REPL: query line written to next prompt",
    "failed_turn_ratio": "failed turns over attempted turns",
    "cli.import_s": "setup_s on all workloads",
    "cli.index.self_s": "setup_s on both batch workloads",
    "cli.run.self_s":
        "run_turns_per_s (self time of `zeqr run`, or of `zeqr repl` less stdin waits)",
    "cli.eval.self_s": "eval_s on all workloads",
    "ingest.load_collection_s": _LARGE_SETUP,
    "ingest.build_idf_table_s": _LARGE_SETUP,
    "ingest.save_idf_table_s": _LARGE_SETUP,
    "ingest.load_idf_table_s":
        "run_turns_per_s on batch-large-corpus, setup_s on repl-remote-reader",
    "ingest.load_topics_s":
        "run_turns_per_s on batch-large-corpus (repl: topics read by the benchmark itself)",
    "ingest.load_qrels_s": "eval_s on all workloads",
    "datamodel.context_for_turn.total_s": "run_turns_per_s on batch-remote-reader",
    "linguistics.tokenize_and_tag.calls": _LARGE_RUN,
    "linguistics.tokenize_and_tag.total_s": _LARGE_RUN,
    "linguistics.detect_pronouns.total_s": _LARGE_RUN,
    "linguistics.find_omission_candidates.total_s": _LARGE_RUN,
    "reader.calls": _REMOTE,
    "reader.calls_per_turn": _REMOTE,
    "reader.round_trip_p50_ms": _REMOTE,
    "reader.round_trip_p95_ms": _REMOTE,
    "reader.total_s": _REMOTE,
    "reader.service_busy_s": "counted by the reader service (oracle: in-process extract_span time)",
    "reader.service_requests": "counted by the reader service (oracle: reader calls)",
    "reader.transport_wait_ms": "round-trip p50 less the service time; keep-alive should move it",
    "reader.connections":
        "distinct TCP connections the service accepted; equals reader.calls today",
    "reader.failures": "non-2xx responses plus raised extract_span calls",
    "reader.retries": "service requests less client calls",
    "reader.useful_ratio": "applied steps over reader calls",
    "reader.build_input.total_s": _REMOTE,
    "reformulator.reformulate.calls": _RUN,
    "reformulator.reformulate.p50_ms": _RUN,
    "reformulator.reformulate.total_s": _RUN,
    "reformulator.self_s": _RUN + " (reformulate less reader, linguistics and build_input)",
    "reformulator.coref_steps": "exact count",
    "reformulator.omission_steps": "exact count",
    "reformulator.applied_steps": "exact count",
    "retrieval.build_index_s": _LARGE_SETUP,
    "retrieval.save_index_s": _LARGE_SETUP,
    "retrieval.load_index_s":
        "run_turns_per_s on both batch workloads, setup_s on repl-remote-reader",
    "retrieval.bm25_search.calls": _SEARCH,
    "retrieval.bm25_search.p50_ms": _SEARCH,
    "retrieval.bm25_search.p95_ms": _SEARCH,
    "retrieval.bm25_search.total_s": _SEARCH,
    "retrieval.postings_per_search":
        "sum of document_frequency over the analysed query terms, per search",
    "retrieval.ns_per_posting": _SEARCH,
    "retrieval.write_run_s": "run_turns_per_s on both batch workloads",
    "retrieval.read_run_s": "eval_s on all workloads",
    "kernels.bm25_accumulate.calls":
        "share of search time in the kernel; reads 0 once the kernel is deleted",
    "kernels.bm25_accumulate.total_s":
        "share of search time in the kernel; reads 0 once the kernel is deleted",
    "evaluation.evaluate_run_s": "eval_s on batch-large-corpus",
    "evaluation.queries": "queries scored by evaluate_run",
    "evaluation.judgments": "judgments passed to evaluate_run",
}


def note(name: str) -> str:
    """What a metric means, or which end-to-end metric it should move."""
    if name.startswith(OVERHEAD):
        return f"traced minus untraced {name.removeprefix(OVERHEAD)}; the cost of the wrappers"
    return NOTES[name]


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile, q in (0, 100]."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def _self_times(spans: list[dict]) -> dict[int, float]:
    """Span duration less the union of its children's intervals."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append((span["start"], span["end"]))
    result = {}
    for span in spans:
        covered, cursor = 0.0, span["start"]
        for start, end in sorted(children.get(span["id"], ())):
            start, end = max(start, cursor), min(end, span["end"])
            if end > start:
                covered += end - start
                cursor = end
        result[span["id"]] = span["end"] - span["start"] - covered
    return result


@dataclass
class LayerTotals:
    """Per-span-name sums over one process, plus its pooled durations."""

    calls: dict
    total_s: dict
    self_s: dict
    durations: dict
    extras: dict

    @classmethod
    def of(cls, spans: list[dict]) -> "LayerTotals":
        selfs = _self_times(spans)
        totals = cls({}, {}, {}, {}, {})
        for span in spans:
            name, duration = span["name"], span["end"] - span["start"]
            totals.calls[name] = totals.calls.get(name, 0) + 1
            totals.total_s[name] = totals.total_s.get(name, 0.0) + duration
            totals.self_s[name] = totals.self_s.get(name, 0.0) + selfs[span["id"]]
            totals.durations.setdefault(name, []).append(duration)
            for key in ("coref_steps", "omission_steps", "applied_steps", "postings",
                        "queries", "judgments"):
                if key in span:
                    totals.extras[key] = totals.extras.get(key, 0) + span[key]
            if "error" in span:
                totals.extras[f"errors.{name}"] = totals.extras.get(f"errors.{name}", 0) + 1
        return totals


def per_cycle(processes: list[tuple[str, LayerTotals]]) -> dict:
    """Sum over commands of the (low) median per-process value, for every key.

    A cycle is one `zeqr index`, one turn command (`zeqr run` or a REPL
    session) and one `zeqr eval`, plus the benchmark's own in-process calls.
    """
    by_command: dict[str, list[LayerTotals]] = {}
    for command, totals in processes:
        by_command.setdefault(command, []).append(totals)
    out: dict = {"calls": {}, "total_s": {}, "self_s": {}, "extras": {}}
    for group in by_command.values():
        for kind in out:
            keys = {k for t in group for k in getattr(t, kind)}
            for key in keys:
                value = statistics.median_low(getattr(t, kind).get(key, 0) for t in group)
                out[kind][key] = out[kind].get(key, 0) + value
    out["durations"] = {}
    for _, totals in processes:
        for name, values in totals.durations.items():
            out["durations"].setdefault(name, []).extend(values)
    return out


def layer_metrics(processes: list[tuple[str, LayerTotals]], import_s: list[float],
                  service: dict | None, service_ms: float) -> dict[str, float]:
    """Compute every per-layer metric of BENCHMARK.json but the tracing overheads.

    service holds the reader service's counters for one turn command
    (median over the traced ones), or None for an in-process reader.
    """
    c = per_cycle(processes)
    calls, total, selfs, extras, durations = (c["calls"], c["total_s"], c["self_s"],
                                              c["extras"], c["durations"])
    reader = "reader.extract_span"
    search = "retrieval.bm25_search"
    reader_calls = calls.get(reader, 0)
    turns = calls.get("reformulator.reformulate", 0)
    postings = extras.get("postings", 0)
    round_trip_p50 = 1e3 * percentile(durations.get(reader, []), 50)
    if service is None:
        service = {"requests": reader_calls, "connections": 0,
                   "busy_s": total.get(reader, 0.0), "non_2xx": 0}
    m = {
        "cli.import_s": statistics.median(import_s) if import_s else 0.0,
        "cli.index.self_s": selfs.get("cli.index", 0.0),
        "cli.run.self_s": selfs.get("cli.run", 0.0) + selfs.get("cli.repl", 0.0),
        "cli.eval.self_s": selfs.get("cli.eval", 0.0),
        "reader.calls": reader_calls,
        "reader.calls_per_turn": reader_calls / turns if turns else 0.0,
        "reader.round_trip_p50_ms": round_trip_p50,
        "reader.round_trip_p95_ms": 1e3 * percentile(durations.get(reader, []), 95),
        "reader.total_s": total.get(reader, 0.0),
        "reader.service_busy_s": service["busy_s"],
        "reader.service_requests": service["requests"],
        "reader.transport_wait_ms": round_trip_p50 - service_ms,
        "reader.connections": service["connections"],
        "reader.failures": service["non_2xx"] + extras.get(f"errors.{reader}", 0),
        "reader.retries": service["requests"] - reader_calls,
        "reader.useful_ratio": extras.get("applied_steps", 0) / reader_calls
        if reader_calls else 0.0,
        "reader.build_input.total_s": total.get("reader.build_input", 0.0),
        "reformulator.reformulate.calls": turns,
        "reformulator.reformulate.p50_ms":
            1e3 * percentile(durations.get("reformulator.reformulate", []), 50),
        "reformulator.reformulate.total_s": total.get("reformulator.reformulate", 0.0),
        "reformulator.self_s": selfs.get("reformulator.reformulate", 0.0),
        "reformulator.coref_steps": extras.get("coref_steps", 0),
        "reformulator.omission_steps": extras.get("omission_steps", 0),
        "reformulator.applied_steps": extras.get("applied_steps", 0),
        "retrieval.bm25_search.calls": calls.get(search, 0),
        "retrieval.bm25_search.p50_ms": 1e3 * percentile(durations.get(search, []), 50),
        "retrieval.bm25_search.p95_ms": 1e3 * percentile(durations.get(search, []), 95),
        "retrieval.bm25_search.total_s": total.get(search, 0.0),
        "retrieval.postings_per_search": postings / calls[search] if calls.get(search) else 0.0,
        "retrieval.ns_per_posting": 1e9 * total.get(search, 0.0) / postings if postings else 0.0,
        "kernels.bm25_accumulate.calls": calls.get("kernels.bm25_accumulate", 0),
        "kernels.bm25_accumulate.total_s": total.get("kernels.bm25_accumulate", 0.0),
        "evaluation.evaluate_run_s": total.get("evaluation.evaluate_run", 0.0),
        "evaluation.queries": extras.get("queries", 0),
        "evaluation.judgments": extras.get("judgments", 0),
        "datamodel.context_for_turn.total_s": total.get("datamodel.context_for_turn", 0.0),
    }
    for name in ("load_collection", "build_idf_table", "save_idf_table", "load_idf_table",
                 "load_topics", "load_qrels"):
        m[f"ingest.{name}_s"] = total.get(f"ingest.{name}", 0.0)
    for name in ("tokenize_and_tag", "detect_pronouns", "find_omission_candidates"):
        m[f"linguistics.{name}.total_s"] = total.get(f"linguistics.{name}", 0.0)
    m["linguistics.tokenize_and_tag.calls"] = calls.get("linguistics.tokenize_and_tag", 0)
    for name in ("build_index", "save_index", "load_index", "write_run", "read_run"):
        m[f"retrieval.{name}_s"] = total.get(f"retrieval.{name}", 0.0)
    return m
