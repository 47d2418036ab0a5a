"""Correctness gate: the benchmark's own reference implementations.

Every measured run must pass it; any failure raises GateError, and the
benchmark then exits non-zero without printing metrics. The references
follow the conventions zeqr documents, written independently of it:

- BM25 as in the ``zeqr.retrieval`` docstring: Robertson idf with +1
  smoothing, each query-term occurrence contributes once, only documents
  holding a query term are ranked, ties go to the lower doc id;
- metrics under trec_eval conventions: gain is the grade, unjudged
  documents are non-relevant, relevant means grade >= 1, and queries with
  no relevant judgment or absent from the qrels are left out of the means.
"""

from __future__ import annotations

import json
import math
import random
import re
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

_TERM_RE = re.compile(r"[a-z0-9]+")
TIE_TOLERANCE = 1e-9  # relative, for scores and for ties between docs
EVAL_DIGITS_TOLERANCE = 5e-5 + 1e-12  # zeqr eval prints four decimals
REPL_SCORE_TOLERANCE = 5e-5 + 1e-12  # the REPL prints four decimals
RANKING_SAMPLE = 12


class GateError(Exception):
    """The program's output disagrees with the reference."""


def terms(text: str) -> list[str]:
    return _TERM_RE.findall(text.lower())


class BruteForceBM25:
    """Scores every document of the collection for each query."""

    def __init__(self, collection: Path, k1: float, b: float):
        self.doc_ids: list[str] = []
        self.counts: list[Counter] = []
        lengths: list[int] = []
        with collection.open(encoding="utf-8") as fh:
            for line in fh:
                doc = json.loads(line)
                words = terms(doc["contents"])
                self.doc_ids.append(doc["id"])
                self.counts.append(Counter(words))
                lengths.append(len(words))
        self.df: Counter = Counter()
        for counts in self.counts:
            self.df.update(counts.keys())
        avg = float(sum(lengths)) / len(lengths)
        self.norms = [k1 * (1.0 - b + b * n / avg) for n in lengths]
        self.k1 = k1

    def rank(self, query: str) -> list[tuple[str, float]]:
        n = len(self.doc_ids)
        query_terms = [t for t in terms(query) if self.df[t]]
        idf = {t: math.log(1.0 + (n - self.df[t] + 0.5) / (self.df[t] + 0.5))
               for t in query_terms}
        scored = []
        for doc_id, counts, norm in zip(self.doc_ids, self.counts, self.norms):
            score, hit = 0.0, False
            for t in query_terms:
                tf = counts.get(t)
                if tf:
                    hit = True
                    score += idf[t] * tf * (self.k1 + 1.0) / (tf + norm)
            if hit:
                scored.append((doc_id, score))
        scored.sort(key=lambda pair: (-pair[1], pair[0]))
        return scored


def _close(a: float, b: float, absolute: float = 0.0) -> bool:
    return abs(a - b) <= TIE_TOLERANCE * max(1.0, abs(b)) + absolute


def check_ranking(query_id: str, got: list[tuple[str, float]],
                  reference: list[tuple[str, float]], k: int,
                  score_tolerance: float = 0.0) -> None:
    """got must be the reference's top k; docs may swap only within ties."""
    expected = reference[:k]
    if len(got) != len(expected):
        raise GateError(f"{query_id}: {len(got)} docs ranked, reference has {len(expected)}")
    reference_score = dict(reference)
    for rank, ((doc, score), (ref_doc, ref_score)) in enumerate(zip(got, expected), 1):
        if not _close(score, ref_score, score_tolerance):
            raise GateError(f"{query_id} rank {rank}: score {score!r}, reference {ref_score!r}")
        if doc != ref_doc and not _close(reference_score.get(doc, -math.inf), ref_score):
            raise GateError(f"{query_id} rank {rank}: {doc}, reference {ref_doc}")


def sample_ids(ids, seed: int) -> list[str]:
    ids = sorted(ids)
    return random.Random(seed).sample(ids, min(RANKING_SAMPLE, len(ids)))


def read_run(path: Path) -> dict[str, list[tuple[str, float]]]:
    run: dict[str, list[tuple[str, float]]] = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        fields = line.split()
        if len(fields) != 6:
            raise GateError(f"{path}: malformed run line {line!r}")
        run.setdefault(fields[0], []).append((fields[2], float(fields[4])))
    return run


def read_qrels(path: Path) -> dict[str, dict[str, int]]:
    qrels: dict[str, dict[str, int]] = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        if line.strip():
            query_id, _, doc_id, grade = line.split()
            qrels.setdefault(query_id, {})[doc_id] = int(grade)
    return qrels


def trec_means(run: dict[str, list[tuple[str, float]]],
               qrels: dict[str, dict[str, int]]) -> dict[str, float]:
    """Mean NDCG@5, P@5, R@100 and AP over the run's judged queries."""
    rows = []
    for query_id, ranked in run.items():
        judged = qrels.get(query_id)
        relevant = {d for d, g in (judged or {}).items() if g >= 1}
        if not relevant:
            continue
        docs = [d for d, _ in ranked]
        dcg = sum(judged.get(d, 0) / math.log2(r + 1) for r, d in enumerate(docs[:5], 1))
        ideal = sorted(judged.values(), reverse=True)[:5]
        idcg = sum(g / math.log2(r + 1) for r, g in enumerate(ideal, 1))
        hits, precision_sum = 0, 0.0
        for r, d in enumerate(docs, 1):
            if d in relevant:
                hits += 1
                precision_sum += hits / r
        rows.append((dcg / idcg if idcg > 0 else 0.0,
                     sum(d in relevant for d in docs[:5]) / 5.0,
                     sum(d in relevant for d in docs[:100]) / len(relevant),
                     precision_sum / len(relevant)))
    if not rows:
        raise GateError("no judged query in the run")
    names = ("ndcg_at_5", "p_at_5", "r_at_100", "ap")
    return {name: sum(row[i] for row in rows) / len(rows) for i, name in enumerate(names)}


def check_eval(eval_stdout: str, run: dict, qrels: dict) -> float:
    """Compare `zeqr eval`'s means row with the reference; return NDCG@5."""
    rows = [line.split("\t") for line in eval_stdout.splitlines() if line.startswith("all\t")]
    if len(rows) != 1:
        raise GateError("zeqr eval printed no single 'all' row")
    reference = trec_means(run, qrels)
    for (name, value), printed in zip(reference.items(), rows[0][1:]):
        if not abs(float(printed) - value) <= EVAL_DIGITS_TOLERANCE:
            raise GateError(f"eval {name}: printed {printed}, reference {value:.6f}")
    return reference["ndcg_at_5"]


def check_applied_answers(query_id: str, q_double_star: str, answers: list[str]) -> None:
    for answer in answers:
        if answer.strip() not in q_double_star:
            raise GateError(f"{query_id}: applied answer {answer!r} not in q** {q_double_star!r}")


def read_traces(path: Path) -> dict[str, str]:
    """Check every applied step of a trace file; return q** per query."""
    q2: dict[str, str] = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        record = json.loads(line)
        steps = record["coref_steps"] + record["omission_steps"]
        check_applied_answers(record["query_id"], record["q_double_star"],
                              [s["answer"]["text"] for s in steps if s["applied"]])
        q2[record["query_id"]] = record["q_double_star"]
    return q2


@dataclass
class BatchOutput:
    """What one `zeqr run` plus `zeqr eval` left behind."""

    run_path: Path
    traces_path: Path
    eval_stdout: str
    failed: int


def check_batch(out: BatchOutput, expected_ids: set[str], qrels: dict,
                reference: BruteForceBM25, k: int, seed: int) -> float:
    """Gate one batch cycle; return the reference NDCG@5."""
    run = read_run(out.run_path)
    q2 = read_traces(out.traces_path)
    if set(run) != set(q2):
        raise GateError("run file and trace file cover different turns")
    if not set(run) <= expected_ids:
        raise GateError(f"unknown query ids in run: {sorted(set(run) - expected_ids)[:3]}")
    missing = expected_ids - set(run)
    if len(missing) != out.failed:
        raise GateError(f"{len(missing)} turns missing from the run, {out.failed} failed")
    for query_id in sample_ids(run, seed):
        check_ranking(query_id, run[query_id], reference.rank(q2[query_id]), k)
    return check_eval(out.eval_stdout, run, qrels)


_STEP_RE = re.compile(r"^(coref|omis) +(->|x ) .*?: (.*)$")
_RANK_RE = re.compile(r"^(\d+)\. (\S+) (\S+)$")


@dataclass
class ReplTurn:
    query_id: str
    q_double_star: str | None = None
    ranked: list = field(default_factory=list)
    applied: list = field(default_factory=list)
    error: str | None = None


def parse_repl_turn(query_id: str, text: str) -> ReplTurn:
    """Parse what the REPL printed for one query line, prompt excluded."""
    turn = ReplTurn(query_id)
    for line in text.splitlines():
        if line.startswith("q**: "):
            if turn.q_double_star is not None:
                raise GateError(f"{query_id}: two q** lines")
            turn.q_double_star = line[len("q**: "):]
        elif line.startswith("error: "):
            turn.error = line
        elif (step := _STEP_RE.match(line)) is not None:
            if step.group(2) == "->":
                turn.applied.append(step.group(3))
        elif (hit := _RANK_RE.match(line)) is not None:
            turn.ranked.append((hit.group(2), float(hit.group(3))))
    return turn


def check_repl(turns: list[ReplTurn], reference: BruteForceBM25, k: int, seed: int) -> None:
    """Every non-failed turn printed q**; sampled rankings match the reference."""
    for turn in turns:
        if turn.error is None and turn.q_double_star is None:
            raise GateError(f"{turn.query_id}: the REPL printed no q** line")
        if turn.q_double_star is not None:
            check_applied_answers(turn.query_id, turn.q_double_star, turn.applied)
    by_id = {t.query_id: t for t in turns if t.error is None}
    for query_id in sample_ids(by_id, seed):
        turn = by_id[query_id]
        check_ranking(query_id, turn.ranked, reference.rank(turn.q_double_star), k,
                      score_tolerance=REPL_SCORE_TOLERANCE)
