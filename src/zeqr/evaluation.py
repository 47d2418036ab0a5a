"""Ranking metrics (NDCG@5, P@5, R@100, MAP), paired t-tests, and the
per-query ambiguity census.

Metric conventions follow trec_eval: gain is the raw relevance grade,
unjudged documents count as non-relevant, and queries without relevant
documents are dropped from the means rather than scored zero. The binary
relevance cutoff for P/R/AP is configurable (grade >= cutoff counts).
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .datamodel import Config, Session
from .ingest import IdfTable, Qrels, RunResult

METRIC_FIELDS = ("ndcg_at_5", "p_at_5", "r_at_100", "ap")


class MetricReport(NamedTuple):
    """Per-query metric values and their arithmetic means; num_unjudged
    counts the run's queries absent from the qrels, num_unretrieved the
    judged queries absent from the run."""

    per_query: dict[str, dict[str, float]]
    means: dict[str, float]
    num_queries: int
    num_unjudged: int = 0
    num_unretrieved: int = 0


class AmbiguityCensus(NamedTuple):
    """Which raw queries carry which ambiguity, with totals."""

    coreference_count: int
    omission_count: int
    per_turn: dict[tuple[str, int], dict[str, bool]]


def _discount(rank: int) -> float:
    return 1.0 / math.log2(rank + 1.0)


def _query_metrics(ranked_docs: list[str], judged: dict[str, int], cutoff: int) -> dict[str, float]:
    relevant = {d for d, g in judged.items() if g >= cutoff}

    dcg = sum(judged.get(d, 0) * _discount(rank)
              for rank, d in enumerate(ranked_docs[:5], start=1))
    ideal_gains = sorted(judged.values(), reverse=True)[:5]
    idcg = sum(g * _discount(rank) for rank, g in enumerate(ideal_gains, start=1))
    ndcg = dcg / idcg if idcg > 0 else 0.0

    p_at_5 = sum(1 for d in ranked_docs[:5] if d in relevant) / 5.0
    r_at_100 = len([d for d in ranked_docs[:100] if d in relevant]) / len(relevant)

    hits = 0
    precision_sum = 0.0
    for rank, doc in enumerate(ranked_docs, start=1):
        if doc in relevant:
            hits += 1
            precision_sum += hits / rank
    ap = precision_sum / len(relevant)

    return {"ndcg_at_5": ndcg, "p_at_5": p_at_5, "r_at_100": r_at_100, "ap": ap}


def evaluate_run(run: list[RunResult], qrels: Qrels, config: Config) -> MetricReport:
    """Score a run against qrels.

    Queries absent from the qrels are skipped and counted in num_unjudged,
    judged queries absent from the run in num_unretrieved;
    queries whose judgments contain no relevant document are dropped from
    the means, matching trec_eval.
    """
    cutoff = config.map_relevance_cutoff
    judged_query_ids = qrels.query_ids()
    per_query: dict[str, dict[str, float]] = {}
    num_unjudged = 0
    for result in run:
        if result.query_id not in judged_query_ids:
            num_unjudged += 1
            continue
        judged = qrels.judged_docs(result.query_id)
        if not any(g >= cutoff for g in judged.values()):
            continue
        ranked_docs = [doc_id for doc_id, _ in result.ranked]
        per_query[result.query_id] = _query_metrics(ranked_docs, judged, cutoff)

    if per_query:
        means = {
            name: sum(metrics[name] for metrics in per_query.values()) / len(per_query)
            for name in METRIC_FIELDS
        }
    else:
        means = {name: math.nan for name in METRIC_FIELDS}
    return MetricReport(per_query=per_query, means=means,
                        num_queries=len(per_query), num_unjudged=num_unjudged,
                        num_unretrieved=len(judged_query_ids - {r.query_id for r in run}))


class TTestResult(NamedTuple):
    t_statistic: float
    p_value: float
    degenerate: bool = False


def paired_t_test(a: list[float], b: list[float]) -> TTestResult:
    """Two-sided paired t-test on per-query differences.

    Identical samples give t=0, p=1. Zero-variance differences with a
    nonzero mean are reported as p=0 with the degenerate flag set, since
    the statistic diverges.
    """
    if len(a) != len(b):
        raise ValueError("samples must be of equal length")
    n = len(a)
    if n < 2:
        raise ValueError(f"need at least 2 paired observations, got {n}")
    # Imported here: statistics loads fractions and decimal, which only a
    # two-run `zeqr eval` needs.
    import statistics

    diff = [x - y for x, y in zip(a, b)]
    mean = statistics.fmean(diff)
    sd = statistics.stdev(diff)
    if sd == 0.0:
        if mean == 0.0:
            return TTestResult(t_statistic=0.0, p_value=1.0, degenerate=True)
        return TTestResult(t_statistic=math.copysign(math.inf, mean),
                           p_value=0.0, degenerate=True)
    t = mean / (sd / math.sqrt(n))
    return TTestResult(t_statistic=t, p_value=t_two_sided_p(t, n - 1))


def t_two_sided_p(t: float, df: int) -> float:
    """P(|T| >= |t|) for Student's t with df degrees of freedom.

    That is the regularized incomplete beta I_x(df/2, 1/2) at
    x = df / (df + t^2). Its 1 - x is passed as t^2 / (df + t^2): computed
    as a subtraction, it would lose the digits of a tiny t.
    """
    t2 = t * t
    if math.isinf(t2):
        return 0.0
    return _incomplete_beta(df / 2.0, 0.5, df / (df + t2), t2 / (df + t2))


def _incomplete_beta(a: float, b: float, x: float, y: float) -> float:
    """The regularized incomplete beta I_x(a, b), given y = 1 - x.

    Its continued fraction converges fast for x < (a + 1) / (a + b + 2);
    above that, I_x(a, b) = 1 - I_y(b, a) (Press et al., Numerical Recipes,
    section 6.4).
    """
    if x == 0.0 or y == 0.0:
        return 0.0 if x == 0.0 else 1.0
    front = math.exp(math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                     + a * math.log(x) + b * math.log(y))
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_fraction(a, b, x) / a
    return 1.0 - front * _beta_fraction(b, a, y) / b


def _beta_fraction(a: float, b: float, x: float) -> float:
    """The continued fraction of I_x(a, b), by the modified Lentz method."""
    def clamp(value: float) -> float:
        return value if abs(value) > 1e-300 else 1e-300

    c = 1.0
    d = 1.0 / clamp(1.0 - (a + b) * x / (a + 1.0))
    fraction = d
    for m in range(1, 10_000):
        for numerator in (m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m)),
                          -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1))):
            d = 1.0 / clamp(1.0 + numerator * d)
            c = clamp(1.0 + numerator / c)
            fraction *= c * d
        if abs(c * d - 1.0) <= 2.0 ** -52:
            break
    return fraction


def ambiguity_census(sessions: list[Session], idf: IdfTable, config: Config) -> AmbiguityCensus:
    """Flag each raw query for coreference/omission ambiguity and count."""
    # Imported here: only census tags queries, so `zeqr eval` loads no tagger.
    from .linguistics import detect_pronouns, find_omission_candidates, tokenize_and_tag

    per_turn: dict[tuple[str, int], dict[str, bool]] = {}
    for session in sessions:
        for turn in session.turns:
            tokens = tokenize_and_tag(turn.raw_query)
            has_coref = bool(detect_pronouns(tokens))
            has_omission = bool(
                find_omission_candidates(tokens, idf, config.idf_threshold,
                                         config.omission_strict)
            )
            per_turn[(session.session_id, turn.turn_id)] = {
                "has_coref": has_coref,
                "has_omission": has_omission,
            }
    return AmbiguityCensus(
        coreference_count=sum(1 for f in per_turn.values() if f["has_coref"]),
        omission_count=sum(1 for f in per_turn.values() if f["has_omission"]),
        per_turn=per_turn,
    )


def format_metric_table(report: MetricReport) -> str:
    """Render the TSV table: one row per query plus the `all` means row."""
    lines = ["query_id\tndcg@5\tp@5\tr@100\tap"]
    for query_id in sorted(report.per_query):
        metrics = report.per_query[query_id]
        lines.append(query_id + "\t" + "\t".join(
            f"{metrics[name]:.4f}" for name in METRIC_FIELDS))
    if report.num_queries:
        means = "\t".join(f"{report.means[name]:.4f}" for name in METRIC_FIELDS)
    else:
        means = "\t".join("n/a" for _ in METRIC_FIELDS)
    lines.append(f"all\t{means}")
    return "\n".join(lines)


def format_census(census: AmbiguityCensus) -> str:
    """Render the per-turn census TSV plus the totals rows."""
    lines = ["session_id\tturn_id\thas_coref\thas_omission"]
    for (session_id, turn_id) in sorted(census.per_turn):
        flags = census.per_turn[(session_id, turn_id)]
        lines.append(f"{session_id}\t{turn_id}\t"
                     f"{int(flags['has_coref'])}\t{int(flags['has_omission'])}")
    lines.append(f"coreference\t{census.coreference_count}")
    lines.append(f"omission\t{census.omission_count}")
    return "\n".join(lines)
