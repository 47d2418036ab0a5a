"""Self-contained BM25 indexing and search, plus the external-retriever
adapter seam and TREC run file I/O.

Every term, indexed or queried, comes from `text.normalize`, the same
function the IDF table of the omission gate is built with, so that table
follows from the index's document frequencies (`InvertedIndex.idf_table`).

The index is built in one array pass: terms become int32 ids while each
document is tokenized, and one `np.unique` over (term rank, doc) keys gives
the packed postings. It is saved as an uncompressed `.npz` with int32 term
frequencies.

Scoring uses Robertson/Lucene idf with +1 smoothing,
idf(t) = ln(1 + (N - df + 0.5) / (df + 0.5)), so contributions are never
negative. Ties are broken by doc_id ascending for reproducibility. Search
is plain numpy: postings accumulate into a dense score array, and the top
k are cut from its nonzero entries with a partition and a small sort.
"""

from __future__ import annotations

import json
import math
import zipfile
import zlib
from array import array
from dataclasses import dataclass, field
from pathlib import Path
from typing import ClassVar

import numpy as np

from .datamodel import Config
from .errors import ParseError, ProtocolError, RetrievalError, TransportError
from .ingest import Document, IdfTable, read_lines
from .text import Analyzer, normalize
from .transport import post_json

# 2: terms are `normalize` alone; version 1 could hold stemmed or
# stopword-filtered terms and is rejected on load.
INDEX_FORMAT_VERSION = 2


@dataclass
class InvertedIndex:
    """Immutable–after–build inverted index with packed postings.

    Postings for each term are stored as contiguous slices of two parallel
    arrays (doc index, term frequency), sorted by doc index. Two derived
    arrays serve search: each doc's rank in doc_id order (the tie-break)
    and, per (k1, b), the BM25 length norms.

    `analyzer.terms(text)` and `document_frequency(term)` are read by
    callers outside the package (the benchmark's tracer counts postings
    per search with them).
    """

    analyzer: ClassVar[Analyzer] = Analyzer()
    doc_ids: list[str]
    doc_lengths: np.ndarray
    avg_doc_length: float
    _vocab: dict[str, tuple[int, int]]
    _post_docs: np.ndarray
    _post_tfs: np.ndarray
    _doc_rank: np.ndarray = field(init=False, repr=False, compare=False)
    _norms: dict[tuple[float, float], np.ndarray] = field(
        default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        order = np.argsort(np.asarray(self.doc_ids))
        self._doc_rank = np.empty(len(order), dtype=np.int64)
        self._doc_rank[order] = np.arange(len(order))

    @property
    def num_docs(self) -> int:
        return len(self.doc_ids)

    @property
    def num_terms(self) -> int:
        return len(self._vocab)

    def norms(self, k1: float, b: float) -> np.ndarray:
        """k1 * (1 - b + b * |d| / avgdl) for every doc, computed once per (k1, b).

        Threads racing on a first call each compute the same array, so the
        unlocked cache stays correct.
        """
        norms = self._norms.get((k1, b))
        if norms is None:
            norms = k1 * (1.0 - b + b * self.doc_lengths / self.avg_doc_length)
            self._norms[(k1, b)] = norms
        return norms

    def document_frequency(self, term: str) -> int:
        span = self._vocab.get(term)
        return 0 if span is None else span[1] - span[0]

    def idf_table(self) -> IdfTable:
        """The omission gate's IDF table, from this index's document frequencies.

        Equal to `ingest.build_idf_table` over the indexed collection.
        """
        return IdfTable.from_document_frequencies(
            {term: end - start for term, (start, end) in self._vocab.items()}, self.num_docs)


@dataclass(frozen=True)
class RunResult:
    """One query's ranked output."""

    query_id: str
    ranked: tuple[tuple[str, float], ...]
    tag: str = "zeqr"

    def __post_init__(self):
        object.__setattr__(self, "ranked", tuple(tuple(pair) for pair in self.ranked))
        seen: set[str] = set()
        previous = math.inf
        for doc_id, score in self.ranked:
            if doc_id in seen:
                raise ValueError(f"duplicate doc_id {doc_id!r} in ranking "
                                 f"for query {self.query_id!r}")
            seen.add(doc_id)
            if score > previous:
                raise ValueError(f"scores increase at doc {doc_id!r} "
                                 f"for query {self.query_id!r}")
            previous = score


class _TermIds(dict):
    """term -> int id, handing the next id to each term not seen before."""

    def __missing__(self, term: str) -> int:
        self[term] = term_id = len(self)
        return term_id


def build_index(collection: list[Document]) -> InvertedIndex:
    """Index a collection. Doc ids must be unique.

    One pass maps each document's terms straight to int32 term ids. The
    postings then come from one `np.unique` over (term rank, doc) keys,
    with term ranks in sorted-term order, so each term's postings are one
    slice sorted by doc and its term frequency is the key's count.
    """
    if not collection:
        raise ValueError("collection is empty")
    seen: set[str] = set()
    for doc in collection:
        if doc.doc_id in seen:
            raise ValueError(f"duplicate doc_id {doc.doc_id!r} in collection")
        seen.add(doc.doc_id)

    term_ids = _TermIds()
    ids = array("i")
    lengths = array("i")
    for doc in collection:
        doc_terms = normalize(doc.body)
        lengths.append(len(doc_terms))
        ids.extend(map(term_ids.__getitem__, doc_terms))

    num_docs = len(collection)
    terms = sorted(term_ids)
    rank = np.empty(len(terms), dtype=np.int64)
    rank[[term_ids[term] for term in terms]] = np.arange(len(terms))
    doc_lengths = np.asarray(lengths, dtype=np.int32)
    keys, counts = np.unique(
        rank[np.asarray(ids, dtype=np.int32)] * num_docs
        + np.repeat(np.arange(num_docs), doc_lengths),
        return_counts=True)
    post_terms, post_docs = np.divmod(keys, num_docs)
    bounds = np.searchsorted(post_terms, np.arange(len(terms) + 1)).tolist()

    return InvertedIndex(
        doc_ids=[doc.doc_id for doc in collection],
        doc_lengths=doc_lengths,
        avg_doc_length=float(doc_lengths.sum()) / num_docs,
        _vocab={term: (bounds[r], bounds[r + 1]) for r, term in enumerate(terms)},
        _post_docs=post_docs.astype(np.int32),
        _post_tfs=counts.astype(np.float64),
    )


def robertson_idf(num_docs: int, df: int) -> float:
    return math.log(1.0 + (num_docs - df + 0.5) / (df + 0.5))


def bm25_search(
    index: InvertedIndex,
    query: str,
    k: int,
    config: Config,
    query_id: str | None = None,
    tag: str = "zeqr",
) -> RunResult:
    """Rank the top-k documents for a query.

    Query terms come from `normalize`, as the index's do; each occurrence
    of a term contributes once. Only documents containing at least one
    query term are ranked. A query with no indexed terms yields an empty
    ranking.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if query_id is None:
        query_id = query
    terms = [t for t in normalize(query) if t in index._vocab]
    if not terms:
        return RunResult(query_id=query_id, ranked=(), tag=tag)

    k1 = config.bm25_k1
    b = config.bm25_b
    norms = index.norms(k1, b)
    scores = np.zeros(index.num_docs, dtype=np.float64)
    # One term at a time in query order, so every score is summed in the
    # same order on every run. A term's postings name each doc once, so
    # the fancy-indexed += is safe.
    for term in terms:
        start, end = index._vocab[term]
        idf = robertson_idf(index.num_docs, end - start)
        docs = index._post_docs[start:end]
        tfs = index._post_tfs[start:end]
        scores[docs] += idf * tfs * (k1 + 1.0) / (tfs + norms[docs])

    # k1 > 0 and the smoothed idf is > 0, so exactly the touched docs are
    # nonzero. Past k of them, keep every score >= the k-th best so that
    # ties at the cut still reach the doc_id tie-break.
    candidates = np.flatnonzero(scores)
    if len(candidates) > k:
        cut = len(candidates) - k
        kth = np.partition(scores[candidates], cut)[cut]
        candidates = candidates[scores[candidates] >= kth]
    order = np.lexsort((index._doc_rank[candidates], -scores[candidates]))
    top = candidates[order[:k]]
    ranked = tuple((index.doc_ids[i], float(scores[i])) for i in top)
    return RunResult(query_id=query_id, ranked=ranked, tag=tag)


def external_search(
    endpoint: str,
    query: str,
    k: int,
    query_id: str | None = None,
    tag: str = "external",
    timeout: float = 30.0,
) -> RunResult:
    """Delegate ranking to a retriever behind the /search wire contract.

    POST {endpoint}/search with {"query", "k"}; the response is
    {"hits": [{"doc_id", "score"}, ...]} ranked best-first. The ranking is
    validated against the RunResult invariants before use.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    try:
        data = post_json(endpoint, "/search", {"query": query, "k": k}, timeout)
    except TransportError as exc:
        raise RetrievalError(f"external retriever at {endpoint} failed: {exc}")

    hits = data.get("hits") if isinstance(data, dict) else None
    if not isinstance(hits, list):
        raise ProtocolError(f"response from {endpoint} has no 'hits' list")
    if len(hits) > k:
        raise ProtocolError(f"{endpoint} returned {len(hits)} hits for k={k}")
    try:
        ranked = tuple((str(h["doc_id"]), float(h["score"])) for h in hits)
    except (KeyError, TypeError, ValueError) as exc:
        raise ProtocolError(f"malformed hit from {endpoint}: {exc}")
    try:
        return RunResult(query_id=query_id if query_id is not None else query,
                         ranked=ranked, tag=tag)
    except ValueError as exc:
        raise ProtocolError(f"invalid ranking from {endpoint}: {exc}")


def write_run(results: list[RunResult], path: str | Path) -> None:
    """Write TREC 6-column format: query_id Q0 doc_id rank score tag."""
    with Path(path).open("w", encoding="utf-8") as fh:
        for result in results:
            for rank, (doc_id, score) in enumerate(result.ranked, start=1):
                fh.write(f"{result.query_id} Q0 {doc_id} {rank} {score} {result.tag}\n")


def read_run(path: str | Path) -> list[RunResult]:
    """Parse a TREC run file back into RunResults, in file order."""
    per_query: dict[str, list[tuple[str, float]]] = {}
    tags: dict[str, str] = {}
    for lineno, line in read_lines(path):
        fields = line.split()
        if len(fields) != 6:
            raise ParseError(f"expected 6 fields, got {len(fields)}",
                             path=str(path), line=lineno)
        query_id, _, doc_id, _, score_s, tag = fields
        try:
            score = float(score_s)
        except ValueError:
            raise ParseError(f"bad score {score_s!r}", path=str(path), line=lineno)
        per_query.setdefault(query_id, []).append((doc_id, score))
        tags[query_id] = tag
    results = []
    for query_id, ranked in per_query.items():
        try:
            results.append(RunResult(query_id=query_id, ranked=tuple(ranked),
                                     tag=tags[query_id]))
        except ValueError as exc:
            raise ParseError(str(exc), path=str(path))
    return results


def save_index(index: InvertedIndex, path: str | Path) -> None:
    """Persist to a single uncompressed .npz artifact with a format-version header.

    Term frequencies are counts and are stored as int32; `load_index` reads
    them back as float64, and reads a compressed archive just as well.
    """
    terms = list(index._vocab)
    starts = np.array([index._vocab[t][0] for t in terms], dtype=np.int64)
    ends = np.array([index._vocab[t][1] for t in terms], dtype=np.int64)
    meta = json.dumps({
        "format_version": INDEX_FORMAT_VERSION,
        "avg_doc_length": index.avg_doc_length,
    })
    np.savez(
        Path(path),
        meta=np.array(meta),
        doc_ids=np.asarray(index.doc_ids),
        doc_lengths=index.doc_lengths,
        terms=np.asarray(terms),
        starts=starts,
        ends=ends,
        post_docs=index._post_docs,
        post_tfs=index._post_tfs.astype(np.int32),
    )


def load_index(path: str | Path) -> InvertedIndex:
    path = Path(path)
    try:
        with np.load(path, allow_pickle=False) as data:
            meta = json.loads(str(data["meta"]))
            if not isinstance(meta, dict):
                raise ValueError("metadata is not a JSON object")
            version = meta.get("format_version")
            if version != INDEX_FORMAT_VERSION:
                raise ParseError(
                    f"unsupported index format version {version!r} "
                    f"(expected {INDEX_FORMAT_VERSION})",
                    path=str(path),
                )
            terms = [str(t) for t in data["terms"]]
            starts = data["starts"]
            ends = data["ends"]
            vocab = {t: (int(s), int(e)) for t, s, e in zip(terms, starts, ends)}
            return InvertedIndex(
                doc_ids=[str(d) for d in data["doc_ids"]],
                doc_lengths=data["doc_lengths"].astype(np.int32),
                avg_doc_length=float(meta["avg_doc_length"]),
                _vocab=vocab,
                _post_docs=data["post_docs"].astype(np.int32),
                _post_tfs=data["post_tfs"].astype(np.float64),
            )
    except (zipfile.BadZipFile, zlib.error, EOFError, KeyError, ValueError) as exc:
        # A truncated archive, a missing array or malformed metadata.
        raise ParseError(f"not a readable zeqr index ({exc})", path=str(path)) from None
