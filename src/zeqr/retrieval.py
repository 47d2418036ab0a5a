"""Self-contained BM25 indexing and search.

Every term, indexed or queried, comes from `text.normalize`, the same
function the IDF table of the omission gate is built with, so that table
follows from the index's document frequencies (`InvertedIndex.idf_table`).

The index is built in one array pass over the collection in doc-id order:
terms become int32 ids while each document is tokenized, one `np.unique`
over (term rank, doc) keys gives the packed postings, and the bodies are
packed into one UTF-8 blob with int64 offsets, the way Anserini's
`-storeRaw` keeps every passage. An `InvertedIndex` holds exactly the
arrays its file stores, int32 term frequencies included; document lengths
are sums over the postings and are not stored. The file format is
`ingest`'s: `save_index` hands the arrays to `ingest.write_index` as they
are, and `load_index` is `ingest.read_index`, which maps the file and
checks all but the postings' values with no array library, then
`InvertedIndex.from_file`, which takes read-only views of the postings and
checks those values. Neither copies a member. `InvertedIndex.passages`
decodes only the slices asked for, so `zeqr run` and `zeqr repl` resolve
passages without the collection.

Scoring uses Robertson/Lucene idf with +1 smoothing,
idf(t) = ln(1 + (N - df + 0.5) / (df + 0.5)), so contributions are never
negative. Ties are broken by doc_id ascending for reproducibility: documents
sit in doc-id order, so a stable sort by score is the tie-break. Search
is plain numpy over eager impacts: the first search with a given (k1, b)
computes every posting's full BM25 contribution once, and each query then
sums its terms' slices of those into a dense score array with one
`np.bincount`. One partition of that array gives the k-th best score, and
a small stable sort orders the docs scoring at least that much (or every
touched doc, when fewer than k are). k1 and b stay run-time settings; the
index file holds only term frequencies. An index is searched from one
thread only: `zeqr run` runs every BM25 search in its main thread.
"""

from __future__ import annotations

from array import array
from pathlib import Path

import numpy as np

from .datamodel import Config
from .ingest import (Document, IdfTable, IndexFile, Passages, RunResult, read_index,
                     robertson_idf, unreadable_index, write_index)
# Bound here for perfbench/run.py alone, which calls `zeqr.retrieval.write_run`.
# Drop once the benchmark takes it from ingest.
from .ingest import write_run  # noqa: F401
from .text import Analyzer, normalize

# Postings per block of the impacts' division: 512 KB of float64 scratch.
_IMPACT_BLOCK = 1 << 16


class InvertedIndex:
    """Immutable–after–build inverted index with packed postings.

    Documents are held in doc_id order, so a doc's index is its tie-break
    rank. Postings for each term are contiguous slices of two parallel
    int32 arrays (doc index, term frequency), sorted by doc index; term i's
    slice is bounds[i]:bounds[i + 1] of the int64 `bounds`, in the order of
    the ascending `terms`. These are the arrays `save_index` writes and
    `load_index` reads, held as they are. Per (k1, b), `impacts` holds every
    posting's BM25 contribution to its doc's score.
    `passages` maps every doc id to its body; `collection_sha256` is the hash
    of the collection file a loaded index was built from, if recorded.

    `analyzer.terms(text)` and `document_frequency(term)` are read by
    callers outside the package (the benchmark's tracer counts postings
    per search with them).
    """

    analyzer = Analyzer()

    def __init__(self, doc_ids: list[str], terms: list[str], bounds: np.ndarray,
                 post_docs: np.ndarray, post_tfs: np.ndarray, passages: Passages,
                 collection_sha256: str | None = None):
        self.doc_ids = doc_ids
        self._bounds = bounds
        edges = bounds.tolist()
        self._vocab = {term: (start, end) for term, start, end in zip(terms, edges, edges[1:])}
        self._post_docs = post_docs
        self._post_tfs = post_tfs
        self.passages = passages
        self.collection_sha256 = collection_sha256
        self._impacts: dict[tuple[float, float], np.ndarray] = {}

    @classmethod
    def from_file(cls, file: IndexFile) -> InvertedIndex:
        """BM25's index over a file `ingest.read_index` has read, holding
        read-only views of its postings, with no copy.

        Every posting must name a document and occur at least once; one
        that does not raises ParseError as `ingest.unreadable_index` words it.
        """
        bounds, post_docs, post_tfs = (np.frombuffer(items, dtype) for items, dtype in (
            (file.bounds, np.int64), (file.post_docs, np.int32), (file.post_tfs, np.int32)))
        with unreadable_index(file.path):
            if ((post_docs < 0).any() or (post_docs >= len(file.doc_ids)).any()
                    or (post_tfs < 1).any()):
                raise ValueError("a posting names no document or has no occurrence")
        return cls(file.doc_ids, file.terms, bounds, post_docs, post_tfs, file.passages,
                   file.collection_sha256)

    @property
    def num_docs(self) -> int:
        return len(self.doc_ids)

    @property
    def num_terms(self) -> int:
        return len(self._vocab)

    @property
    def doc_lengths(self) -> np.ndarray:
        # Summed in int32 in place: bincount would copy the term frequencies
        # to float64 weights, and the doc column to intp, first.
        lengths = np.zeros(self.num_docs, dtype=np.int32)
        np.add.at(lengths, self._post_docs, self._post_tfs)
        return lengths

    @property
    def avg_doc_length(self) -> float:
        return float(self._post_tfs.sum()) / self.num_docs

    def impacts(self, k1: float, b: float) -> np.ndarray:
        """idf * tf * (k1 + 1) / (tf + norm) for every posting, computed once per (k1, b).

        norm is k1 * (1 - b + b * |d| / avgdl) of the posting's doc, and idf
        is its term's `robertson_idf`. The array is built in place, in the
        operation order of the per-term formula, so each impact is the same
        float that formula gives; it costs one float64 per posting. A
        (k1, b) whose impacts overflow raises ValueError naming both
        settings.
        """
        impacts = self._impacts.get((k1, b))
        if impacts is None:
            with np.errstate(over="ignore", invalid="ignore"):
                norms = k1 * (1.0 - b + b * self.doc_lengths / self.avg_doc_length)
                dfs = np.diff(self._bounds).tolist()
                impacts = np.repeat([robertson_idf(self.num_docs, df) for df in dfs], dfs)
                impacts *= self._post_tfs
                impacts *= k1 + 1.0
                # Divided block by block, so the denominators never take a
                # second float64 per posting.
                for start in range(0, len(impacts), _IMPACT_BLOCK):
                    block = slice(start, start + _IMPACT_BLOCK)
                    denominators = norms[self._post_docs[block]]
                    denominators += self._post_tfs[block]
                    impacts[block] /= denominators
            if not np.isfinite(impacts).all():
                raise ValueError(f"bm25_k1={k1} with bm25_b={b} gives non-finite BM25 "
                                 "scores; use a smaller bm25_k1")
            self._impacts[(k1, b)] = impacts
        return impacts

    def document_frequency(self, term: str) -> int:
        span = self._vocab.get(term)
        return 0 if span is None else span[1] - span[0]

    def idf_table(self) -> IdfTable:
        """The omission gate's IDF table, from this index's document frequencies.

        Equal to `ingest.build_idf_table` over the indexed collection.
        """
        return IdfTable.from_document_frequencies(
            {term: end - start for term, (start, end) in self._vocab.items()}, self.num_docs)


class _TermIds(dict):
    """term -> int id, handing the next id to each term not seen before."""

    def __missing__(self, term: str) -> int:
        self[term] = term_id = len(self)
        return term_id


def build_index(collection: list[Document]) -> InvertedIndex:
    """Index a collection. Doc ids must be unique.

    The documents are taken in doc_id order, where a duplicate id sits next
    to its twin. One pass maps each document's terms straight to int32 term
    ids. The postings then come from one `np.unique` over (term rank, doc) keys,
    with term ranks in sorted-term order, so each term's postings are one
    slice sorted by doc and its term frequency is the key's count.
    """
    if not collection:
        raise ValueError("collection is empty")
    collection = sorted(collection, key=lambda doc: doc.doc_id)
    for doc, following in zip(collection, collection[1:]):
        if doc.doc_id == following.doc_id:
            raise ValueError(f"duplicate doc_id {doc.doc_id!r} in collection")

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
    keys, counts = np.unique(
        rank[np.asarray(ids, dtype=np.int32)] * num_docs
        + np.repeat(np.arange(num_docs), lengths),
        return_counts=True)
    post_terms, post_docs = np.divmod(keys, num_docs)
    # np.unique counts and np.searchsorted finds in intp; the bounds are held,
    # as stored, in int64, and the postings in int32.
    bounds = np.searchsorted(post_terms, np.arange(len(terms) + 1)).astype(np.int64)
    post_docs, post_tfs = post_docs.astype(np.int32), counts.astype(np.int32)
    # Packed only now, so the blob never shares the peak with the temporaries.
    del ids, keys, counts, post_terms
    blob = bytearray()
    offsets = array("q", [0])
    for doc in collection:
        blob += doc.body.encode("utf-8")
        offsets.append(len(blob))

    doc_ids = [doc.doc_id for doc in collection]
    return InvertedIndex(doc_ids, terms, bounds, post_docs, post_tfs,
                         Passages(doc_ids, blob, offsets))


def bm25_search(
    index: InvertedIndex,
    query: str,
    k: int,
    config: Config,
    *,
    query_id: str,
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
    terms = [t for t in normalize(query) if t in index._vocab]
    if not terms:
        return RunResult(query_id=query_id, ranked=(), tag=tag)

    impacts = index.impacts(config.bm25_k1, config.bm25_b)
    # The terms' slices in query order, once per occurrence: bincount adds
    # each doc's impacts in that order, starting from 0.0, so every score is
    # the same sum on every run.
    spans = [index._vocab[term] for term in terms]
    docs = np.concatenate([index._post_docs[start:end] for start, end in spans])
    weights = np.concatenate([impacts[start:end] for start, end in spans])
    scores = np.bincount(docs, weights, minlength=index.num_docs)

    # k1 > 0 and the smoothed idf is > 0, so exactly the touched docs are
    # nonzero, and none is negative. A positive k-th best score keeps every
    # score >= it, so that ties at the cut still reach the tie-break; a zero
    # one means fewer than k docs are touched, and all of them are kept.
    # Candidates ascend in doc_id order, which the stable sort keeps among
    # equal scores.
    cut = index.num_docs - k
    kth = np.partition(scores, cut)[cut] if cut > 0 else 0.0
    candidates = np.flatnonzero(scores >= kth if kth > 0 else scores)
    order = np.argsort(-scores[candidates], kind="stable")
    top = candidates[order[:k]]
    ranked = tuple(zip([index.doc_ids[i] for i in top.tolist()], scores[top].tolist()))
    return RunResult(query_id=query_id, ranked=ranked, tag=tag)


def save_index(index: InvertedIndex, path: str | Path,
               collection_sha256: str | None = None) -> None:
    """Write the index to `path` as `ingest.write_index` lays it out,
    recording `collection_sha256`, the hash of the collection file it was
    built from."""
    write_index(IndexFile(index.doc_ids, list(index._vocab), index._bounds, index._post_docs,
                          index._post_tfs, index.passages, collection_sha256), path)


def load_index(path: str | Path) -> InvertedIndex:
    """Read an index written by `save_index`: `ingest.read_index`, then
    `InvertedIndex.from_file`. Any failure past opening the file raises
    ParseError: not a readable zeqr index, to be rebuilt with `zeqr index`."""
    return InvertedIndex.from_file(read_index(path))
