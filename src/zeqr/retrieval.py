"""Self-contained BM25 indexing and search, plus the external-retriever
adapter seam. Both rank into `ingest.RunResult`; a `/search` reply is
checked against `ingest.SEARCH_REPLY` first.

Every term, indexed or queried, comes from `text.normalize`, the same
function the IDF table of the omission gate is built with, so that table
follows from the index's document frequencies (`InvertedIndex.idf_table`).

The index is built in one array pass over the collection in doc-id order:
terms become int32 ids while each document is tokenized, one `np.unique`
over (term rank, doc) keys gives the packed postings, and the bodies are
packed into one UTF-8 blob with int64 offsets, the way Anserini's
`-storeRaw` keeps every passage. An `InvertedIndex` holds exactly the
arrays its file stores, int32 term frequencies included, and `save_index`
writes them as they are, with the doc ids and the terms as one
whitespace-separated UTF-8 text each; document lengths are sums over the
postings and are not stored. The file is zeqr's own: one line of JSON
metadata (`ingest.INDEX_META`), then the members of `_MEMBERS`, each on a
64-byte boundary. `load_index` maps it, CRC-checks each member and hands
its views to the same constructor, with no copy and no conversion;
`InvertedIndex.passages` decodes only the slices asked for, so `zeqr run`
and `zeqr repl` resolve passages without the collection. The metadata
records the sha256 of the collection file the index was built from, and
`load_index` checks every array against the others before any search can
index with them.

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
index file holds only term frequencies.
"""

from __future__ import annotations

import binascii
import bisect
import json
import math
import mmap
from array import array
from collections.abc import Iterator, Mapping
from pathlib import Path

import numpy as np

from .datamodel import Config
from .errors import ParseError, ProtocolError
from .ingest import (INDEX_META, SEARCH_REPLY, Document, IdfTable, RunResult, check_json,
                     json_id, parse_json)
# Bound here for perfbench/run.py alone, which calls `zeqr.retrieval.write_run`.
# Drop once the benchmark takes it from ingest.
from .ingest import write_run  # noqa: F401
from .text import Analyzer, normalize
from .transport import post_json

# 6: a JSON line, then aligned members. Versions 1 to 5 were NumPy .npz
# archives; like any other version, they are rejected on load.
INDEX_FORMAT_VERSION = 6
# Each member of an index file, in file order, and the type of its items.
_MEMBERS = {name: np.dtype(dtype) for name, dtype in (
    ("doc_ids", "u1"), ("terms", "u1"), ("bodies", "u1"), ("bounds", "<i8"),
    ("post_docs", "<i4"), ("post_tfs", "<i4"), ("body_offsets", "<i8"))}
# Every member starts at a multiple of this many bytes from the file's start.
_ALIGN = 64
# Postings per block of the impacts' division: 512 KB of float64 scratch.
_IMPACT_BLOCK = 1 << 16
# Seconds external_search waits for each attempt's reply.
TIMEOUT_S = 30.0


class Passages(Mapping[str, str]):
    """doc_id -> passage body of an index, over one UTF-8 blob in index doc
    order.

    Body i is blob[offsets[i]:offsets[i + 1]]. The doc ids ascend, so a
    lookup is a binary search, and it decodes only its own slice. A slice
    that is not UTF-8 raises ParseError naming the index file at `path`.
    """

    def __init__(self, doc_ids: list[str], blob: np.ndarray, offsets: np.ndarray,
                 path: str | None = None):
        self._doc_ids = doc_ids
        self._blob = blob
        self._offsets = offsets
        self._path = path

    def _position(self, doc_id: object) -> int | None:
        i = bisect.bisect_left(self._doc_ids, doc_id) if isinstance(doc_id, str) else 0
        return i if i < len(self._doc_ids) and self._doc_ids[i] == doc_id else None

    def __getitem__(self, doc_id: str) -> str:
        i = self._position(doc_id)
        if i is None:
            raise KeyError(doc_id)
        try:
            return self._blob[self._offsets[i]:self._offsets[i + 1]].tobytes().decode("utf-8")
        except UnicodeDecodeError:
            raise ParseError(f"passage {doc_id!r} is not UTF-8", path=self._path) from None

    def __contains__(self, doc_id: object) -> bool:
        return self._position(doc_id) is not None

    def __iter__(self) -> Iterator[str]:
        return iter(self._doc_ids)

    def __len__(self) -> int:
        return len(self._doc_ids)


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
        float that formula gives; it costs one float64 per posting.
        Threads racing on a first call each compute the same array, so the
        unlocked cache stays correct. A (k1, b) whose impacts overflow
        raises ValueError naming both settings.
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
    bounds = np.searchsorted(post_terms, np.arange(len(terms) + 1))
    # np.unique counts in intp; the postings are held, as stored, in int32.
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
                         Passages(doc_ids, np.frombuffer(blob, dtype=np.uint8),
                                  np.frombuffer(offsets, dtype=np.int64)))


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


def external_search(
    endpoint: str,
    query: str,
    k: int,
    query_id: str | None = None,
    tag: str = "external",
) -> RunResult:
    """Delegate ranking to a retriever behind the /search wire contract.

    POST {endpoint}/search with {"query", "k"}; the response is
    {"hits": [{"doc_id", "score"}, ...]} ranked best-first, and it and
    each hit may hold other fields. The reply is checked against
    `ingest.SEARCH_REPLY`, so every hit id is an integer or a string that
    fits a run line (read by `ingest.json_id`); it holds at most k hits,
    and the ranking must keep the RunResult invariants.

    Raises TransportError from `transport.post_json` when no 2xx reply
    arrives, as a remote reader does, and ProtocolError naming the URL
    when the reply breaks the contract.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    data = post_json(endpoint, "/search", {"query": query, "k": k}, SEARCH_REPLY, TIMEOUT_S)
    try:
        hits = data["hits"]
        if len(hits) > k:
            raise ValueError(f"response holds {len(hits)} hits for k={k}")
        return RunResult(query_id=query_id if query_id is not None else query,
                         ranked=[(json_id(hit["doc_id"]), float(hit["score"])) for hit in hits],
                         tag=tag)
    except ValueError as exc:
        raise ProtocolError(f"{endpoint.rstrip('/')}/search: {exc}") from None


def save_index(index: InvertedIndex, path: str | Path,
               collection_sha256: str | None = None) -> None:
    """Write the index to `path`: one line of JSON metadata, then each
    member of `_MEMBERS` as the index holds it, each from the next 64-byte
    boundary, so that `load_index` can map every one in place.

    The line holds the format version, `collection_sha256` (the hash of the
    collection file the index was built from) and, in `_MEMBERS` order,
    each member's item count and CRC-32.
    """
    # Ids and terms hold no whitespace, so each list is one space-joined text.
    doc_ids, terms = (np.frombuffer(" ".join(words).encode("utf-8"), np.uint8)
                      for words in (index.doc_ids, index._vocab))
    # In `_MEMBERS` order, as `load_index` unpacks them.
    members = (doc_ids, terms, index.passages._blob, index._bounds, index._post_docs,
               index._post_tfs, index.passages._offsets)
    arrays = [np.ascontiguousarray(array, dtype)
              for array, dtype in zip(members, _MEMBERS.values(), strict=True)]
    meta = json.dumps({"format_version": INDEX_FORMAT_VERSION,
                       "collection_sha256": collection_sha256,
                       "counts": [len(array) for array in arrays],
                       "crc32": [binascii.crc32(array) for array in arrays]})
    with Path(path).open("wb") as fh:
        fh.write(f"{meta}\n".encode())
        for array in arrays:
            fh.write(bytes(-fh.tell() % _ALIGN))
            fh.write(array)


def _check_arrays(doc_ids: list[str], terms: list[str], bounds: np.ndarray,
                  post_docs: np.ndarray, post_tfs: np.ndarray) -> None:
    """Raise ValueError unless the vectors, of the dtypes `save_index`
    writes, form an index `build_index` could give."""
    num_docs = len(doc_ids)
    if not num_docs:
        raise ValueError("the index holds no documents")
    if len(post_tfs) != len(post_docs) or len(bounds) != len(terms) + 1:
        raise ValueError("array lengths do not agree")
    if bounds[0] != 0 or (np.diff(bounds) <= 0).any() or bounds[-1] != len(post_docs):
        raise ValueError("term bounds do not partition the postings")
    if (post_docs < 0).any() or (post_docs >= num_docs).any() or (post_tfs < 1).any():
        raise ValueError("a posting names no document or has no occurrence")
    if not all(map(str.__lt__, doc_ids, doc_ids[1:])) or \
            not all(map(str.__lt__, terms, terms[1:])):
        raise ValueError("doc ids or terms are not strictly ascending")


def load_index(path: str | Path) -> InvertedIndex:
    """Read an index written by `save_index`, mapped once, read-only, so
    every member comes from one file even if `zeqr index` replaces it.

    Each member is a view of the mapping, checked against its CRC-32 first.
    Any failure past opening the file, another format version included,
    raises ParseError: not a readable zeqr index, to be rebuilt with
    `zeqr index`.
    """
    path = Path(path)
    with path.open("rb") as fh:
        try:
            mapped = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)
            newline = mapped.find(b"\n")
            if newline < 0:
                raise ValueError("no metadata line")
            meta = parse_json(mapped[:newline].decode("utf-8"))
            check_json(meta, INDEX_META, "meta", closed=False)
            if meta["format_version"] != INDEX_FORMAT_VERSION:
                raise ValueError(f"format version {meta['format_version']}, "
                                 f"not {INDEX_FORMAT_VERSION}")
            arrays, end = [], newline + 1
            for (name, dtype), count, crc in zip(_MEMBERS.items(), meta["counts"],
                                                 meta["crc32"], strict=True):
                start = end + -end % _ALIGN
                end = start + count * dtype.itemsize
                if end > len(mapped):
                    raise ValueError(f"the file ends inside {name}")
                if binascii.crc32(memoryview(mapped)[start:end]) != crc:
                    raise ValueError(f"{name} fails its CRC-32 check")
                arrays.append(np.frombuffer(mapped, dtype, count, start))
            if end != len(mapped):
                raise ValueError(f"the last member ends at byte {end} of {len(mapped)}")
            doc_ids, terms, blob, bounds, post_docs, post_tfs, offsets = arrays
            # A NUL fails here and a byte that is not UTF-8 in the decode, so
            # every word meets `ingest.writable_doc_id`.
            if 0 in doc_ids or 0 in terms:
                raise ValueError("a doc id or term holds a NUL")
            doc_ids, terms = (text.tobytes().decode("utf-8").split() for text in (doc_ids, terms))
            _check_arrays(doc_ids, terms, bounds, post_docs, post_tfs)
            if (len(offsets) != len(doc_ids) + 1 or offsets[0] != 0
                    or offsets[-1] != len(blob) or (np.diff(offsets) < 0).any()):
                raise ValueError("body offsets do not match the doc ids and bodies")
            return InvertedIndex(doc_ids, terms, bounds, post_docs, post_tfs,
                                 Passages(doc_ids, blob, offsets, str(path)),
                                 meta.get("collection_sha256"))
        except ValueError as exc:
            # A cut or damaged file, bad metadata or arrays that disagree.
            raise ParseError(f"not a readable zeqr index ({exc}); rebuild it with `zeqr index`",
                             path=str(path)) from None
