"""Loading of topics, qrels, document collections and index files, the IDF
table, TREC run files and trace files.

Every text file zeqr reads is decoded here, by `read_lines` (line-based
formats) or `read_json` (whole-file JSON), and parsed with `parse_json`
where it holds JSON, as are a service's replies (`transport.post_json`)
and an index's metadata (`INDEX_META`). `check_json` checks each against
its table; only the oracle fixture, whose keys are data, checks its one
value itself. A reader of any of these formats raises a plain
ValueError and reads inside `located`, which alone turns it into a
ParseError naming `PATH[:LINE]`, so a malformed or non-UTF-8 input always
fails that way. The index file is zeqr's own binary format, written by
`write_index` and read by `read_index`, and its failures read as
`unreadable_index` words them. Nothing here imports numpy, so `zeqr
eval`, `zeqr trace` and `zeqr census` never load it, and `zeqr run`
rewrites turns off an index before it loads numpy for BM25.

Topics resolve canonical passage ids through any doc id -> body mapping:
`zeqr run` passes the index's stored passages (`IndexFile.passages`),
so it never parses the collection. `file_sha256` hashes a
collection as a stream, to check it against the one an index was built from.

File formats (all UTF-8 but the index; no JSON string may hold a
`\\uD800`-`\\uDFFF` escape outside a surrogate pair, as UTF-8 cannot
encode the lone surrogate it gives):
  - topics: JSON, a list of `_TOPICS` objects, no two of one number.
  - qrels: TREC 4-column text, `query_id 0 doc_id grade`.
  - run: TREC 6-column text, `query_id Q0 doc_id rank score tag`, each
    query's lines in rank order.
  - A grade, score, document count or idf value is written in ASCII with
    no `_`, as trec_eval reads it (`_ascii_number`).
  - collection: JSON-lines, one `_COLLECTION_LINE` object per line, no
    two of one id; `Document` holds the id to what a run line can carry.
  - index: one `INDEX_META` line of JSON, then the members of `_MEMBERS`,
    each little-endian and on a 64-byte boundary (`write_index`).
  - IDF cache: header line `#docs=N` with N >= 1, then `term<TAB>idf`
    rows with finite idf values.
  - traces: JSON-lines, one object per turn, holding exactly the fields
    of `_TRACE_LINE` (`read_traces`).
  - a reader's `/extract` reply and a retriever's `/search` reply: one
    JSON object, `EXTRACT_REPLY` and `SEARCH_REPLY`.
  - Every table but `_TRACE_LINE` is open: a field beyond it is ignored.
"""

from __future__ import annotations

import binascii
import bisect
import json
import math
import re
import struct
import sys
from collections import Counter
from collections.abc import Callable, Iterator, Mapping
from pathlib import Path
from typing import NamedTuple

from .datamodel import MODES, Session, Turn, _checked_make
from .errors import ParseError
from .text import normalize


# A code point UTF-8 cannot encode. Decoded UTF-8 never holds one; a JSON
# `\uD800`-`\uDFFF` escape outside a surrogate pair decodes to one.
_LONE_SURROGATE = re.compile("[\ud800-\udfff]")


def writable_doc_id(doc_id: str) -> bool:
    """Whether a TREC run line can carry the string as one field (a doc id,
    a topic number or a run tag): no whitespace, no NUL and no lone
    surrogate."""
    return (doc_id.split() == [doc_id] and "\x00" not in doc_id
            and not _LONE_SURROGATE.search(doc_id))


def json_id(value: object) -> str | None:
    """An id read from JSON: a string as it is, an integer as its decimal
    text, and None for any other type (true, null, 1.5, [1], an object),
    which str() would turn into an id the input never named."""
    if type(value) is str:
        return value
    if type(value) is int:
        return str(value)
    return None


_FLOAT_MAX = sys.float_info.max


def is_finite(number: int | float) -> bool:
    """`math.isfinite`, but False for an int too large for a float, where
    `math.isfinite` raises OverflowError."""
    return -_FLOAT_MAX <= number <= _FLOAT_MAX


class _Document(NamedTuple):
    doc_id: str
    body: str


class Document(_Document):
    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if not self.doc_id:
            raise ValueError("doc_id is empty")
        if not writable_doc_id(self.doc_id):
            raise ValueError(f"doc_id {self.doc_id!r} holds whitespace or a NUL, "
                             "which a run file cannot carry")
        if not self.body:
            raise ValueError(f"document {self.doc_id}: body is empty")
        return self

    _make = classmethod(_checked_make)


class IdfTable(NamedTuple):
    """Inverse document frequency per normalized term.

    Unseen terms fall back to default_idf, which is higher than any stored
    value so rare-by-absence words still count as important.
    """

    term_idf: dict[str, float]
    num_docs: int
    default_idf: float

    @classmethod
    def from_document_frequencies(cls, df: Mapping[str, int], num_docs: int) -> IdfTable:
        """idf(t) = ln(N / df(t)) over N documents; unseen terms get ln(N / 0.5)."""
        return cls(term_idf={term: math.log(num_docs / count) for term, count in df.items()},
                   num_docs=num_docs, default_idf=math.log(num_docs / 0.5))

    def lookup(self, term: str) -> float:
        return self.term_idf.get(term, self.default_idf)


def robertson_idf(num_docs: int, df: int) -> float:
    """BM25's idf: ln(1 + (N - df + 0.5) / (df + 0.5)), never negative."""
    return math.log(1.0 + (num_docs - df + 0.5) / (df + 0.5))


class Qrels:
    """Graded relevance judgments keyed by (query_id, doc_id)."""

    def __init__(self, judgments: dict[tuple[str, str], int] | None = None):
        self.judgments = {} if judgments is None else judgments
        # Indexed once so that scoring a run is linear in the judgments.
        self._by_query: dict[str, dict[str, int]] = {}
        for (qid, doc_id), grade in self.judgments.items():
            self._by_query.setdefault(qid, {})[doc_id] = grade

    def query_ids(self) -> set[str]:
        return set(self._by_query)

    def judged_docs(self, query_id: str) -> dict[str, int]:
        return dict(self._by_query.get(query_id, {}))


class _RunResult(NamedTuple):
    query_id: str
    ranked: tuple[tuple[str, float], ...]
    tag: str = "zeqr"


class RunResult(_RunResult):
    """One query's ranked output."""

    __slots__ = ()

    def __new__(cls, query_id: str, ranked: tuple[tuple[str, float], ...], tag: str = "zeqr"):
        self = super().__new__(cls, query_id, tuple(tuple(pair) for pair in ranked), tag)
        seen: set[str] = set()
        previous = math.inf
        for doc_id, score in self.ranked:
            if doc_id in seen:
                raise ValueError(f"duplicate doc_id {doc_id!r} in ranking "
                                 f"for query {self.query_id!r}")
            seen.add(doc_id)
            # a NaN would pass the order check, since x > nan is False;
            # is_finite, inlined, as a call would double this loop's time
            if not -_FLOAT_MAX <= score <= _FLOAT_MAX:
                raise ValueError(f"non-finite score {score} at doc {doc_id!r} "
                                 f"for query {self.query_id!r}")
            if score > previous:
                raise ValueError(f"scores increase at doc {doc_id!r} "
                                 f"for query {self.query_id!r}")
            previous = score
        return self

    _make = classmethod(_checked_make)


def _decode(data: bytes, path: Path) -> str:
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise ParseError(f"not UTF-8: {exc.reason}", path=str(path), line=line) from None


class located:
    """A ValueError raised in the block leaves as ParseError at PATH[:LINE],
    with its message. A line format advances `line` as it reads:
    `with located(path) as at: for at.line, text in read_lines(path):`."""

    def __init__(self, path: str | Path, line: int | None = None):
        self.path = str(path)
        self.line = line

    def __enter__(self) -> located:
        return self

    def __exit__(self, kind, exc, traceback) -> None:
        if kind is not None and issubclass(kind, ValueError):
            raise ParseError(str(exc), path=self.path, line=self.line) from None


def read_lines(path: str | Path) -> Iterator[tuple[int, str]]:
    """Yield (line number, line) for each non-blank line of a UTF-8 file.

    Numbers count from 1 and include blank lines; each line loses its line
    ending. A file that is not UTF-8 raises ParseError at its first bad line.
    """
    path = Path(path)
    try:
        with path.open(encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                if line.strip():
                    yield lineno, line.rstrip("\n")
    except UnicodeDecodeError:
        # The text decoder fails a whole chunk at once; find the line.
        _decode(path.read_bytes(), path)
        raise


def parse_json(text: str):
    """json.loads, with a syntax error raised as ValueError, and so is an
    integer longer than Python's int-string digit limit or nesting deeper
    than its recursion limit.

    A string that holds a lone surrogate, which only a `\\u` escape can
    give, raises ValueError too: no output file could be written with it.
    """
    try:
        value = json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise ValueError(f"invalid JSON: {exc}") from None
    if "\\u" in text:
        lone = _LONE_SURROGATE.search(json.dumps(value, ensure_ascii=False))
        if lone:
            raise ValueError(f"a string holds the lone surrogate {lone.group()!r}, "
                             "which UTF-8 cannot encode")
    return value


def read_json(path: str | Path):
    """Decode and parse a whole-file UTF-8 JSON document."""
    path = Path(path)
    with located(path):
        return parse_json(_decode(path.read_bytes(), path))


def _ascii_number(parse, text: str):
    """`parse(text)`, int or float, for a number as trec_eval reads one:
    ASCII with no `_`, where Python's parsers also take the digits of other
    scripts and `_` between digits. Anything else raises ValueError."""
    if not text.isascii() or "_" in text:
        raise ValueError(f"{text!r} is not an ASCII number")
    return parse(text)


def load_collection(path: str | Path) -> list[Document]:
    """Read a JSON-lines collection, one `_COLLECTION_LINE` object per line."""
    docs: list[Document] = []
    seen: set[str] = set()
    with located(path) as at:
        for at.line, text in read_lines(path):
            obj = parse_json(text)
            check_json(obj, _COLLECTION_LINE, closed=False)
            doc_id = json_id(obj["id"])
            if doc_id in seen:
                raise ValueError(f"duplicate doc id {doc_id!r}")
            seen.add(doc_id)
            docs.append(Document(doc_id=doc_id, body=obj["contents"]))
        if not docs:
            raise ValueError("collection is empty")
    return docs


def file_sha256(path: str | Path) -> str:
    """The hex sha256 of a file, read in 1 MiB chunks."""
    # Imported here: hashlib loads OpenSSL, which only `zeqr index` and a
    # run or REPL given both --index and --collection need.
    import hashlib

    digest = hashlib.sha256()
    with Path(path).open("rb") as fh:
        while chunk := fh.read(1 << 20):
            digest.update(chunk)
    return digest.hexdigest()


def _parse_turn(topic_no: str, raw_turn: dict, passages: Mapping[str, str] | None) -> Turn:
    number = int(raw_turn["number"])
    answer = raw_turn.get("canonical_passage")
    answer_id = raw_turn.get("canonical_result_id")
    if answer is None and answer_id is not None and passages is not None:
        if answer_id not in passages:
            raise ValueError(f"topic {topic_no} turn {number}: canonical_result_id "
                             f"{answer_id!r} not in collection")
        answer = passages[answer_id]
    try:
        return Turn(number, raw_turn["raw_utterance"], answer)
    except ValueError as exc:
        raise ValueError(f"topic {topic_no}: {exc}") from None


def load_topics(path: str | Path,
                passages: Mapping[str, str] | None = None) -> list[Session]:
    """Load conversational topics into Sessions.

    When a turn names a canonical_result_id and a doc id -> body mapping is
    supplied, the passage text is resolved from it; an unknown id is a parse
    error. Without one, a passage the turn names by id is left absent.
    """
    sessions: list[Session] = []
    seen: set[str] = set()
    with located(path):
        raw = read_json(path)
        check_json(raw, _TOPICS, "topics", closed=False)
        for topic in raw:
            topic_no = json_id(topic["number"])
            if topic_no in seen:
                raise ValueError(f"duplicate topic number {topic_no!r}")
            seen.add(topic_no)
            turns = [_parse_turn(topic_no, t, passages) for t in topic["turn"]]
            sessions.append(Session(session_id=topic_no, turns=tuple(turns)))
    return sessions


def load_qrels(path: str | Path) -> Qrels:
    """Parse TREC 4-column qrels; the last grade wins on duplicates."""
    judgments: dict[tuple[str, str], int] = {}
    with located(path) as at:
        for at.line, text in read_lines(path):
            fields = text.split()
            if len(fields) != 4:
                raise ValueError(f"expected 4 whitespace-separated fields, got {len(fields)}")
            query_id, _, doc_id, grade_s = fields
            try:
                grade = _ascii_number(int, grade_s)
            except ValueError:
                raise ValueError(f"grade {grade_s!r} is not an integer") from None
            if grade < 0:
                raise ValueError(f"grade {grade} is negative")
            # The grade is a gain, scored as a float.
            if grade > _FLOAT_MAX:
                raise ValueError(f"grade {grade_s!r} is too large")
            judgments[(query_id, doc_id)] = grade
    return Qrels(judgments=judgments)


def run_lines(result: RunResult) -> str:
    """A result's lines of TREC 6-column format: query_id Q0 doc_id rank score tag."""
    return "".join(f"{result.query_id} Q0 {doc_id} {rank} {score} {result.tag}\n"
                   for rank, (doc_id, score) in enumerate(result.ranked, start=1))


def write_run(results: list[RunResult], path: str | Path) -> None:
    """Write each result's `run_lines`, in order."""
    with Path(path).open("w", encoding="utf-8") as fh:
        fh.writelines(map(run_lines, results))


def read_run(path: str | Path) -> list[RunResult]:
    """Parse a TREC run file back into RunResults, in file order."""
    per_query: dict[str, list[tuple[str, float]]] = {}
    tags: dict[str, str] = {}
    with located(path) as at:
        for at.line, text in read_lines(path):
            fields = text.split()
            if len(fields) != 6:
                raise ValueError(f"expected 6 fields, got {len(fields)}")
            query_id, _, doc_id, _, score_s, tag = fields
            try:
                score = _ascii_number(float, score_s)
            except ValueError:
                raise ValueError(f"bad score {score_s!r}") from None
            per_query.setdefault(query_id, []).append((doc_id, score))
            tags[query_id] = tag
    # a ranking's own errors name the file alone
    with located(path):
        return [RunResult(query_id=query_id, ranked=tuple(ranked), tag=tags[query_id])
                for query_id, ranked in per_query.items()]


class _Value(NamedTuple):
    """A JSON value that passes `test`, described as `expected`."""

    test: Callable[[object], bool]
    expected: str


class _OrNull(NamedTuple):
    """`spec`, or null."""

    spec: object


class _Optional(NamedTuple):
    """A field that is `spec`, or absent from its object."""

    spec: object


_STRING = _Value(lambda v: type(v) is str, "a string")
# type(), as a bool is an int to isinstance() and no number here
_INTEGER = _Value(lambda v: type(v) is int, "an integer")
_BOOLEAN = _Value(lambda v: type(v) is bool, "a boolean")
_NUMBER = _Value(lambda v: type(v) in (int, float) and is_finite(v), "a finite number")
# an id as `json_id` reads it, which a run line can carry
_RUN_ID = _Value(lambda v: type(v) is int or type(v) is str and writable_doc_id(v),
                 "an integer or a string a run file can carry")
_STEP = {"question": _STRING,
         "answer": _OrNull({"text": _STRING, "char_start": _INTEGER, "char_end": _INTEGER,
                            "score": _NUMBER}),
         "applied": _BOOLEAN}

# A trace line: the query id, then `ReformulationTrace.to_dict()`. A dict
# is an object with exactly its fields, a one-item list a list of its item.
_TRACE_LINE = {
    "query_id": _Value(lambda v: type(v) is str and writable_doc_id(v),
                       "a query id a run file can carry"),
    "raw_query": _STRING,
    "mode": _Value(lambda v: v in MODES, "one of " + ", ".join(MODES)),
    "coref_steps": [{"pronoun": {"token_index": _INTEGER, "surface": _STRING,
                                 "is_possessive": _BOOLEAN},
                     **_STEP}],
    "q_star": _STRING,
    "omission_steps": [{"candidate": {"token_index": _INTEGER, "surface": _STRING,
                                      "kind": _Value(lambda v: v in ("noun", "verb"),
                                                     "noun or verb"),
                                      "idf": _NUMBER},
                        "preposition": _STRING,
                        **_STEP}],
    "q_double_star": _STRING,
}

# A reader's /extract reply: the span, offsets in code points, and its score.
EXTRACT_REPLY = {"answer": _STRING, "start": _INTEGER, "end": _INTEGER, "score": _NUMBER}

# A retriever's /search reply: its hits, best first.
SEARCH_REPLY = {"hits": [{"doc_id": _RUN_ID, "score": _NUMBER}]}

# A topics file. A turn number is a JSON integer or a string of ASCII
# digits: int() alone would cut 2.7 to 2, read true as 1 and "1_0" as 10.
_TOPICS = [{"number": _RUN_ID,
            "turn": [{"number": _Value(lambda v: type(v) is int
                                       or type(v) is str and v.isascii() and v.isdigit(),
                                       "an integer or a string of ASCII digits"),
                      "raw_utterance": _STRING,
                      "canonical_result_id": _Optional(_OrNull(_STRING)),
                      "canonical_passage": _Optional(_OrNull(_STRING))}]}]

# A collection line: a document's id, read by `json_id`, and its body.
_COLLECTION_LINE = {"id": _Value(lambda v: json_id(v) is not None, "a string or an integer"),
                    "contents": _STRING}

# An index file's metadata line, as `write_index` writes it: a count and a
# CRC-32 for each member of `_MEMBERS`, in its order.
_COUNT = _Value(lambda v: type(v) is int and v >= 0, "a non-negative integer")
INDEX_META = {"format_version": _INTEGER, "collection_sha256": _Optional(_OrNull(_STRING)),
              "counts": [_COUNT], "crc32": [_COUNT]}


def check_json(value, spec, path: str = "", closed: bool = True) -> None:
    """Raise ValueError naming the field path (`coref_steps[0].pronoun`)
    where a JSON value first breaks its spec, one of the tables above. An
    object holds every field of its spec but the `_Optional` ones; a closed
    object holds no other, an open one (`closed=False`, at every depth) may
    hold more."""
    where = path or "the record"
    if isinstance(spec, _Optional):
        spec = spec.spec
    nullable = isinstance(spec, _OrNull)
    if nullable:
        if value is None:
            return
        spec = spec.spec
    if isinstance(spec, _Value):
        fits, expected = spec.test(value), spec.expected
    else:
        fits = type(value) is type(spec)
        expected = "a list" if isinstance(spec, list) else "an object"
    if not fits:
        text = json.dumps(value, ensure_ascii=False)
        text = text if len(text) <= 40 else text[:37] + "..."
        raise ValueError(f"{where} is {text}, not {'null or ' * nullable}{expected}")
    if isinstance(spec, list):
        for i, item in enumerate(value):
            check_json(item, spec[0], f"{path}[{i}]", closed)
    elif isinstance(spec, dict):
        for name, field in spec.items():
            if name not in value and not isinstance(field, _Optional):
                raise ValueError(f"{where} has no field {name!r}")
        if closed:
            for name in value:
                if name not in spec:
                    raise ValueError(f"{where} has an unknown field {name!r}")
        for name, field in spec.items():
            if name in value:
                check_json(value[name], field, f"{path}.{name}" if path else name, closed)


def read_traces(path: str | Path) -> list[dict]:
    """Parse a trace file into its records, in file order, each checked
    against `_TRACE_LINE`."""
    records = []
    with located(path) as at:
        for at.line, text in read_lines(path):
            record = parse_json(text)
            check_json(record, _TRACE_LINE)
            records.append(record)
    return records


def build_idf_table(collection: list[Document]) -> IdfTable:
    """Compute idf(t) = ln(N / df(t)) by scanning the collection.

    The reference the tests hold `build_index(collection).idf_table()` to:
    terms come from `normalize`, the index's term function, so the two are
    equal. No command calls it: each reads IDF off an index or an IDF cache.
    """
    if not collection:
        raise ValueError("collection is empty")
    df: Counter[str] = Counter()
    for doc in collection:
        df.update(set(normalize(doc.body)))
    return IdfTable.from_document_frequencies(df, len(collection))


def save_idf_table(table: IdfTable, path: str | Path) -> None:
    """Write the cache format: `#docs=N` header then term<TAB>idf rows.

    Values use repr so a reload is bit-exact.
    """
    with Path(path).open("w", encoding="utf-8") as fh:
        fh.write(f"#docs={table.num_docs}\n")
        for term in sorted(table.term_idf):
            fh.write(f"{term}\t{table.term_idf[term]!r}\n")


def load_idf_table(path: str | Path) -> IdfTable:
    with located(path, line=1) as at:
        lines = read_lines(path)
        lineno, header = next(lines, (1, ""))
        header = header.strip()
        if lineno != 1 or not header.startswith("#docs="):
            raise ValueError("missing '#docs=N' header")
        try:
            num_docs = _ascii_number(int, header[len("#docs="):])
        except ValueError:
            raise ValueError(f"bad document count in header {header!r}") from None
        if num_docs < 1:
            raise ValueError(f"document count in header {header!r} must be >= 1")
        # Twice the count is the default IDF's ratio, which a float must hold.
        if num_docs > _FLOAT_MAX / 2:
            raise ValueError(f"document count in header {header!r} is too large")
        term_idf: dict[str, float] = {}
        for at.line, text in lines:
            try:
                term, value = text.split("\t")
                idf = _ascii_number(float, value)
            except ValueError:
                raise ValueError("expected term<TAB>idf") from None
            if not math.isfinite(idf):
                raise ValueError(f"idf {idf} is not finite")
            if normalize(term) != [term]:
                raise ValueError(f"{term!r} is not one normalized term")
            if term in term_idf:
                raise ValueError(f"term {term!r} is repeated")
            term_idf[term] = idf
    return IdfTable.from_document_frequencies({}, num_docs)._replace(term_idf=term_idf)


# 6: a JSON line, then aligned members. Versions 1 to 5 were NumPy .npz
# archives; like any other version, they are rejected on load.
INDEX_FORMAT_VERSION = 6
# Each member of an index file, in file order, and the `struct` type code of
# its items, which the file holds little-endian.
_MEMBERS = {"doc_ids": "B", "terms": "B", "bodies": "B", "bounds": "q",
            "post_docs": "i", "post_tfs": "i", "body_offsets": "q"}
# Every member starts at a multiple of this many bytes from the file's start.
_ALIGN = 64
# The largest term frequency the int32 items of `post_tfs` can hold.
TF_MAX = 2**31 - 1


class Passages(Mapping[str, str]):
    """doc_id -> passage body of an index, over one UTF-8 blob in index doc
    order.

    Body i is blob[offsets[i]:offsets[i + 1]], of any buffer and any
    sequence of ints. The doc ids ascend, so a lookup is a binary search,
    and it decodes only its own slice. A slice that is not UTF-8 raises
    ParseError naming the index file at `path`.
    """

    def __init__(self, doc_ids: list[str], blob, offsets, path: str | None = None):
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
            return str(self._blob[self._offsets[i]:self._offsets[i + 1]], "utf-8")
        except UnicodeDecodeError:
            raise ParseError(f"passage {doc_id!r} is not UTF-8", path=self._path) from None

    def __contains__(self, doc_id: object) -> bool:
        return self._position(doc_id) is not None

    def __iter__(self) -> Iterator[str]:
        return iter(self._doc_ids)

    def __len__(self) -> int:
        return len(self._doc_ids)


class IndexFile(NamedTuple):
    """The members of an index file, as `read_index` maps them and
    `write_index` lays them out.

    Term i's postings are bounds[i]:bounds[i + 1] of the parallel
    `post_docs` (doc positions) and `post_tfs` (term frequencies); the
    three are buffers of int64, int32 and int32 items in the host's byte
    order. The terms and the doc ids ascend. `path` names the file read.
    """

    doc_ids: list[str]
    terms: list[str]
    bounds: memoryview
    post_docs: memoryview
    post_tfs: memoryview
    passages: Passages
    collection_sha256: str | None = None
    path: str | None = None

    def idf_table(self) -> IdfTable:
        """The omission gate's IDF table, from the postings' document frequencies.

        Equal to `build_idf_table` over the indexed collection.
        """
        edges = self.bounds.tolist()
        return IdfTable.from_document_frequencies(
            {term: end - start for term, start, end in zip(self.terms, edges, edges[1:])},
            len(self.doc_ids))


def _host_order(items: memoryview) -> memoryview:
    """Little-endian items in the host's order, or the reverse: the same
    memory on a little-endian host, a byte-swapped copy on another."""
    if sys.byteorder == "little" or items.itemsize == 1:
        return items
    from array import array

    swapped = array(items.format, items)
    swapped.byteswap()
    return memoryview(swapped)


class unreadable_index:
    """A ValueError raised in the block leaves as ParseError: `PATH: not a
    readable zeqr index (its message); rebuild it with `zeqr index``."""

    def __init__(self, path: str | Path | None):
        self.path = None if path is None else str(path)

    def __enter__(self) -> unreadable_index:
        return self

    def __exit__(self, kind, exc, traceback) -> None:
        if kind is not None and issubclass(kind, ValueError):
            raise ParseError(f"not a readable zeqr index ({exc}); rebuild it with `zeqr index`",
                             path=self.path) from None


def write_index(index: IndexFile, path: str | Path) -> None:
    """Write `index` to `path`: one line of JSON metadata, then each member
    of `_MEMBERS`, little-endian, each from the next 64-byte boundary, so
    that `read_index` can map every one in place.

    The line holds the format version, `collection_sha256` (the hash of the
    collection file the index was built from) and, in `_MEMBERS` order,
    each member's item count and CRC-32. Each member is a buffer of its
    `_MEMBERS` items in the host's byte order.
    """
    # Ids and terms hold no whitespace, so each list is one space-joined text.
    doc_ids, terms = (" ".join(words).encode("utf-8") for words in (index.doc_ids, index.terms))
    members = [_host_order(memoryview(member).cast("B").cast(code)) for code, member in zip(
        _MEMBERS.values(), (doc_ids, terms, index.passages._blob, index.bounds,
                            index.post_docs, index.post_tfs, index.passages._offsets),
        strict=True)]
    meta = json.dumps({"format_version": INDEX_FORMAT_VERSION,
                       "collection_sha256": index.collection_sha256,
                       "counts": [len(member) for member in members],
                       "crc32": [binascii.crc32(member) for member in members]})
    with Path(path).open("wb") as fh:
        fh.write(f"{meta}\n".encode())
        for member in members:
            fh.write(bytes(-fh.tell() % _ALIGN))
            fh.write(member)


def read_index(path: str | Path) -> IndexFile:
    """Read an index file written by `write_index`, mapped once, read-only,
    so every member comes from one file even if `zeqr index` replaces it.

    Each member is a view of the mapping, checked against its CRC-32 first
    (a byte-swapped copy of a multi-byte one on a big-endian host). The
    metadata, the doc ids, the terms, the term bounds and the body offsets
    are checked here too, against each other; the values of the postings
    are left to BM25, which alone reads them
    (`retrieval.InvertedIndex.from_file`). Any failure past opening the
    file, another format version included, raises ParseError as
    `unreadable_index` words it.
    """
    # Imported here, as `array` in `_host_order`: eval, trace and census,
    # which read no index, do not load them.
    import mmap

    path = Path(path)
    with path.open("rb") as fh, unreadable_index(path):
        mapped = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)
        newline = mapped.find(b"\n")
        if newline < 0:
            raise ValueError("no metadata line")
        meta = parse_json(mapped[:newline].decode("utf-8"))
        check_json(meta, INDEX_META, "meta", closed=False)
        if meta["format_version"] != INDEX_FORMAT_VERSION:
            raise ValueError(f"format version {meta['format_version']}, "
                             f"not {INDEX_FORMAT_VERSION}")
        members, end = [], newline + 1
        for (name, code), count, crc in zip(_MEMBERS.items(), meta["counts"], meta["crc32"],
                                            strict=True):
            start = end + -end % _ALIGN
            end = start + count * struct.calcsize(code)
            if end > len(mapped):
                raise ValueError(f"the file ends inside {name}")
            member = memoryview(mapped)[start:end]
            if binascii.crc32(member) != crc:
                raise ValueError(f"{name} fails its CRC-32 check")
            members.append(_host_order(member.cast(code)))
        if end != len(mapped):
            raise ValueError(f"the last member ends at byte {end} of {len(mapped)}")
        doc_ids, terms, bodies, bounds, post_docs, post_tfs, offsets = members
        # A byte that is not UTF-8 fails the decode and a NUL the check after
        # it, so every word meets `writable_doc_id`.
        doc_ids, terms = (str(text, "utf-8") for text in (doc_ids, terms))
        if "\0" in doc_ids or "\0" in terms:
            raise ValueError("a doc id or term holds a NUL")
        doc_ids, terms = doc_ids.split(), terms.split()
        if not doc_ids:
            raise ValueError("the index holds no documents")
        if len(post_tfs) != len(post_docs) or len(bounds) != len(terms) + 1:
            raise ValueError("array lengths do not agree")
        if bounds[0] != 0 or bounds[-1] != len(post_docs) or \
                not all(map(int.__lt__, bounds, bounds[1:])):
            raise ValueError("term bounds do not partition the postings")
        if not all(map(str.__lt__, doc_ids, doc_ids[1:])) or \
                not all(map(str.__lt__, terms, terms[1:])):
            raise ValueError("doc ids or terms are not strictly ascending")
        if (len(offsets) != len(doc_ids) + 1 or offsets[0] != 0
                or offsets[-1] != len(bodies) or not all(map(int.__le__, offsets, offsets[1:]))):
            raise ValueError("body offsets do not match the doc ids and bodies")
        return IndexFile(doc_ids, terms, bounds, post_docs, post_tfs,
                         Passages(doc_ids, bodies, offsets, str(path)),
                         meta.get("collection_sha256"), str(path))
