"""Loading of topics, qrels and document collections, the IDF table, TREC
run files and trace files.

Every text file zeqr reads is decoded here, by `read_lines` (line-based
formats) or `read_json` (whole-file JSON), and parsed with `parse_json`
where it holds JSON, as are a service's replies (`transport.post_json`)
and an index's metadata (`INDEX_META`). `check_json` checks each against
its table; only the oracle fixture, whose keys are data, checks its one
value itself. A reader of any of these formats raises a plain
ValueError and reads inside `located`, which alone turns it into a
ParseError naming `PATH[:LINE]`, so a malformed or non-UTF-8 input always
fails that way. Only the index file is read elsewhere, by
`retrieval.load_index`. Nothing here imports numpy, so `zeqr eval`,
`zeqr trace` and `zeqr census` never load it.

Topics resolve canonical passage ids through any doc id -> body mapping:
`zeqr run` passes the index's stored passages (`InvertedIndex.passages`),
so it never parses the collection. `file_sha256` hashes a
collection as a stream, to check it against the one an index was built from.

File formats (all UTF-8; no JSON string may hold a `\\uD800`-`\\uDFFF`
escape outside a surrogate pair, as UTF-8 cannot encode the lone surrogate
it gives):
  - topics: JSON, a list of `_TOPICS` objects, no two of one number.
  - qrels: TREC 4-column text, `query_id 0 doc_id grade`.
  - run: TREC 6-column text, `query_id Q0 doc_id rank score tag`, each
    query's lines in rank order.
  - A grade, score, document count or idf value is written in ASCII with
    no `_`, as trec_eval reads it (`_ascii_number`).
  - collection: JSON-lines, one `_COLLECTION_LINE` object per line, no
    two of one id; `Document` holds the id to what a run line can carry.
  - IDF cache: header line `#docs=N` with N >= 1, then `term<TAB>idf`
    rows with finite idf values.
  - traces: JSON-lines, one object per turn, holding exactly the fields
    of `_TRACE_LINE` (`read_traces`).
  - a reader's `/extract` reply and a retriever's `/search` reply: one
    JSON object, `EXTRACT_REPLY` and `SEARCH_REPLY`.
  - Every table but `_TRACE_LINE` is open: a field beyond it is ignored.
"""

from __future__ import annotations

import json
import math
import re
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

# An index file's metadata line, as `retrieval.save_index` writes it: a
# count and a CRC-32 for each member of `retrieval._MEMBERS`, in its order.
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
