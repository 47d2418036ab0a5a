"""Loading of topics, qrels and document collections, plus the IDF table.

File formats:
  - topics: UTF-8 JSON, a list of objects with `number` and `turn`, each
    turn carrying `number`, `raw_utterance` and optionally
    `canonical_result_id` or an inline `canonical_passage`.
  - qrels: TREC 4-column text, `query_id 0 doc_id grade`.
  - collection: JSON-lines, one `{"id": ..., "contents": ...}` per line.
  - IDF cache: header line `#docs=N` with N >= 1, then `term<TAB>idf` rows.
"""

from __future__ import annotations

import dataclasses
import json
import math
from collections import Counter
from collections.abc import Mapping
from dataclasses import dataclass, field
from pathlib import Path

from .datamodel import Session, Turn
from .errors import ParseError
from .text import normalize


@dataclass(frozen=True)
class Document:
    doc_id: str
    body: str

    def __post_init__(self):
        if not self.doc_id:
            raise ValueError("doc_id is empty")
        if not self.body:
            raise ValueError(f"document {self.doc_id}: body is empty")


@dataclass(frozen=True)
class IdfTable:
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


@dataclass
class Qrels:
    """Graded relevance judgments keyed by (query_id, doc_id)."""

    judgments: dict[tuple[str, str], int] = field(default_factory=dict)
    _by_query: dict[str, dict[str, int]] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # Indexed once so that scoring a run is linear in the judgments.
        self._by_query = {}
        for (qid, doc_id), grade in self.judgments.items():
            self._by_query.setdefault(qid, {})[doc_id] = grade

    def grade(self, query_id: str, doc_id: str) -> int:
        # Unjudged pairs count as non-relevant.
        return self.judgments.get((query_id, doc_id), 0)

    def query_ids(self) -> set[str]:
        return set(self._by_query)

    def judged_docs(self, query_id: str) -> dict[str, int]:
        return dict(self._by_query.get(query_id, {}))


def load_collection(path: str | Path) -> list[Document]:
    """Read a JSON-lines collection, one {"id", "contents"} object per line."""
    path = Path(path)
    docs: list[Document] = []
    seen: set[str] = set()
    with path.open(encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ParseError(f"invalid JSON: {exc}", path=str(path), line=lineno)
            if not isinstance(obj, dict) or "id" not in obj or "contents" not in obj:
                raise ParseError(
                    "expected an object with 'id' and 'contents'",
                    path=str(path),
                    line=lineno,
                )
            doc_id = str(obj["id"])
            if doc_id in seen:
                raise ParseError(f"duplicate doc id {doc_id!r}", path=str(path), line=lineno)
            seen.add(doc_id)
            try:
                docs.append(Document(doc_id=doc_id, body=str(obj["contents"])))
            except ValueError as exc:
                raise ParseError(str(exc), path=str(path), line=lineno)
    return docs


def _parse_turn(topic_no: str, raw_turn: dict, by_id: dict[str, Document] | None,
                path: str) -> Turn:
    try:
        number = int(raw_turn["number"])
        utterance = str(raw_turn["raw_utterance"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(
            f"topic {topic_no}: turn missing number/raw_utterance ({exc})", path=path
        )
    answer = raw_turn.get("canonical_passage")
    answer_id = raw_turn.get("canonical_result_id")
    if answer is None and answer_id is not None and by_id is not None:
        if answer_id not in by_id:
            raise ParseError(
                f"topic {topic_no} turn {number}: canonical_result_id "
                f"{answer_id!r} not in collection",
                path=path,
            )
        answer = by_id[answer_id].body
    try:
        return Turn(
            turn_id=number,
            raw_query=utterance,
            canonical_answer=answer,
            canonical_answer_id=answer_id,
        )
    except ValueError as exc:
        raise ParseError(f"topic {topic_no}: {exc}", path=path)


def load_topics(path: str | Path, collection: list[Document] | None = None) -> list[Session]:
    """Load conversational topics into Sessions.

    When a turn names a canonical_result_id and a collection is supplied,
    the passage text is resolved from it; an unknown id is a parse error.
    Without a collection the id is kept and the passage left absent.
    """
    path = Path(path)
    with path.open(encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ParseError(f"invalid JSON: {exc}", path=str(path))
    if not isinstance(raw, list):
        raise ParseError("top level must be a list of topics", path=str(path))

    by_id = {d.doc_id: d for d in collection} if collection is not None else None
    sessions: list[Session] = []
    for topic in raw:
        if not isinstance(topic, dict) or "number" not in topic or "turn" not in topic:
            raise ParseError("topic missing 'number' or 'turn'", path=str(path))
        topic_no = str(topic["number"])
        if not isinstance(topic["turn"], list):
            raise ParseError(f"topic {topic_no}: 'turn' must be a list", path=str(path))
        turns = [_parse_turn(topic_no, t, by_id, str(path)) for t in topic["turn"]]
        try:
            sessions.append(Session(session_id=topic_no, turns=tuple(turns)))
        except ValueError as exc:
            raise ParseError(str(exc), path=str(path))
    return sessions


def write_topics(sessions: list[Session], path: str | Path) -> None:
    """Serialize Sessions back to the topic JSON layout (inline passages)."""
    payload = []
    for session in sessions:
        turns = []
        for turn in session.turns:
            obj: dict = {"number": turn.turn_id, "raw_utterance": turn.raw_query}
            if turn.canonical_answer is not None:
                obj["canonical_passage"] = turn.canonical_answer
            if turn.canonical_answer_id is not None:
                obj["canonical_result_id"] = turn.canonical_answer_id
            turns.append(obj)
        payload.append({"number": session.session_id, "turn": turns})
    Path(path).write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")


def load_qrels(path: str | Path) -> Qrels:
    """Parse TREC 4-column qrels; the last grade wins on duplicates."""
    path = Path(path)
    judgments: dict[tuple[str, str], int] = {}
    with path.open(encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            fields = line.split()
            if len(fields) != 4:
                raise ParseError(
                    f"expected 4 whitespace-separated fields, got {len(fields)}",
                    path=str(path),
                    line=lineno,
                )
            query_id, _, doc_id, grade_s = fields
            try:
                grade = int(grade_s)
            except ValueError:
                raise ParseError(f"grade {grade_s!r} is not an integer",
                                 path=str(path), line=lineno)
            if grade < 0:
                raise ParseError(f"grade {grade} is negative", path=str(path), line=lineno)
            judgments[(query_id, doc_id)] = grade
    return Qrels(judgments=judgments)


def build_idf_table(collection: list[Document]) -> IdfTable:
    """Compute idf(t) = ln(N / df(t)) by scanning the collection.

    Terms come from `normalize`, the index's term function, so this equals
    `build_index(collection).idf_table()`, which `zeqr index`, `run` and
    `repl` use instead of a second pass over the collection.
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
    path = Path(path)
    with path.open(encoding="utf-8") as fh:
        header = fh.readline().strip()
        if not header.startswith("#docs="):
            raise ParseError("missing '#docs=N' header", path=str(path), line=1)
        try:
            num_docs = int(header[len("#docs="):])
        except ValueError:
            raise ParseError(f"bad document count in header {header!r}",
                             path=str(path), line=1)
        if num_docs < 1:
            raise ParseError(f"document count in header {header!r} must be >= 1",
                             path=str(path), line=1)
        term_idf: dict[str, float] = {}
        for lineno, line in enumerate(fh, start=2):
            if not line.strip():
                continue
            try:
                term, value = line.rstrip("\n").split("\t")
                term_idf[term] = float(value)
            except ValueError:
                raise ParseError("expected term<TAB>idf", path=str(path), line=lineno)
    return dataclasses.replace(IdfTable.from_document_frequencies({}, num_docs),
                               term_idf=term_idf)
