"""Seeded input generator for the pipeline benchmark.

From one seed it writes the four inputs a workload needs:

- the collection: the zipf corpus of ``benchmarks/bench_bm25.py`` with real
  English words placed at chosen frequency ranks, so the IDF gates of the
  omission detector behave as they do on the mini fixture (function words
  and query verbs are frequent, the bare nouns asked about are rare), plus
  entity passages injected for every session;
- the topics: sessions that name an entity in turn 1 and then refer to it
  with pronouns and bare nouns, each turn pointing at a canonical passage;
- the qrels, at the workload's judgment depth;
- the oracle map, built from the paper's two template strings, which the
  oracle reader and the loopback reader service both answer from.
"""

from __future__ import annotations

import importlib.util
import json
import random
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# The paper's question templates (coreference, then omission).
COREF_TEMPLATE = 'What is {pronoun} refer to, in "{query}"'
OMISSION_TEMPLATE = '{word} {preposition} what, in "{query}"'

# Words placed at fixed zipf ranks of the synthetic vocabulary, from rank 0.
# Ranks below ~150 give idf below the default 2.65 gate on a zipf(1)
# vocabulary of 5000 terms with 20-200 terms per document; ranks above ~250
# give idf above it.
FREQUENT_WORDS = (
    "the of and a to in is it that for are was with as on be by this at from "
    "or have an which what how its can does do not their these they more also "
    "most common main tell me about any than better thought wow when there "
    "treated diagnosed measured classified detected prevented described known"
).split()
# Bare nouns asked about in the omission turns: frequent enough to appear in
# background documents, rare enough to pass the importance gate.
BARE_NOUNS = (
    "treatments symptoms risks complications origins benefits costs effects "
    "limitations applications variants stages signs regulations permits "
    "ingredients features requirements alternatives outcomes"
).split()
BARE_NOUN_FIRST_RANK = 400
BARE_NOUN_RANK_STEP = 60

_SYLLABLES_A = ("Kav", "Tor", "Mel", "Dra", "Vos", "Quen", "Bri", "Zal", "Fen",
                "Hol", "Jur", "Lon", "Nev", "Pas", "Rim", "Sul", "Tev", "Wex",
                "Yor", "Gald", "Orm", "Cend", "Ul", "Ebr")
_SYLLABLES_B = ("rel", "in", "or", "en", "ar", "ix", "on", "ek", "um", "eth",
                "ov", "ax", "ur", "ir")

# Turn templates after the entity turn: a coreference turn, a bare-noun
# turn, then mixed turns whose pronoun is given beside the template. Every
# templated turn ends with a clause naming a year unique to the session, so
# no two sessions ask the same question (the oracle map is keyed by question
# alone); digits are neither tagged as nouns nor indexed in the collection.
# The detections each template should produce are checked by
# perfbench/test_perfbench.py against zeqr's own detectors.
_ENTITY_TURNS = ("What is {E}?", "Tell me about {E}.")
_COREF_TURNS = ("How is it {V}, as of {Y}?", "When is it {V}, as of {Y}?")
_BARE_TURNS = ("What are the common {N}, as of {Y}?", "What about the {N}, as of {Y}?")
_MIXED_TURNS = (
    ("What are its {N}, as of {Y}?", "its"),
    ("Does it have any {N}, as of {Y}?", "it"),
    ("Wow, that is better than I thought. What are common {N}, as of {Y}?", "that"),
)
_VERBS = ("treated", "diagnosed", "measured", "classified", "detected",
          "prevented", "described", "known")
_FIRST_YEAR = 1800
_YEARS = 300

TURNS_PER_SESSION = 5


@dataclass(frozen=True)
class Sizes:
    """Input sizes of one workload."""

    docs: int
    sessions: int
    judgments: int
    vocab: int = 5000

    @property
    def turns(self) -> int:
        return self.sessions * TURNS_PER_SESSION


@dataclass(frozen=True)
class Inputs:
    """Paths of the generated files plus the facts the gate needs."""

    collection: Path
    topics: Path
    qrels: Path
    oracle: Path
    sessions: list  # [(session_id, [raw query, ...])]
    num_turns: int
    num_judgments: int


def _load_bench_bm25():
    path = ROOT / "benchmarks" / "bench_bm25.py"
    spec = importlib.util.spec_from_file_location("bench_bm25", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _word_map(vocab: int) -> dict[str, str]:
    mapping = {f"t{rank}": word for rank, word in enumerate(FREQUENT_WORDS)}
    for i, word in enumerate(BARE_NOUNS):
        rank = BARE_NOUN_FIRST_RANK + i * BARE_NOUN_RANK_STEP
        if rank >= vocab:
            raise ValueError(f"vocab {vocab} too small for bare noun ranks")
        mapping[f"t{rank}"] = word
    return mapping


def _entity_names(rng: random.Random, count: int) -> list[str]:
    words = sorted({a + b for a in _SYLLABLES_A for b in _SYLLABLES_B})
    if 2 * count > len(words):
        raise ValueError(f"at most {len(words) // 2} sessions supported")
    rng.shuffle(words)
    return [f"{words[2 * i]} {words[2 * i + 1]}" for i in range(count)]


def _session_turns(rng: random.Random, entity: str, year: int, nouns: list[str]):
    """Raw turns plus the oracle entries that answer them.

    Returns (turns, answers) where answers maps each templated question the
    pipeline will ask to the entity; omission questions on a query that
    already names the entity are included too, so those steps are asked and
    then skipped as duplicates, as with a real reader.
    """
    answers: dict[str, str] = {}

    def coref(pronoun: str, query: str) -> str:
        """Record the question and return q*, the query after the splice."""
        answers[COREF_TEMPLATE.format(pronoun=pronoun, query=query)] = entity
        replacement = entity + "'s" if pronoun == "its" else entity
        return query.replace(f" {pronoun} ", f" {replacement} ", 1)

    def omission(noun: str, query: str) -> None:
        answers[OMISSION_TEMPLATE.format(word=noun, preposition="of", query=query)] = entity

    turns = [rng.choice(_ENTITY_TURNS).format(E=entity)]

    query = rng.choice(_COREF_TURNS).format(V=rng.choice(_VERBS), Y=year)
    coref("it", query)
    turns.append(query)

    query = rng.choice(_BARE_TURNS).format(N=nouns[0], Y=year)
    omission(nouns[0], query)
    turns.append(query)

    for noun in nouns[1:]:
        template, pronoun = rng.choice(_MIXED_TURNS)
        query = template.format(N=noun, Y=year)
        omission(noun, coref(pronoun, query))
        turns.append(query)
    return turns, answers


def generate(out_dir: Path, seed: int, sizes: Sizes) -> Inputs:
    """Write collection, topics, qrels and oracle map for one seed."""
    rng = random.Random(seed)
    out_dir.mkdir(parents=True, exist_ok=True)
    bench_bm25 = _load_bench_bm25()
    background = bench_bm25.synthetic_corpus(sizes.docs, sizes.vocab, seed)
    words = _word_map(sizes.vocab)
    bodies = [[words.get(t, t) for t in doc.body.split()] for doc in background]
    doc_ids = [doc.doc_id for doc in background]

    nouns_per_session = TURNS_PER_SESSION - 2
    # Relevant passages per session: deeper qrels judge a few more of them.
    per_noun = 3 if sizes.judgments >= 30 else 2
    entity_only = 3 if sizes.judgments >= 30 else 2
    entity_docs_per_session = nouns_per_session * per_noun + entity_only
    if sizes.sessions * entity_docs_per_session > sizes.docs // 2:
        raise ValueError("too many sessions for the collection size")
    free = rng.sample(range(sizes.docs), sizes.sessions * entity_docs_per_session)

    entities = _entity_names(rng, sizes.sessions)
    if sizes.sessions > _YEARS:
        raise ValueError(f"at most {_YEARS} sessions supported")
    years = rng.sample(range(_FIRST_YEAR, _FIRST_YEAR + _YEARS), sizes.sessions)
    topics, qrels_lines, oracle, sessions = [], [], {}, []
    for s, entity in enumerate(entities):
        session_id = str(s + 1)
        nouns = rng.sample(BARE_NOUNS, nouns_per_session)
        mine = free[s * entity_docs_per_session:(s + 1) * entity_docs_per_session]
        noun_docs: dict[str, list[int]] = {}
        for j, d in enumerate(mine):
            inject = [entity] * rng.randint(1, 3)
            if j < nouns_per_session * per_noun:
                noun = nouns[j // per_noun]
                noun_docs.setdefault(noun, []).append(d)
                inject += [noun] * rng.randint(1, 2)
            for token in inject:
                bodies[d].insert(rng.randrange(len(bodies[d]) + 1), token)

        turns, answers = _session_turns(rng, entity, years[s], nouns)
        oracle.update(answers)
        sessions.append((session_id, turns))
        topic_turns = []
        for t, raw in enumerate(turns, start=1):
            noun = nouns[t - 3] if t >= 3 else None
            grade2 = set(noun_docs[noun]) if noun else set()
            judged = {doc_ids[d]: (2 if d in grade2 else 1) for d in mine}
            canonical = min(grade2) if grade2 else mine[-1]
            topic_turns.append({"number": t, "raw_utterance": raw,
                                "canonical_result_id": doc_ids[canonical]})
            while len(judged) < sizes.judgments:
                judged.setdefault(doc_ids[rng.randrange(sizes.docs)], 0)
            qrels_lines += [f"{session_id}_{t} 0 {doc} {grade}"
                            for doc, grade in judged.items()]
        topics.append({"number": session_id, "turn": topic_turns})

    inputs = Inputs(
        collection=out_dir / "collection.jsonl",
        topics=out_dir / "topics.json",
        qrels=out_dir / "qrels.txt",
        oracle=out_dir / "oracle.json",
        sessions=sessions,
        num_turns=sizes.turns,
        num_judgments=len(qrels_lines),
    )
    with inputs.collection.open("w", encoding="utf-8") as fh:
        for doc_id, body in zip(doc_ids, bodies):
            fh.write(json.dumps({"id": doc_id, "contents": " ".join(body)}) + "\n")
    inputs.topics.write_text(json.dumps(topics, indent=1) + "\n", encoding="utf-8")
    inputs.qrels.write_text("\n".join(qrels_lines) + "\n", encoding="utf-8")
    inputs.oracle.write_text(json.dumps(oracle, indent=1, sort_keys=True) + "\n",
                             encoding="utf-8")
    return inputs
