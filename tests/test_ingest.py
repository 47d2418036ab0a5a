import json
import math
import random
import re

import pytest

from zeqr.datamodel import Turn
from zeqr.errors import ParseError
from zeqr.ingest import (
    Document,
    build_idf_table,
    load_collection,
    load_idf_table,
    load_qrels,
    load_topics,
    located,
    parse_json,
    read_json,
    read_lines,
    save_idf_table,
)


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


# ---- the one reading path ----

def test_read_lines_counts_blank_lines_and_strips_endings(tmp_path):
    path = tmp_path / "lines.txt"
    path.write_bytes(b"first\r\n\n  \nsecond \nthird")
    assert list(read_lines(path)) == [(1, "first"), (4, "second "), (5, "third")]


@pytest.mark.parametrize("reader", [lambda p: list(read_lines(p)), read_json])
def test_undecodable_input_names_its_first_bad_line(tmp_path, reader):
    # the bad byte sits past the text decoder's first chunk
    path = tmp_path / "latin1.txt"
    path.write_bytes(b"[\n" + b'"ok",\n' * 5000 + b'"caf\xe9"]\n')
    with pytest.raises(ParseError, match=f"^{re.escape(str(path))}:5002: not UTF-8"):
        reader(path)


@pytest.mark.parametrize("text", ['"\\ud800"', '{"a\\udfffb": 1}', '["ok", ["\\uDC00"]]',
                                  '"\\ude00\\ud83d"'])
def test_a_lone_surrogate_escape_names_its_line(text):
    with pytest.raises(ParseError, match=r"^f\.jsonl:3: a string holds the lone surrogate"):
        with located("f.jsonl", 3):
            parse_json(text)


@pytest.mark.parametrize("text, value", [('"\\ud83d\\ude00"', "\U0001f600"),
                                         ('"\\\\ud800"', "\\ud800"),
                                         ('"caf\\u00e9"', "caf\u00e9")])
def test_escapes_that_decode_to_valid_text_parse(text, value):
    assert parse_json(text) == value


# ---- collection ----

def test_load_collection_roundtrip(tmp_path):
    path = _write(tmp_path, "c.jsonl",
                  '{"id": "d1", "contents": "alpha beta"}\n'
                  '{"id": "d2", "contents": "gamma"}\n')
    docs = load_collection(path)
    assert [d.doc_id for d in docs] == ["d1", "d2"]
    assert docs[0].body == "alpha beta"


def test_load_collection_duplicate_id(tmp_path):
    path = _write(tmp_path, "c.jsonl",
                  '{"id": "d1", "contents": "a"}\n{"id": "d1", "contents": "b"}\n')
    with pytest.raises(ParseError) as exc:
        load_collection(path)
    assert "d1" in str(exc.value)


def test_load_collection_bad_line_number(tmp_path):
    path = _write(tmp_path, "c.jsonl", '{"id": "d1", "contents": "a"}\nnot json\n')
    with pytest.raises(ParseError) as exc:
        load_collection(path)
    assert exc.value.line == 2


# ---- topics ----

def _topic(number, turns):
    return {"number": number, "turn": turns}


def test_load_topics_structure(tmp_path):
    payload = [
        _topic("1", [{"number": i, "raw_utterance": f"q{i}"} for i in (1, 2, 3)]),
        _topic("2", [{"number": i, "raw_utterance": f"p{i}"} for i in (1, 2, 3)]),
    ]
    path = _write(tmp_path, "t.json", json.dumps(payload))
    sessions = load_topics(path)
    assert [s.session_id for s in sessions] == ["1", "2"]
    assert all(len(s.turns) == 3 for s in sessions)


@pytest.mark.parametrize("number", [1, "1", "01"])
def test_a_turn_number_is_a_json_integer_or_a_string_of_one(tmp_path, number):
    path = _write(tmp_path, "t.json", json.dumps([_topic("7", [
        {"number": number, "raw_utterance": "q"}])]))
    (session,) = load_topics(path)
    assert session.turns[0].turn_id == 1


@pytest.mark.parametrize("number", [2.7, 1.0, True, False, None, [1], "1.5", "one", " 1",
                                    "1_0", "\u0661"])
def test_a_turn_number_that_is_not_an_integer_fails_at_the_topics_path(tmp_path, number):
    # 2.7 was loaded as turn 2 and written as 7_2, true as turn 1, "1_0" as turn 10
    turns = [{"number": 1, "raw_utterance": "q1"}, {"number": number, "raw_utterance": "q2"}]
    path = _write(tmp_path, "t.json", json.dumps([_topic("7", turns)]))
    with pytest.raises(ParseError, match=rf"^{re.escape(str(path))}: topic 7: turn number "
                                         rf"{re.escape(repr(number))} is not an integer$"):
        load_topics(path)


def test_load_topics_biopsy_fixture(mini_dir, mini_collection):
    sessions = load_topics(mini_dir / "topics.json",
                           {doc.doc_id: doc.body for doc in mini_collection})
    bio = next(s for s in sessions if s.session_id == "79")
    assert bio.turns[3].raw_query.endswith("What are common treatments?")
    assert bio.turns[0].canonical_answer is not None  # resolved from the collection


def test_load_topics_unknown_canonical_id(tmp_path):
    payload = [_topic("1", [{"number": 1, "raw_utterance": "q",
                             "canonical_result_id": "missing-doc"}])]
    path = _write(tmp_path, "t.json", json.dumps(payload))
    with pytest.raises(ParseError) as exc:
        load_topics(path, {"d1": "body"})
    assert "missing-doc" in str(exc.value)


def test_load_topics_leaves_the_passage_absent_without_collection(tmp_path):
    payload = [_topic("1", [{"number": 1, "raw_utterance": "q",
                             "canonical_result_id": "d9"}])]
    path = _write(tmp_path, "t.json", json.dumps(payload))
    (session,) = load_topics(path)
    assert session.turns == (Turn(turn_id=1, raw_query="q"),)


# ---- qrels ----

def test_load_qrels_single_line(tmp_path):
    qrels = load_qrels(_write(tmp_path, "q.txt", "q1 0 d1 2\n"))
    assert qrels.judgments[("q1", "d1")] == 2


def test_load_qrels_empty(tmp_path):
    assert load_qrels(_write(tmp_path, "q.txt", "")).judgments == {}


def test_load_qrels_duplicate_last_wins(tmp_path):
    first = load_qrels(_write(tmp_path, "a.txt", "q1 0 d1 1\nq1 0 d1 3\n"))
    second = load_qrels(_write(tmp_path, "b.txt", "q1 0 d1 3\nq1 0 d1 1\n"))
    assert first.judgments[("q1", "d1")] == 3
    assert second.judgments[("q1", "d1")] == 1


def test_load_qrels_malformed_line(tmp_path):
    with pytest.raises(ParseError) as exc:
        load_qrels(_write(tmp_path, "q.txt", "q1 0 d1 2\nq2 0 d2\n"))
    assert exc.value.line == 2


# ---- idf ----

def test_idf_full_coverage_term_is_zero():
    docs = [Document(f"d{i}", f"shared unique{i}") for i in range(5)]
    table = build_idf_table(docs)
    assert table.lookup("shared") == pytest.approx(0.0)


def test_idf_rare_term_formula():
    docs = [Document("d0", "needle haystack")]
    docs += [Document(f"d{i}", "haystack straw") for i in range(1, 100)]
    table = build_idf_table(docs)
    assert table.lookup("needle") == pytest.approx(math.log(100 / 1), abs=1e-9)
    assert table.lookup("absent-term") == pytest.approx(math.log(100 / 0.5), abs=1e-9)


def test_idf_monotone_in_document_frequency():
    docs = [Document("d1", "a b c"), Document("d2", "a b"), Document("d3", "a")]
    table = build_idf_table(docs)
    assert table.lookup("a") < table.lookup("b") < table.lookup("c")


def test_idf_order_insensitive(mini_collection):
    shuffled = list(mini_collection)
    random.Random(7).shuffle(shuffled)
    assert build_idf_table(shuffled) == build_idf_table(mini_collection)


def test_idf_empty_collection_rejected():
    with pytest.raises(ValueError):
        build_idf_table([])


def test_idf_cache_roundtrip_bit_exact(tmp_path, mini_idf):
    path = tmp_path / "idf.tsv"
    save_idf_table(mini_idf, path)
    loaded = load_idf_table(path)
    assert loaded == mini_idf
    assert path.read_text().startswith(f"#docs={mini_idf.num_docs}\n")


def test_idf_cache_rejects_missing_header(tmp_path):
    path = tmp_path / "idf.tsv"
    path.write_text("term\t1.0\n")
    with pytest.raises(ParseError):
        load_idf_table(path)
