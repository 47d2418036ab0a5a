import ast
import json
import math
import random
import re
from pathlib import Path

import pytest

from zeqr.datamodel import Session, Turn
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
    read_traces,
    save_idf_table,
)

SRC = Path(__file__).parents[1] / "src" / "zeqr"


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


def test_no_module_parses_json_outside_parse_json():
    # parse_json turns every way a JSON text can fail, a recursion error
    # included, into one ValueError; a json.load or json.loads call elsewhere
    # would let the others escape.
    calls = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        allowed = set()
        if path.name == "ingest.py":
            (parse,) = [node for node in tree.body
                        if isinstance(node, ast.FunctionDef) and node.name == "parse_json"]
            allowed = set(ast.walk(parse))
        for node in ast.walk(tree):
            if node in allowed:
                continue
            if (isinstance(node, ast.Attribute) and node.attr in ("load", "loads")
                    and isinstance(node.value, ast.Name) and node.value.id == "json"):
                calls.append(f"{path.name}:{node.lineno}")
            if isinstance(node, ast.ImportFrom) and node.module == "json" and \
                    {alias.name for alias in node.names} & {"load", "loads"}:
                calls.append(f"{path.name}:{node.lineno}")
    assert calls == []


def test_no_loader_checks_a_json_shape_outside_check_json():
    # a topics file, a collection line and an index's metadata are checked
    # by their tables, as traces and replies are; an isinstance ladder
    # beside them would be a second checker with its own messages
    sites = []
    for name in ("ingest.py", "retrieval.py"):
        tree = ast.parse((SRC / name).read_text(encoding="utf-8"))
        allowed = set()
        if name == "ingest.py":
            (check,) = [node for node in tree.body
                        if isinstance(node, ast.FunctionDef) and node.name == "check_json"]
            allowed = set(ast.walk(check))
        for node in ast.walk(tree):
            if (node not in allowed and isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Name) and node.func.id == "isinstance"
                    and len(node.args) == 2):
                kinds = node.args[1].elts if isinstance(node.args[1], ast.Tuple) \
                    else [node.args[1]]
                if any(isinstance(kind, ast.Name) and kind.id in ("dict", "list")
                       for kind in kinds):
                    sites.append(f"{name}:{node.lineno}")
    assert sites == []


# ---- collection ----

def test_load_collection_roundtrip(tmp_path):
    # an integer id is read as its decimal text; a field beyond id and
    # contents is ignored
    path = _write(tmp_path, "c.jsonl",
                  '{"id": "d1", "contents": "alpha beta"}\n'
                  '{"id": "d2", "contents": "gamma", "title": "G", "meta": {"year": 1}}\n'
                  '{"id": 7, "contents": "delta"}\n')
    docs = load_collection(path)
    assert [d.doc_id for d in docs] == ["d1", "d2", "7"]
    assert docs[0].body == "alpha beta"
    assert docs[1].body == "gamma"


@pytest.mark.parametrize("line, message", [
    ('{"id": "d2", "contents": null}', "contents is null, not a string"),
    ('{"id": 2.5, "contents": "z"}', "id is 2.5, not a string or an integer"),
    ('{"id": true, "contents": "z"}', "id is true, not a string or an integer"),
    ('{"id": "d2"}', "the record has no field 'contents'"),
    ('["d2", "z"]', 'the record is ["d2", "z"], not an object'),
])
def test_a_collection_line_of_the_wrong_shape_names_its_field(tmp_path, line, message):
    path = _write(tmp_path, "c.jsonl", '{"id": "d1", "contents": "a"}\n' + line + "\n")
    with pytest.raises(ParseError, match=f"^{re.escape(f'{path}:2: {message}')}$"):
        load_collection(path)


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
    message = (f"{path}: topics[0].turn[1].number is {json.dumps(number, ensure_ascii=False)}, "
               "not an integer or a string of ASCII digits")
    with pytest.raises(ParseError, match=f"^{re.escape(message)}$"):
        load_topics(path)


@pytest.mark.parametrize("number", [7, "7"])
def test_a_topic_number_is_a_json_string_or_integer(tmp_path, number):
    path = _write(tmp_path, "t.json", json.dumps([_topic(number, [
        {"number": 1, "raw_utterance": "q"}])]))
    (session,) = load_topics(path)
    assert session.session_id == "7"


@pytest.mark.parametrize("canonical, answer", [
    ({}, None),
    ({"canonical_result_id": None, "canonical_passage": None}, None),
    ({"canonical_passage": "inline"}, "inline"),
    ({"canonical_result_id": "d1"}, "body"),
    ({"canonical_result_id": "d1", "canonical_passage": None}, "body"),
    ({"canonical_result_id": None, "canonical_passage": "inline"}, "inline"),
    ({"canonical_result_id": "d1", "canonical_passage": "inline"}, "inline"),
], ids=["absent", "null", "passage", "id", "id-null-passage", "null-id-passage",
        "id-and-passage"])
def test_a_turn_of_any_accepted_shape_loads(tmp_path, canonical, answer):
    # fields beyond the format's, at the topic and the turn, are ignored
    path = _write(tmp_path, "t.json", json.dumps([{
        "number": "7", "title": "extra", "turn": [
            {"number": "01", "raw_utterance": "q", "speaker": "user", **canonical}]}]))
    assert load_topics(path, {"d1": "body"}) == [Session("7", (Turn(1, "q", answer),))]


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


# ---- traces ----

# A trace line with one step of each kind, as `zeqr run` writes one.
TRACE_LINE = {
    "query_id": "1_2", "raw_query": "Is it safe?", "mode": "full",
    "coref_steps": [{"pronoun": {"token_index": 1, "surface": "it", "is_possessive": False},
                     "question": "q1",
                     "answer": {"text": "X", "char_start": 0, "char_end": 1, "score": 1.0},
                     "applied": True}],
    "q_star": "Is X safe?",
    "omission_steps": [{"candidate": {"token_index": 2, "surface": "safe", "kind": "noun",
                                      "idf": 3.0},
                        "preposition": "of", "question": "q2", "answer": None,
                        "applied": False}],
    "q_double_star": "Is X safe?"}

_GONE = object()


def _edited(record, field, value):
    """A deep copy of a JSON record with the field at the key path `field`
    set to value, or deleted when value is _GONE; an empty path replaces
    the record."""
    if not field:
        return value
    record = json.loads(json.dumps(record))
    *parents, last = field
    holder = record
    for key in parents:
        holder = holder[key]
    if value is _GONE:
        del holder[last]
    else:
        holder[last] = value
    return record


@pytest.mark.parametrize("field, value", [
    (("coref_steps", 0, "answer", "score"), 1),
    (("coref_steps", 0, "answer"), None),
    (("omission_steps", 0, "candidate", "idf"), 0),
    (("omission_steps",), []),
    (("query_id",), "79_4\u00e9"),
], ids=["int_score", "null_answer", "int_idf", "no_omission_step", "non_ascii_id"])
def test_read_traces_takes_each_value_a_run_can_write(tmp_path, field, value):
    record = _edited(TRACE_LINE, field, value)
    path = _write(tmp_path, "traces.jsonl", f"\n{json.dumps(record, ensure_ascii=False)}\n\n"
                  f"{json.dumps(TRACE_LINE)}\n")
    assert read_traces(path) == [record, TRACE_LINE]


BAD_TRACE_LINES = {
    "q_star_a_number": ((("q_star",), 5), "q_star is 5, not a string"),
    "pronoun_a_number": ((("coref_steps", 0, "pronoun"), 3),
                         "coref_steps[0].pronoun is 3, not an object"),
    "not_an_object": (((), []), "the record is [], not an object"),
    "long_value_cut": ((("coref_steps", 0, "pronoun"), "x" * 100),
                       f'coref_steps[0].pronoun is "{"x" * 36}..., not an object'),
    "query_id_with_space": ((("query_id",), "1 2"),
                            'query_id is "1 2", not a query id a run file can carry'),
    "query_id_empty": ((("query_id",), ""), 'query_id is "", not a query id'),
    "query_id_an_int": ((("query_id",), 12), "query_id is 12, not a query id"),
    "mode_unknown": ((("mode",), "fast"),
                     'mode is "fast", not one of full, coref_only, omission_only, '
                     "passthrough"),
    "steps_an_object": ((("omission_steps",), {}), "omission_steps is {}, not a list"),
    "kind_unknown": ((("omission_steps", 0, "candidate", "kind"), "adj"),
                     'omission_steps[0].candidate.kind is "adj", not noun or verb'),
    "idf_nan": ((("omission_steps", 0, "candidate", "idf"), math.nan),
                "omission_steps[0].candidate.idf is NaN, not a finite number"),
    "idf_a_boolean": ((("omission_steps", 0, "candidate", "idf"), True),
                      "omission_steps[0].candidate.idf is true, not a finite number"),
    "score_infinite": ((("coref_steps", 0, "answer", "score"), math.inf),
                       "coref_steps[0].answer.score is Infinity, not a finite number"),
    "score_past_the_float_range": ((("coref_steps", 0, "answer", "score"), 10 ** 400),
                                   "coref_steps[0].answer.score is 1000000000000000000000"
                                   "000000000000000..., not a finite number"),
    "score_a_string": ((("coref_steps", 0, "answer", "score"), "1.0"),
                       'coref_steps[0].answer.score is "1.0", not a finite number'),
    "answer_a_number": ((("coref_steps", 0, "answer"), 3),
                        "coref_steps[0].answer is 3, not null or an object"),
    "token_index_a_boolean": ((("coref_steps", 0, "pronoun", "token_index"), False),
                              "coref_steps[0].pronoun.token_index is false, not an integer"),
    "token_index_a_float": ((("omission_steps", 0, "candidate", "token_index"), 2.0),
                            "omission_steps[0].candidate.token_index is 2.0, not an integer"),
    "possessive_a_number": ((("coref_steps", 0, "pronoun", "is_possessive"), 0),
                            "coref_steps[0].pronoun.is_possessive is 0, not a boolean"),
    "applied_null": ((("omission_steps", 0, "applied"), None),
                     "omission_steps[0].applied is null, not a boolean"),
    "raw_query_missing": ((("raw_query",), _GONE), "the record has no field 'raw_query'"),
    "char_end_missing": ((("coref_steps", 0, "answer", "char_end"), _GONE),
                         "coref_steps[0].answer has no field 'char_end'"),
    "unknown_field": ((("skip",), "echo"), "the record has an unknown field 'skip'"),
    "preposition_in_a_coref_step": ((("coref_steps", 0, "preposition"), "of"),
                                    "coref_steps[0] has an unknown field 'preposition'"),
    "preposition_missing": ((("omission_steps", 0, "preposition"), _GONE),
                            "omission_steps[0] has no field 'preposition'"),
}


@pytest.mark.parametrize("case", BAD_TRACE_LINES)
def test_read_traces_names_the_field_a_bad_line_breaks(tmp_path, case):
    (field, value), message = BAD_TRACE_LINES[case]
    # the bad record on line 3, after a good one and a blank line
    path = _write(tmp_path, "traces.jsonl", f"{json.dumps(TRACE_LINE)}\n\n"
                  f"{json.dumps(_edited(TRACE_LINE, field, value))}\n")
    with pytest.raises(ParseError) as exc:
        read_traces(path)
    assert exc.value.line == 3
    assert str(exc.value).startswith(f"{path}:3: {message}")
