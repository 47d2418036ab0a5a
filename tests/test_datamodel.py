import math

import pytest

from zeqr.datamodel import Config, DialogueContext, Session, Turn, context_for_turn
from zeqr.reader import build_reader_input
from zeqr.text import count_tokens


def test_turn_rejects_blank_query():
    with pytest.raises(ValueError):
        Turn(turn_id=1, raw_query="   ")


def test_turn_rejects_nonpositive_id():
    with pytest.raises(ValueError):
        Turn(turn_id=0, raw_query="hello")


def test_session_requires_contiguous_turn_ids():
    with pytest.raises(ValueError):
        Session("s", (Turn(1, "a"), Turn(3, "b")))
    with pytest.raises(ValueError):
        Session("s", ())


@pytest.mark.parametrize("kwargs", [
    {"idf_threshold": -0.1},
    {"bm25_k1": 0.0},
    {"bm25_b": 1.5},
    {"reader_max_tokens": 0},
    {"mode": "bogus"},
    {"map_relevance_cutoff": 0},
])
def test_config_validation(kwargs):
    with pytest.raises(ValueError):
        Config(**kwargs)


@pytest.mark.parametrize("kwargs", [
    {"idf_threshold": -0.1},
    {"bm25_k1": 0.0},
    {"mode": "bogus"},
])
def test_config_replace_checks_the_new_values(kwargs):
    with pytest.raises(ValueError):
        Config()._replace(**kwargs)


def test_records_are_immutable_named_tuples():
    config = Config(idf_threshold=1.5)
    assert config == Config(1.5) and config != Config()
    assert repr(config).startswith("Config(idf_threshold=1.5, bm25_k1=0.9, ")
    assert Config._field_defaults["mode"] == "full"
    with pytest.raises(AttributeError):
        config.mode = "passthrough"
    # sequences are kept as tuples, also through _replace
    session = Session("s", [Turn(1, "a")])
    assert session.turns == (Turn(1, "a"),)
    assert type(session._replace(turns=[Turn(1, "b")]).turns) is tuple
    assert DialogueContext(["a"]).prior_queries == ("a",)
    with pytest.raises(ValueError):
        session._replace(turns=[Turn(2, "b")])


@pytest.mark.parametrize("name", ["idf_threshold", "bm25_k1", "bm25_b", "min_answer_score"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_config_rejects_non_finite_values(name, value):
    with pytest.raises(ValueError) as exc:
        Config(**{name: value})
    assert str(exc.value).startswith(f"{name} must be finite")


def test_context_turn1_is_empty(biopsy_session):
    ctx = context_for_turn(biopsy_session, 1)
    assert ctx.prior_queries == ()
    assert ctx.latest_answer is None


def test_context_collects_prior_queries_in_order(biopsy_session):
    ctx = context_for_turn(biopsy_session, 4)
    assert ctx.prior_queries == tuple(t.raw_query for t in biopsy_session.turns[:3])
    assert "Lobular Neoplasia" in ctx.latest_answer


def test_context_uses_most_recent_available_answer():
    session = Session("s", (
        Turn(1, "first question", "the only passage"),
        Turn(2, "second question"),  # no canonical answer
        Turn(3, "third question"),
    ))
    ctx = context_for_turn(session, 3)
    assert ctx.latest_answer == "the only passage"
    assert build_reader_input("which?", ctx, Config()).context == \
        "first question second question the only passage"


def test_context_absent_answer_iff_no_prior_answer():
    session = Session("s", (Turn(1, "first"), Turn(2, "second")))
    assert context_for_turn(session, 2).latest_answer is None


def test_context_out_of_range(biopsy_session):
    with pytest.raises(IndexError):
        context_for_turn(biopsy_session, 5)
    with pytest.raises(IndexError):
        context_for_turn(biopsy_session, 0)


def test_context_truncates_long_answer_from_the_end():
    config = Config(reader_max_tokens=64)
    words = [f"w{i}" for i in range(64 + 100)]
    session = Session("s", (
        Turn(1, "short question", " ".join(words)),
        Turn(2, "follow up"),
    ))
    ctx = context_for_turn(session, 2)
    assert ctx.prior_queries == ("short question",)
    # only the reader input is cut: the prior query, then a proper prefix
    # of the passage, cut from the end
    rinput = build_reader_input("what is it about?", ctx, config)
    kept = rinput.context.split()
    assert kept[:2] == ["short", "question"]
    assert kept[2:] == words[:len(kept) - 2] and len(kept) - 2 < len(words)
    # question, separator and context fit the budget
    assert count_tokens(rinput.question) + 1 + len(kept) <= config.reader_max_tokens


def test_context_is_deterministic(biopsy_session):
    a = context_for_turn(biopsy_session, 4)
    b = context_for_turn(biopsy_session, 4)
    assert a == b


def test_serialize_concatenates_queries_then_answer():
    ctx = DialogueContext(prior_queries=("q one", "q two"), latest_answer="the answer")
    assert ctx.serialize() == "q one q two the answer"
