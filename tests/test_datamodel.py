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


def test_context_turn1_is_empty(biopsy_session):
    ctx = context_for_turn(biopsy_session, 1, Config())
    assert ctx.prior_queries == ()
    assert ctx.latest_answer is None


def test_context_collects_prior_queries_in_order(biopsy_session):
    ctx = context_for_turn(biopsy_session, 4, Config())
    assert ctx.prior_queries == tuple(t.raw_query for t in biopsy_session.turns[:3])
    assert "Lobular Neoplasia" in ctx.latest_answer


def test_context_uses_most_recent_available_answer():
    session = Session("s", (
        Turn(1, "first question", "the only passage"),
        Turn(2, "second question"),  # no canonical answer
        Turn(3, "third question"),
    ))
    ctx = context_for_turn(session, 3, Config())
    assert ctx.latest_answer == "the only passage"
    assert not ctx.truncated


def test_context_absent_answer_iff_no_prior_answer():
    session = Session("s", (Turn(1, "first"), Turn(2, "second")))
    assert context_for_turn(session, 2, Config()).latest_answer is None


def test_context_out_of_range(biopsy_session):
    with pytest.raises(IndexError):
        context_for_turn(biopsy_session, 5, Config())
    with pytest.raises(IndexError):
        context_for_turn(biopsy_session, 0, Config())


def test_context_truncates_long_answer_from_the_end():
    config = Config(reader_max_tokens=64)
    words = [f"w{i}" for i in range(64 + 100)]
    session = Session("s", (
        Turn(1, "short question", " ".join(words)),
        Turn(2, "follow up"),
    ))
    ctx = context_for_turn(session, 2, config)
    assert ctx.truncated
    # proper prefix, cut from the end
    assert ctx.latest_answer.split() == words[:len(ctx.latest_answer.split())]
    assert ctx.prior_queries == ("short question",)
    # the formatted reader input for a probe question fits the budget
    rinput = build_reader_input("what is it about?", ctx, config)
    assert count_tokens(rinput.formatted) <= config.reader_max_tokens


def test_context_is_deterministic(biopsy_session):
    a = context_for_turn(biopsy_session, 4, Config())
    b = context_for_turn(biopsy_session, 4, Config())
    assert a == b


def test_serialize_concatenates_queries_then_answer():
    ctx = DialogueContext(prior_queries=("q one", "q two"), latest_answer="the answer")
    assert ctx.serialize() == "q one q two the answer"
