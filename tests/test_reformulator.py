import json
import math

import pytest
from hypothesis import given, strategies as st

from conftest import (
    BIOPSY_COREF_QUESTION,
    BIOPSY_OMISSION_QUESTION,
    BIOPSY_Q4,
    BIOPSY_Q4_RESOLVED,
    BIOPSY_Q4_STAR,
    FixedReader,
    oracle_reply,
)
from zeqr.datamodel import Config, Turn, context_for_turn
from zeqr.errors import ProtocolError, TransportError
from zeqr.ingest import IdfTable, read_traces
from zeqr.linguistics import OmissionCandidate, PronounMention
from zeqr.reader import OracleReader, SpanAnswer
from zeqr.reformulator import (
    CorefStep,
    OmissionStep,
    ReformulationTrace,
    make_coref_question,
    make_omission_question,
    reformulate,
    resolve_coreference,
    resolve_omission,
)
from zeqr.text import normalize


# ---- templates ----

def test_coref_template_biopsy_turn():
    assert make_coref_question("that", BIOPSY_Q4) == BIOPSY_COREF_QUESTION


def test_coref_template_simple():
    assert make_coref_question("it", "Is it safe?") == 'What is it refer to, in "Is it safe?"'


def test_coref_template_possessive_surface():
    query = "What is its main economic activity?"
    assert make_coref_question("its", query) == \
        'What is its refer to, in "What is its main economic activity?"'


def test_omission_template_biopsy_turn():
    assert make_omission_question("treatments", "noun", BIOPSY_Q4_STAR) == \
        BIOPSY_OMISSION_QUESTION


def test_omission_template_verb():
    assert make_omission_question("spread", "verb", "how likely is it to spread?") == \
        'spread to what, in "how likely is it to spread?"'


def test_omission_template_noun_preposition():
    assert make_omission_question("rules", "noun", "What are the EU rules?") == \
        'rules of what, in "What are the EU rules?"'


def test_omission_template_rejects_unknown_kind():
    with pytest.raises(ValueError):
        make_omission_question("x", "adjective", "q")


# ---- resolve_coreference ----

def test_biopsy_coreference(biopsy_session, biopsy_oracle, hand_idf):
    config = Config()
    ctx = context_for_turn(biopsy_session, 4, Config())
    q_star, steps = resolve_coreference(BIOPSY_Q4, ctx, biopsy_oracle, config)
    assert q_star == BIOPSY_Q4_STAR
    assert len(steps) == 1 and steps[0].applied
    assert steps[0].question == BIOPSY_COREF_QUESTION


def test_pronoun_free_query_is_untouched(biopsy_session, biopsy_oracle):
    config = Config()
    ctx = context_for_turn(biopsy_session, 4, Config())
    q_star, steps = resolve_coreference("What are the EU rules?", ctx,
                                        biopsy_oracle, config)
    assert q_star == "What are the EU rules?"
    assert steps == []


def test_possessive_replacement_takes_clitic():
    config = Config()
    ctx = "What is the population of Salt Lake City?"
    oracle = OracleReader({
        'What is its refer to, in "What is its main economic activity?"': "Salt Lake City",
    })
    q_star, steps = resolve_coreference("What is its main economic activity?",
                                        ctx, oracle, config)
    assert q_star == "What is Salt Lake City's main economic activity?"
    assert steps[0].applied


def test_empty_context_skips_steps():
    config = Config()
    q_star, steps = resolve_coreference("Is it safe?", "",
                                        OracleReader({}), config)
    assert q_star == "Is it safe?"
    assert len(steps) == 1 and not steps[0].applied and steps[0].answer is None


def test_question_that_fills_the_budget_is_skipped_not_failed(hand_idf):
    # a question that leaves no room for context is not asked: its step
    # records no answer, and a shorter question with room is answered
    short, long = "Is it safe?", "Is it safe for children and for the elderly alike?"
    ctx = "aspirin is cheap"
    oracle = OracleReader({make_coref_question("it", q): "aspirin" for q in (short, long)})
    config = Config(mode="coref_only", reader_max_tokens=12)
    first = reformulate(Turn(1, short), ctx, hand_idf, oracle, config)
    second = reformulate(Turn(1, long), ctx, hand_idf, oracle, config)
    assert first.q_star == "Is aspirin safe?"
    assert second.q_star == long
    assert [(step.answer, step.applied) for step in second.coref_steps] == [(None, False)]


def test_answer_equal_to_pronoun_is_skipped():
    config = Config()
    ctx = "it it it"
    oracle = OracleReader({'What is it refer to, in "Is it safe?"': "it"})
    q_star, steps = resolve_coreference("Is it safe?", ctx, oracle, config)
    assert q_star == "Is it safe?"
    assert not steps[0].applied


def test_low_score_answer_is_skipped():
    # a negative score is no answer
    config = Config()
    ctx = "something else"
    reader = FixedReader(SpanAnswer(text="something", char_start=0, char_end=9, score=-0.1))
    q_star, steps = resolve_coreference("Is it safe?", ctx, reader, config)
    assert q_star == "Is it safe?"
    assert not steps[0].applied


# Answers of a library backend, which checks nothing itself, to 'What is it
# refer to, in "Is it safe?"' over the context "aspirin is cheap".
BAD_ANSWERS = {
    "offsets_one_off": SpanAnswer("aspirin", 1, 8, 1.0),
    "end_past_the_context": SpanAnswer("aspirin", 0, 99, 1.0),
    "negative_start": SpanAnswer("cheap", -5, 16, 1.0),
    "start_after_end": SpanAnswer("", 9, 8, 1.0),
    "boolean_offsets": SpanAnswer("a", False, True, 1.0),
    "float_offsets": SpanAnswer("aspirin", 0.0, 7.0, 1.0),
    "text_not_a_string": SpanAnswer(None, 0, 0, 1.0),
    "nan_score": SpanAnswer("aspirin", 0, 7, math.nan),
    "infinite_score": SpanAnswer("aspirin", 0, 7, math.inf),
    "score_past_the_float_range": SpanAnswer("aspirin", 0, 7, 10 ** 400),
    "string_score": SpanAnswer("aspirin", 0, 7, "1.0"),
    "boolean_score": SpanAnswer("aspirin", 0, 7, True),
    "no_score": SpanAnswer("aspirin", 0, 7, None),
}


@pytest.mark.parametrize("case", sorted(BAD_ANSWERS))
def test_any_backends_answer_that_breaks_the_span_contract_fails_the_question(case):
    # unchecked, a wrong span would reach the trace, and a NaN score would be
    # written to it as NaN, which is not JSON
    reader = FixedReader(BAD_ANSWERS[case])
    with pytest.raises(ProtocolError):
        resolve_coreference("Is it safe?", "aspirin is cheap", reader, Config())


@pytest.mark.parametrize("answer, q_star", [
    (SpanAnswer("aspirin", 0, 7, 1), "Is aspirin safe?"),  # an int score is a number
    (SpanAnswer("", 16, 16, 0.0), "Is it safe?"),          # an empty span at the end
])
def test_a_backends_answer_that_keeps_the_contract_is_taken(answer, q_star):
    assert resolve_coreference("Is it safe?", "aspirin is cheap", FixedReader(answer),
                               Config())[0] == q_star


def test_multiple_pronouns_share_stage_start_question():
    config = Config()
    ctx = "I had a breast biopsy. Non-invasive breast cancer stays in the ducts."
    question = 'What is it refer to, in "Once it breaks out, how likely is it to spread?"'
    oracle = OracleReader({question: "breast cancer"})
    q_star, steps = resolve_coreference(
        "Once it breaks out, how likely is it to spread?", ctx, oracle, config)
    assert q_star == "Once breast cancer breaks out, how likely is breast cancer to spread?"
    assert [s.question for s in steps] == [question, question]
    assert all(s.applied for s in steps)


# ---- resolve_omission ----

def test_biopsy_omission(biopsy_session, biopsy_oracle, hand_idf):
    config = Config()
    ctx = context_for_turn(biopsy_session, 4, Config())
    q2, steps = resolve_omission(BIOPSY_Q4_STAR, ctx, hand_idf, biopsy_oracle, config)
    assert q2 == BIOPSY_Q4_RESOLVED
    assert len(steps) == 1 and steps[0].applied
    assert steps[0].preposition == "of"


def test_eu_rules_omission(hand_idf):
    config = Config()
    ctx = "Tell me about GMO Food labeling. The EU rules of GMO Food labeling are strict."
    oracle = OracleReader({
        'rules of what, in "What are the EU rules?"': "GMO Food labeling",
    })
    q2, steps = resolve_omission("What are the EU rules?", ctx, hand_idf, oracle, config)
    assert q2 == "What are the EU rules of GMO Food labeling?"


def test_duplicate_answer_is_not_inserted(hand_idf):
    config = Config()
    ctx = "Salt Lake City info Salt Lake City is in Utah."
    oracle = OracleReader({
        'activity of what, in "What is Salt Lake City\'s main economic activity?"':
            "Salt Lake City",
    })
    query = "What is Salt Lake City's main economic activity?"
    q2, steps = resolve_omission(query, ctx, hand_idf, oracle, config)
    assert q2 == query
    assert len(steps) == 1 and not steps[0].applied


TREATMENTS_QUERY = "Which treatments help the {}?"


def _omit_treatments(tail: str, description: str) -> tuple[str, list]:
    # "treatments" is the only important word, so it is the one candidate
    query = TREATMENTS_QUERY.format(tail)
    idf = IdfTable(term_idf={"treatments": 3.5}, num_docs=100, default_idf=0.3)
    ctx = f"Tell me more. It is about {description} here."
    oracle = OracleReader({make_omission_question("treatments", "noun", query): description})
    return resolve_omission(query, ctx, idf, oracle, Config())


@pytest.mark.parametrize("tail, description, applied", [
    ("party", "art", True),          # "art" inside "party" is not a term of the query
    ("cancers", "cancer", True),     # nor is "cancer" inside "cancers"
    ("cancers", "Cancers!", False),  # the same term, cased and punctuated
    ("salt lake city", "Lake, City", False),
    ("salt lake city", "salt city", True),  # both terms occur, but not as one run
])
def test_duplicate_check_matches_whole_terms(tail, description, applied):
    query = TREATMENTS_QUERY.format(tail)
    q2, steps = _omit_treatments(tail, description)
    assert [step.applied for step in steps] == [applied]
    assert q2 == (query.replace("treatments", f"treatments of {description}") if applied
                  else query)


def test_duplicate_check_sees_earlier_insertions():
    # the second answer occurs only in the first step's insertion, so it is
    # a duplicate of the query as rewritten so far but not of q_star
    query = "Which treatments help, and which risks remain?"
    idf = IdfTable(term_idf={"treatments": 3.5, "risks": 3.5}, num_docs=100, default_idf=0.3)
    ctx = "Tell me more. It is about lobular carcinoma risks here."
    oracle = OracleReader({
        make_omission_question("treatments", "noun", query): "lobular carcinoma risks",
        make_omission_question("risks", "noun", query): "lobular carcinoma",
    })
    q2, steps = resolve_omission(query, ctx, idf, oracle, Config())
    assert [step.applied for step in steps] == [True, False]
    assert q2 == "Which treatments of lobular carcinoma risks help, and which risks remain?"


_WORDS = st.sampled_from(["the", "party", "art", "cancer", "cancers", "salt", "lake", "city"])


@given(st.lists(_WORDS, min_size=1, max_size=5),
       st.lists(st.tuples(_WORDS, st.sampled_from([" ", ", ", "-", " & "]), st.booleans()),
                min_size=1, max_size=3))
def test_duplicate_check_is_a_contiguous_term_run(tail_words, description_parts):
    tail = " ".join(tail_words)
    description = "".join((word.upper() if upper else word) + sep
                          for word, sep, upper in description_parts).strip(" ,-&")
    _, steps = _omit_treatments(tail, description)
    query_terms = " ".join(normalize(TREATMENTS_QUERY.format(tail)))
    present = f" {' '.join(normalize(description))} " in f" {query_terms} "
    assert [step.applied for step in steps] == [not present]


# ---- reformulate ----

def test_biopsy_full_mode_exact(biopsy_session, biopsy_oracle, hand_idf):
    config = Config(mode="full")
    ctx = context_for_turn(biopsy_session, 4, Config())
    trace = reformulate(biopsy_session.turns[3], ctx, hand_idf, biopsy_oracle, config)
    assert trace.q_double_star == BIOPSY_Q4_RESOLVED
    assert trace.q_star == BIOPSY_Q4_STAR


def test_turn1_empty_context_identity(biopsy_session, biopsy_oracle, hand_idf):
    config = Config(mode="full")
    ctx = context_for_turn(biopsy_session, 1, Config())
    trace = reformulate(biopsy_session.turns[0], ctx, hand_idf, biopsy_oracle, config)
    assert trace.q_double_star == biopsy_session.turns[0].raw_query


def _footnote_fixture(hand_idf):
    raw = "That is better than I thought. What are common ones?"
    context = ("How deadly is Lobular Carcinoma in Situ? "
               "In this case it will be described as Lobular Neoplasia. "
               "Common treatments include careful monitoring.")
    oracle = OracleReader({
        f'What is That refer to, in "{raw}"': "Lobular Neoplasia",
        f'What is ones refer to, in "{raw}"': "treatments",
        'treatments of what, in "Lobular Neoplasia is better than I thought. '
        'What are common treatments?"': "Lobular Carcinoma in Situ",
    })
    return raw, context, oracle


def test_footnote_scenario_full_resolves_both(hand_idf):
    raw, context, oracle = _footnote_fixture(hand_idf)
    config = Config(mode="full")
    trace = reformulate(Turn(1, raw), context, hand_idf, oracle, config)
    assert trace.q_double_star == (
        "Lobular Neoplasia is better than I thought. "
        "What are common treatments of Lobular Carcinoma in Situ?"
    )


def test_footnote_scenario_omission_only_misses_ones(hand_idf):
    raw, context, oracle = _footnote_fixture(hand_idf)
    config = Config(mode="omission_only")
    trace = reformulate(Turn(1, raw), context, hand_idf, oracle, config)
    assert "ones" in trace.q_double_star
    assert trace.q_double_star == raw


def test_passthrough_is_identity(biopsy_session, biopsy_oracle, hand_idf):
    config = Config(mode="passthrough")
    ctx = context_for_turn(biopsy_session, 4, Config())
    trace = reformulate(biopsy_session.turns[3], ctx, hand_idf, biopsy_oracle, config)
    assert trace.q_double_star == BIOPSY_Q4
    assert trace.coref_steps == () and trace.omission_steps == ()


def test_mode_algebra(biopsy_session, biopsy_oracle, hand_idf):
    ctx = context_for_turn(biopsy_session, 4, Config())
    turn = biopsy_session.turns[3]
    full = reformulate(turn, ctx, hand_idf, biopsy_oracle, Config(mode="full"))
    coref = reformulate(turn, ctx, hand_idf, biopsy_oracle, Config(mode="coref_only"))
    assert full.q_star == coref.q_double_star == coref.q_star


def test_idempotent_on_resolved_queries(hand_idf):
    config = Config(mode="full")
    ctx = "anything more text"
    turn = Turn(1, "What are the EU rules of GMO Food labeling?")
    trace = reformulate(turn, ctx, hand_idf, OracleReader({}), config)
    assert trace.q_double_star == turn.raw_query


def test_trace_order_and_serialization(biopsy_session, biopsy_oracle, hand_idf):
    config = Config(mode="full")
    ctx = context_for_turn(biopsy_session, 4, Config())
    trace = reformulate(biopsy_session.turns[3], ctx, hand_idf, biopsy_oracle, config)
    payload = json.loads(json.dumps(trace.to_dict()))
    assert payload["raw_query"] == BIOPSY_Q4
    assert payload["coref_steps"][0]["applied"] is True
    assert payload["omission_steps"][0]["preposition"] == "of"


def test_a_trace_line_as_run_writes_it_reads_back_through_read_traces(
        tmp_path, mini_sessions, mini_idf, mini_oracle, mini_config):
    # turn 79_4 asks both kinds of question, so a renamed field of any
    # trace record fails the reader here
    session = next(s for s in mini_sessions if s.session_id == "79")
    context = context_for_turn(session, 4, mini_config)
    trace = reformulate(session.turns[3], context, mini_idf, mini_oracle, mini_config)
    assert trace.coref_steps and trace.omission_steps
    line = json.dumps({"query_id": "79_4", **trace.to_dict()}, ensure_ascii=False)
    path = tmp_path / "traces.jsonl"
    path.write_text(line + "\n", encoding="utf-8")
    assert read_traces(path) == [json.loads(line)]


def test_trace_to_dict_holds_only_dicts_tuples_and_plain_values():
    answer = SpanAnswer(text="X", char_start=0, char_end=1, score=1.0)
    trace = ReformulationTrace(
        raw_query="Is it safe?", mode="full",
        coref_steps=(CorefStep(PronounMention(1, "it", False), "q1", answer, True),),
        q_star="Is X safe?",
        omission_steps=(OmissionStep(OmissionCandidate(2, "safe", "noun", 3.0), "of", "q2",
                                     None, False),),
        q_double_star="Is X safe?")
    assert trace.to_dict() == {
        "raw_query": "Is it safe?", "mode": "full",
        "coref_steps": ({"pronoun": {"token_index": 1, "surface": "it", "is_possessive": False},
                         "question": "q1", "answer": {"text": "X", "char_start": 0,
                                                      "char_end": 1, "score": 1.0},
                         "applied": True},),
        "q_star": "Is X safe?",
        "omission_steps": ({"candidate": {"token_index": 2, "surface": "safe", "kind": "noun",
                                          "idf": 3.0},
                            "preposition": "of", "question": "q2", "answer": None,
                            "applied": False},),
        "q_double_star": "Is X safe?"}
    assert type(trace.to_dict()["coref_steps"]) is tuple
    assert type(trace.to_dict()["coref_steps"][0]["pronoun"]) is dict


def test_reader_errors_propagate(hand_idf):
    class FailingReader:
        def extract_span(self, rinput):
            raise TransportError("down", endpoint="http://x", attempts=3)

    config = Config(mode="full")
    ctx = "context text"
    with pytest.raises(TransportError):
        reformulate(Turn(1, "Is it safe?"), ctx, hand_idf, FailingReader(), config)


def test_containment_on_mini_benchmark(mini_sessions, mini_idf, mini_oracle):
    # every applied fragment came verbatim out of the context text
    config = Config(idf_threshold=1.5, mode="full")
    for session in mini_sessions:
        for turn in session.turns:
            ctx = context_for_turn(session, turn.turn_id, config)
            trace = reformulate(turn, ctx, mini_idf, mini_oracle, config)
            for step in trace.coref_steps + trace.omission_steps:
                if step.applied:
                    assert step.answer.text in ctx


def test_backend_interchangeability(biopsy_session, biopsy_oracle, hand_idf,
                                    stub_transformers):
    # a local-checkpoint backend returning the same spans produces the same rewrite
    from zeqr.reader import TransformersReader

    stub_transformers.respond = lambda question, context: oracle_reply(
        biopsy_oracle, question, context)[1]
    config = Config(mode="full")
    ctx = context_for_turn(biopsy_session, 4, Config())
    turn = biopsy_session.turns[3]
    via_oracle = reformulate(turn, ctx, hand_idf, biopsy_oracle, config)
    via_local = reformulate(turn, ctx, hand_idf, TransformersReader("ckpt"), config)
    assert via_oracle.q_double_star == via_local.q_double_star == BIOPSY_Q4_RESOLVED


# ---- containment property ----

@given(st.integers(min_value=0, max_value=30), st.integers(min_value=1, max_value=12))
def test_extractive_containment(start, length):
    # whatever the reader picks from the context is what lands in the query
    context_text = "alpha beta gamma delta epsilon zeta eta theta iota kappa"
    start = min(start, len(context_text) - 1)
    snippet = context_text[start:start + length].strip()
    ctx = context_text
    begin = ctx.find(snippet)
    reader = FixedReader(SpanAnswer(text=snippet, char_start=begin,
                                    char_end=begin + len(snippet), score=1.0))

    config = Config(mode="full")
    q_star, steps = resolve_coreference("Is it safe?", ctx, reader, config)
    inserted = q_star.replace("Is ", "").replace(" safe?", "")
    if steps[0].applied:
        assert inserted in ctx
