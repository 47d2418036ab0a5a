import pytest
from hypothesis import given, strategies as st

from zeqr.ingest import IdfTable
from zeqr.linguistics import (
    ADJ,
    ADP,
    NOUN,
    OTHER,
    PRON,
    VERB,
    DEFAULT_PRONOUN_INVENTORY,
    detect_pronouns,
    find_omission_candidates,
    tokenize_and_tag,
)

text_strategy = st.text(
    alphabet=st.characters(blacklist_categories=("Cs",)), max_size=160
)


def tags_of(text):
    return {t.text: t.pos for t in tokenize_and_tag(text)}


# ---- tokenize_and_tag ----

def test_treatments_tagged_noun():
    assert tags_of("What are common treatments?")["treatments"] == NOUN


@pytest.mark.parametrize("text, word, pos", [
    ("What happens in the morning?", "morning", NOUN),  # -ing nouns listed as such
    ("Who owns the building?", "building", NOUN),
    ("Who owns the shipping?", "shipping", VERB),        # any other -ing word
    ("Where it rains most?", "rains", VERB),             # subject pronoun + unknown word
    ("Where do its rains fall?", "rains", NOUN),         # a possessive is no subject
    ("Is the beautiful crab big?", "beautiful", ADJ),    # an unlisted adjective suffix
])
def test_tagger_word_rules(text, word, pos):
    assert tags_of(text)[word] == pos


@pytest.mark.parametrize("letter", ["İ", "ß", "é", "ǅ"])
def test_a_non_ascii_letter_is_never_a_word(letter):
    # "İ" lowercases to two code points ("i" and a combining dot), which once
    # made it a NOUN; only runs of ASCII letters and digits are index terms
    assert tags_of(f"What are the common {letter}?")[letter] == OTHER


def test_a_non_ascii_letter_is_no_omission_candidate(mini_idf):
    tokens = tokenize_and_tag("What are the common İ?")
    assert find_omission_candidates(tokens, mini_idf, 1.5) == []


def test_empty_input_gives_empty_list():
    assert tokenize_and_tag("") == []


def test_spread_to_tags():
    # frozen from the shipped rule tagger on this exact string
    tags = tags_of("spread to the lymph nodes")
    assert tags["to"] == ADP
    assert tags["spread"] == VERB


@given(text_strategy)
def test_offsets_reconstruct_surfaces(text):
    tokens = tokenize_and_tag(text)
    previous_end = 0
    for token in tokens:
        assert token.char_start < token.char_end
        assert token.char_start >= previous_end
        assert text[token.char_start:token.char_end] == token.text
        previous_end = token.char_end


@given(text_strategy)
def test_tagging_is_deterministic(text):
    assert tokenize_and_tag(text) == tokenize_and_tag(text)


# ---- detect_pronouns ----

def test_biopsy_q4_detects_that_not_i():
    tokens = tokenize_and_tag("Wow, that is better than I thought.  "
                              "What are common treatments?")
    mentions = detect_pronouns(tokens)
    assert [m.surface for m in mentions] == ["that"]


def test_possessive_its():
    tokens = tokenize_and_tag("What is its main economic activity?")
    (mention,) = detect_pronouns(tokens)
    assert mention.surface == "its"
    assert mention.is_possessive


def test_no_pronoun_in_eu_rules():
    assert detect_pronouns(tokenize_and_tag("What are the EU rules?")) == []


def test_demonstrative_determiner_use_is_not_a_mention():
    assert detect_pronouns(tokenize_and_tag("Is that car fast?")) == []


def test_anaphoric_ones_detected():
    tokens = tokenize_and_tag("What are common ones?")
    assert [m.surface for m in detect_pronouns(tokens)] == ["ones"]


@given(text_strategy)
def test_mentions_are_inventory_pron_or_det_tokens(text):
    tokens = tokenize_and_tag(text)
    for mention in detect_pronouns(tokens):
        token = tokens[mention.token_index]
        assert token.pos in (PRON, "DET")
        assert token.lemma in DEFAULT_PRONOUN_INVENTORY
        assert token.text == mention.surface


# ---- find_omission_candidates ----

def test_common_does_not_block_treatments(hand_idf):
    tokens = tokenize_and_tag("What are common treatments?")
    cands = find_omission_candidates(tokens, hand_idf, 2.65)
    assert [(c.surface, c.kind) for c in cands] == [("treatments", "noun")]


def test_following_of_blocks_rules(hand_idf):
    tokens = tokenize_and_tag("What are the EU rules of GMO Food labeling?")
    assert find_omission_candidates(tokens, hand_idf, 2.65) == []


def test_difference_strict_vs_lenient(hand_idf):
    tokens = tokenize_and_tag("What is the difference with Bologna?")
    assert find_omission_candidates(tokens, hand_idf, 2.65, strict=True) == []
    lenient = find_omission_candidates(tokens, hand_idf, 2.65, strict=False)
    assert [c.surface for c in lenient] == ["difference"]


def test_coordination_defers_to_last_conjunct(hand_idf):
    tokens = tokenize_and_tag("What licenses and permits are needed?")
    cands = find_omission_candidates(tokens, hand_idf, 2.65)
    assert [c.surface for c in cands] == ["permits"]


def test_high_idf_premodifier_blocks(hand_idf):
    tokens = tokenize_and_tag("Wow, Lobular Neoplasia is better than I thought.  "
                              "What are common treatments?")
    cands = find_omission_candidates(tokens, hand_idf, 2.65)
    assert [c.surface for c in cands] == ["treatments"]


def test_noun_premodifier_is_never_a_candidate(hand_idf):
    tokens = tokenize_and_tag("How deadly is Lobular Carcinoma in Situ?")
    cands = find_omission_candidates(tokens, hand_idf, 2.65)
    assert [c.surface for c in cands] == ["Situ"]


def test_bare_verb_candidate(hand_idf):
    tokens = tokenize_and_tag("Once it breaks out, how likely is it to spread?")
    cands = find_omission_candidates(tokens, hand_idf, 2.65)
    assert [(c.surface, c.kind) for c in cands] == [("spread", "verb")]


def test_candidate_idf_exceeds_threshold(hand_idf):
    tokens = tokenize_and_tag("What are common treatments?")
    for cand in find_omission_candidates(tokens, hand_idf, 2.65):
        assert cand.idf > 2.65


@given(st.floats(min_value=0.0, max_value=4.0), st.floats(min_value=0.0, max_value=4.0))
def test_threshold_monotonicity(low, high):
    idf = IdfTable(term_idf={"treatments": 3.5, "spread": 2.0}, num_docs=10,
                   default_idf=1.0)
    low, high = min(low, high), max(low, high)
    tokens = tokenize_and_tag("Once it breaks out, what are common treatments?")
    at_high = {c.surface for c in find_omission_candidates(tokens, idf, high)}
    at_low = {c.surface for c in find_omission_candidates(tokens, idf, low)}
    assert at_high <= at_low
