import re

from hypothesis import example, given, strategies as st

from zeqr.linguistics import tokenize_and_tag
from zeqr.text import Analyzer, normalize

# The definition of a term, kept apart from the byte table `normalize` uses.
_REFERENCE_TERM = re.compile(r"[a-z0-9]+")


def reference_terms(text):
    return _REFERENCE_TERM.findall(text.lower())


def test_normalize_equals_the_regex_on_every_code_point():
    # each character between two letters and after an upper-case one, so a
    # character that lowercases to ASCII (the Kelvin sign) or to several
    # characters ("İ") is cut as the regex cuts it
    differ = [hex(code) for code in range(0x110000)
              if normalize(text := f"a{chr(code)}b Z{chr(code)}") != reference_terms(text)]
    assert differ == []


def test_normalize_on_characters_outside_ascii():
    assert normalize("a\ud800b Z\ud800") == ["a", "b", "z"]
    assert normalize("aİb") == ["ai", "b"]
    assert normalize("aKb") == ["akb"]  # Kelvin sign
    assert normalize("aßb ﬃ") == ["a", "b"]
    assert normalize("a１b a٣b") == ["a", "b", "a", "b"]


def test_the_tagger_cuts_tokens_before_lowercasing():
    # the one place the POS layer's IDF terms and `normalize` part: a
    # character that lowercases to an ASCII letter (the Kelvin sign)
    assert normalize("\u212aelvin") == ["kelvin"]
    assert [token.lemma for token in tokenize_and_tag("\u212aelvin")] == ["k", "elvin"]
    assert [token.lemma for token in tokenize_and_tag("Kelvin")] == normalize("Kelvin")


@given(st.text())
@example("")
@example("Don't-stop: 3.14, C++ & C#!")
@example("café naïve \U0001f600x")
def test_normalize_equals_the_regex_on_any_text(text):
    assert normalize(text) == reference_terms(text)


def test_the_analyzer_is_normalize():
    assert Analyzer().terms("Breast-Cancer 2023") == normalize("Breast-Cancer 2023")
