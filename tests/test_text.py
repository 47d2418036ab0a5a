import re

from hypothesis import example, given, strategies as st

from zeqr.linguistics import tokenize_and_tag
from zeqr.text import Analyzer, normalize

# The definition of a term, kept apart from the byte table `normalize` uses.
_REFERENCE_TERM = re.compile(r"[A-Za-z0-9]+")


def reference_terms(text):
    return [term.lower() for term in _REFERENCE_TERM.findall(text)]


def tagger_terms(text):
    """The lemmas of the tagger's alphanumeric tokens."""
    return [token.lemma for token in tokenize_and_tag(text)
            if token.text.isascii() and token.text.isalnum()]


def test_normalize_equals_the_regex_on_every_code_point():
    # each character between two letters and after an upper-case one, so a
    # character that lowercases to ASCII (the Kelvin sign) or to several
    # characters ("İ") is cut as the regex cuts it
    differ = [hex(code) for code in range(0x110000)
              if normalize(text := f"a{chr(code)}b Z{chr(code)}") != reference_terms(text)]
    assert differ == []


def test_normalize_on_characters_outside_ascii():
    assert normalize("a\ud800b Z\ud800") == ["a", "b", "z"]
    assert normalize("aİb") == ["a", "b"]
    assert normalize("aKb") == ["a", "b"]  # Kelvin sign
    assert normalize("aßb ﬃ") == ["a", "b"]
    assert normalize("a１b a٣b") == ["a", "b", "a", "b"]


def test_the_tagger_and_normalize_agree_on_every_code_point():
    # the POS layer looks IDF up by these lemmas, so each must be a term of
    # the index; a Kelvin sign is not an ASCII letter, so it cuts both
    assert tagger_terms("\u212aelvin") == normalize("\u212aelvin") == ["elvin"]
    # every code point in a row, one plane at a time: a character that one
    # side keeps in a term and the other cuts at changes the terms
    planes = ["".join(map(chr, range(start, start + 0x10000)))
              for start in range(0, 0x110000, 0x10000)]
    assert [i for i, plane in enumerate(planes) if tagger_terms(plane) != normalize(plane)] == []


@given(st.text())
@example("")
@example("Don't-stop: 3.14, C++ & C#!")
@example("café naïve \U0001f600x")
def test_normalize_equals_the_regex_on_any_text(text):
    assert normalize(text) == reference_terms(text)


def test_the_analyzer_is_normalize():
    assert Analyzer().terms("Breast-Cancer 2023") == normalize("Breast-Cancer 2023")
