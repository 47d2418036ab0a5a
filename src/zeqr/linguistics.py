"""Tokenization, coarse part-of-speech tagging, and the two ambiguity
detectors: pronouns (coreference) and bare important nouns/verbs (omission).

Tags come from deterministic rules and lexicons (`tokenize_and_tag`), so
test fixtures never depend on model versions.
"""

from __future__ import annotations

import re
from typing import NamedTuple

from .ingest import IdfTable

_TOKEN_RE = re.compile(r"[A-Za-z0-9]+|[^A-Za-z0-9\s]")

NOUN = "NOUN"
VERB = "VERB"
ADJ = "ADJ"
ADP = "ADP"
PRON = "PRON"
DET = "DET"
OTHER = "OTHER"


class TaggedToken(NamedTuple):
    text: str
    lemma: str
    pos: str
    char_start: int
    char_end: int


class PronounMention(NamedTuple):
    token_index: int
    surface: str
    is_possessive: bool


class OmissionCandidate(NamedTuple):
    token_index: int
    surface: str
    kind: str  # "noun" or "verb"
    idf: float


_DETERMINERS = frozenset(
    "the a an some any no every each either neither another both all".split()
)

_ADPOSITIONS = frozenset(
    """of to in on at by for with from about into over under between among
    through during before after against without within along across behind
    beyond near off out up down around via per since until upon toward
    towards onto outside inside""".split()
)

_PRONOUNS = frozenset(
    """he him she her it they them his hers its their theirs i you we me us
    my your our mine yours ours himself herself itself themselves myself
    yourself ourselves""".split()
)

_DEMONSTRATIVES = frozenset("this that these those".split())

_ANAPHORIC_NOMINALS = frozenset(("one", "ones"))

_WH_WORDS = frozenset("what who whom whose which where when why how".split())

_CONJUNCTIONS = frozenset(
    "and or but nor so yet if because while although than as once unless whether".split()
)

_INTERJECTIONS = frozenset("wow oh hey hi hello yes yeah hmm ok okay please thanks".split())

_ADVERBS = frozenset(
    """very really quite too also just only now then here there not more most
    less least much again often usually sometimes always never ever still
    already soon later today tomorrow yesterday""".split()
)

_ADJECTIVES = frozenset(
    """common main new old good bad better best worse worst big small large
    great high low long short early late young important different same
    similar popular famous major minor local safe dangerous deadly likely
    unlikely healthy serious severe rare many few several various economic
    medical possible current recent effective invasive""".split()
)

_VERBS = frozenset(
    """is are was were am be been being do does did done have has had can
    could will would shall should may might must get gets got go goes went
    going make makes made take takes took know knows knew known think thinks
    thought say says said see sees saw seen want wants wanted need needs
    needed use uses used find finds found give gives gave tell tells told ask
    asks asked work works worked call calls called try tries tried feel feels
    felt become becomes became leave leaves left put puts mean means meant
    keep keeps kept let lets begin begins began seem seems seemed help helps
    helped show shows showed shown hear hears heard happen happens happened
    include includes included continue continues continued learn learns
    learned change changes changed understand understands understood follow
    follows followed stop stops stopped create creates created spend spends
    spent grow grows grew grown open opens opened win wins won offer offers
    offered remember remembers remembered consider considers considered
    appear appears appeared buy buys bought wait waits waited serve serves
    served die dies died send sends sent build builds built stay stays stayed
    fall falls fell fallen reach reaches reached remain remains remained
    spread spreads break breaks broke broken cause causes caused treat treats
    treated diagnose diagnoses diagnosed live lives lived move moves moved
    run runs ran play plays played believe believes believed bring brings
    brought lose loses lost pay pays paid meet meets met""".split()
)

# Nouns that would otherwise trip the -ing suffix rule.
_ING_NOUNS = frozenset(
    """thing something anything everything nothing morning evening building
    king ring spring string wing""".split()
)

_ADJ_SUFFIXES = ("ous", "ful", "ible", "able", "ive", "less", "ish", "ical", "ic", "al")

# Pronouns whose replacement takes a trailing possessive clitic.
POSSESSIVE_PRONOUNS = frozenset(("his", "hers", "its", "their", "theirs"))

# Inventory for coreference detection: third-person personal pronouns,
# possessives, demonstratives used pronominally, and anaphoric one/ones.
# First/second person refer to the interlocutors, not context entities.
DEFAULT_PRONOUN_INVENTORY = frozenset(
    "he him she her it they them his hers its their theirs "
    "this that these those one ones".split()
)


def _lexical_tag(surface: str) -> str:
    # Only a run of ASCII letters and digits can be an index term; any other
    # token (punctuation, or one non-ASCII character such as "é" or "İ") is
    # no word a question could be asked about.
    if not (surface.isascii() and surface[0].isalnum()):
        return OTHER
    if surface.isdigit():
        return OTHER
    word = surface.lower()
    if word in _WH_WORDS or word in _CONJUNCTIONS or word in _INTERJECTIONS \
            or word in _ADVERBS:
        return OTHER
    if word in _DETERMINERS:
        return DET
    if word in _ADPOSITIONS:
        return ADP
    if word in _DEMONSTRATIVES or word in _ANAPHORIC_NOMINALS or word in _PRONOUNS:
        return PRON
    if word in _ADJECTIVES:
        return ADJ
    if word in _VERBS:
        return VERB
    if len(word) == 1:
        # stray single letters, e.g. the "s" of a possessive clitic
        return OTHER
    if word in _ING_NOUNS:
        return NOUN
    if word.endswith("ly") and len(word) > 3:
        return OTHER
    if word.endswith("ing") and len(word) > 4:
        return VERB
    if word.endswith("ed") and len(word) > 3:
        return VERB
    for suffix in _ADJ_SUFFIXES:
        if word.endswith(suffix) and len(word) > len(suffix) + 1:
            return ADJ
    return NOUN


def _refine(tokens: list[TaggedToken]) -> list[TaggedToken]:
    refined: list[TaggedToken] = []
    for i, tok in enumerate(tokens):
        pos = tok.pos
        nxt = tokens[i + 1] if i + 1 < len(tokens) else None
        if tok.lemma in _DEMONSTRATIVES:
            # Determiner use ("that car") vs pronominal ("that is").
            pos = DET if nxt is not None and nxt.pos in (NOUN, ADJ) else PRON
        elif tok.lemma in _ANAPHORIC_NOMINALS:
            # "one person" is a numeral determiner, "common ones" anaphoric.
            pos = DET if nxt is not None and nxt.pos == NOUN else PRON
        elif pos == NOUN and refined:
            prev = refined[-1]
            if prev.pos == PRON and prev.lemma not in POSSESSIVE_PRONOUNS \
                    and prev.lemma not in ("my", "your", "our", "her"):
                # Subject pronoun + unknown word: "it breaks", "I thought".
                pos = VERB
        if pos != tok.pos:
            tok = TaggedToken(tok.text, tok.lemma, pos, tok.char_start, tok.char_end)
        refined.append(tok)
    return refined


def tokenize_and_tag(text: str) -> list[TaggedToken]:
    """Tokenize with character offsets and coarse tags.

    Deterministic: the same input always yields the same output. Slicing
    the source at each token's offsets reproduces its surface exactly.
    Tagging is closed-class lexicons, suffix rules, then two context
    refinements (pronominal demonstratives, verb after a non-possessive
    pronoun); unknown words default to NOUN.
    """
    tokens = [
        TaggedToken(
            text=m.group(),
            lemma=m.group().lower(),
            pos=_lexical_tag(m.group()),
            char_start=m.start(),
            char_end=m.end(),
        )
        for m in _TOKEN_RE.finditer(text)
    ]
    return _refine(tokens)


def detect_pronouns(tokens: list[TaggedToken]) -> list[PronounMention]:
    """Find DEFAULT_PRONOUN_INVENTORY words used pronominally, left to right."""
    return [
        PronounMention(
            token_index=i,
            surface=tok.text,
            is_possessive=tok.lemma in POSSESSIVE_PRONOUNS,
        )
        for i, tok in enumerate(tokens)
        if tok.pos == PRON and tok.lemma in DEFAULT_PRONOUN_INVENTORY
    ]


_CLAUSE_BOUNDARIES = frozenset((",", ".", "?", "!", ";", ":"))
_COORDINATORS = frozenset(("and", "or"))
# The omission template's preposition, the one the lenient rule checks.
PREPOSITION_BY_KIND = {"noun": "of", "verb": "to"}

# Informativeness bar for premodifiers. Kept independent of the tunable
# candidate threshold so that raising the candidate gate can only ever
# shrink the candidate set (a premodifier unblocked by a moving bar would
# otherwise add candidates).
PREMODIFIER_IDF_THRESHOLD = 2.65


def _noun_qualifies(tokens: list[TaggedToken], i: int, idf: IdfTable, strict: bool) -> bool:
    nxt = tokens[i + 1] if i + 1 < len(tokens) else None
    # Not the head of its noun phrase: "Lobular" in "Lobular Carcinoma".
    if nxt is not None and nxt.pos == NOUN:
        return False
    # First conjunct of a coordination shares the description of the last
    # one: "licenses and permits" resolves once, at "permits".
    if (
        nxt is not None
        and nxt.lemma in _COORDINATORS
        and i + 2 < len(tokens)
        and tokens[i + 2].pos == NOUN
    ):
        return False
    prev = tokens[i - 1] if i > 0 else None
    if prev is not None and prev.pos in (ADJ, NOUN) \
            and idf.lookup(prev.lemma) > PREMODIFIER_IDF_THRESHOLD:
        # Already disambiguated by an informative premodifier; generic
        # low-IDF ones like "common" do not count.
        return False
    if nxt is not None and nxt.pos == ADP:
        if strict or nxt.lemma == PREPOSITION_BY_KIND["noun"]:
            return False
    return True


def _verb_qualifies(tokens: list[TaggedToken], i: int, strict: bool) -> bool:
    nxt = tokens[i + 1] if i + 1 < len(tokens) else None
    if nxt is not None and nxt.pos == ADP:
        if strict or nxt.lemma == PREPOSITION_BY_KIND["verb"]:
            return False
    for tok in tokens[i + 1:]:
        if tok.text in _CLAUSE_BOUNDARIES:
            break
        if tok.pos == NOUN:
            return False
    return True


def find_omission_candidates(
    tokens: list[TaggedToken],
    idf: IdfTable,
    threshold: float,
    strict: bool = True,
) -> list[OmissionCandidate]:
    """Find important nouns/verbs whose description appears to be omitted.

    A word is important when its IDF exceeds the threshold. A noun is bare
    when it heads its phrase, has no informative adjective or noun
    premodifier (IDF above PREMODIFIER_IDF_THRESHOLD; generic words like
    "common" never block), and no preposition follows it; a verb is bare
    when nothing it governs follows within the clause. strict=False
    relaxes the postmodifier check to the candidate's own template
    preposition.
    """
    candidates: list[OmissionCandidate] = []
    for i, tok in enumerate(tokens):
        if tok.pos not in (NOUN, VERB):
            continue
        value = idf.lookup(tok.lemma)
        if value <= threshold:
            continue
        if tok.pos == NOUN:
            if _noun_qualifies(tokens, i, idf, strict):
                candidates.append(OmissionCandidate(i, tok.text, "noun", value))
        else:
            if _verb_qualifies(tokens, i, strict):
                candidates.append(OmissionCandidate(i, tok.text, "verb", value))
    return candidates
