import json
import math
import random
import tempfile
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import index_members, json_reply, write_index
from zeqr import retrieval
from zeqr.cli import main
from zeqr.datamodel import Config
from zeqr.errors import ParseError, ProtocolError, TransportError
from zeqr.ingest import (
    Document,
    RunResult,
    build_idf_table,
    load_collection,
    load_topics,
    read_run,
    write_run,
)
from zeqr.retrieval import (
    Passages,
    bm25_search,
    build_index,
    external_search,
    load_index,
    robertson_idf,
    save_index,
)
from zeqr.text import normalize


def brute_force_scores(collection, query, k1, b):
    """Independent scorer: recomputes everything from the raw texts."""
    doc_terms = [normalize(doc.body) for doc in collection]
    n = len(collection)
    avgdl = sum(len(t) for t in doc_terms) / n
    df = Counter()
    for terms in doc_terms:
        df.update(set(terms))
    scores = {}
    for doc, terms in zip(collection, doc_terms):
        tf = Counter(terms)
        score = 0.0
        for term in normalize(query):
            if tf[term] == 0 or df[term] == 0:
                continue
            idf = math.log(1.0 + (n - df[term] + 0.5) / (df[term] + 0.5))
            score += idf * tf[term] * (k1 + 1) / (
                tf[term] + k1 * (1 - b + b * len(terms) / avgdl))
        if score > 0:
            scores[doc.doc_id] = score
    return scores


def brute_force_ranking(collection, query, k, k1=0.9, b=0.4):
    scores = brute_force_scores(collection, query, k1, b)
    ranked = sorted(scores.items(), key=lambda item: (-item[1], item[0]))
    return ranked[:k]


def postings(index, term):
    """(doc index, tf) pairs of one term, read from the packed arrays."""
    start, end = index._vocab[term]
    return [(int(d), int(tf))
            for d, tf in zip(index._post_docs[start:end], index._post_tfs[start:end])]


# ---- build_index ----

def test_postings_hand_countable():
    index = build_index([Document("d0", "a b a")])
    assert postings(index, "a") == [(0, 2)]
    assert postings(index, "b") == [(0, 1)]
    assert index.avg_doc_length == pytest.approx(3.0)


def test_avg_doc_length_two_docs():
    index = build_index([Document("d0", "x y"), Document("d1", "x y z w")])
    assert index.avg_doc_length == pytest.approx(3.0)


def test_duplicate_doc_id_rejected():
    with pytest.raises(ValueError) as exc:
        build_index([Document("dup", "a"), Document("dup", "b")])
    assert "dup" in str(exc.value)


def assert_index_matches_recount(index, collection):
    """Check every index statistic against an independent recount of the raw text."""
    # The index holds its documents in doc-id order.
    collection = sorted(collection, key=lambda doc: doc.doc_id)
    assert index.doc_ids == [doc.doc_id for doc in collection]
    doc_terms = [normalize(doc.body) for doc in collection]
    lengths = [len(terms) for terms in doc_terms]
    assert index.doc_lengths.dtype == np.int32
    assert index._post_docs.dtype == np.int32
    assert index._post_tfs.dtype == np.int32
    assert list(index.doc_lengths) == lengths
    assert index.avg_doc_length == pytest.approx(sum(lengths) / len(lengths), abs=1e-9)
    want: dict[str, list[tuple[int, int]]] = {}
    for i, terms in enumerate(doc_terms):
        for term, tf in Counter(terms).items():
            want.setdefault(term, []).append((i, tf))
    assert list(index._vocab) == sorted(want)
    assert index.num_terms == len(want)
    for term, pairs in want.items():
        assert index.document_frequency(term) == len(pairs)
        assert postings(index, term) == pairs


def test_index_statistics_match_brute_recount(mini_collection, mini_index):
    assert_index_matches_recount(mini_index, mini_collection)


# ---- IDF table off the index ----

# Case variants, plurals a stemmer would merge, digits, repeats, and a
# token with no alphanumeric term at all.
IDF_WORDS = ("Cancer", "cancer", "CANCERS", "treatment", "Treatments", "studies", "study",
             "covid19", "19", "B12", "the", "of", "It's", "x-ray", "--")


@st.composite
def mixed_corpora(draw):
    bodies = draw(st.lists(st.lists(st.sampled_from(IDF_WORDS), min_size=1, max_size=12),
                           min_size=1, max_size=12))
    return [Document(f"d{i}", " ".join(words)) for i, words in enumerate(bodies)]


@settings(max_examples=150, deadline=None)
@given(mixed_corpora())
def test_random_index_statistics_match_brute_recount(corpus):
    assert_index_matches_recount(build_index(corpus), corpus)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_any_order_of_a_collection_gives_the_same_index(data):
    corpus = data.draw(mixed_corpora())
    assert_same_index(build_index(data.draw(st.permutations(corpus))), build_index(corpus))


def test_index_idf_table_equals_collection_scan(tmp_path, mini_collection, mini_index):
    assert mini_index.idf_table() == build_idf_table(mini_collection)
    path = tmp_path / "index.npz"
    save_index(mini_index, path)
    assert load_index(path).idf_table() == build_idf_table(mini_collection)


@settings(max_examples=150, deadline=None)
@given(mixed_corpora())
def test_random_index_idf_table_equals_collection_scan(corpus):
    assert build_index(corpus).idf_table() == build_idf_table(corpus)


# ---- bm25_search ----

def test_unique_term_forces_rank_one(mini_collection, mini_index):
    result = bm25_search(mini_index, "mammogram", 5, Config(), query_id="q")
    assert result.ranked[0][0] == "b05"


def test_toy_corpus_matches_brute_force():
    docs = [
        Document("d1", "red apples and green apples"),
        Document("d2", "green pears"),
        Document("d3", "red wine with dinner"),
        Document("d4", "apples pears apples grapes"),
        Document("d5", "dinner of bread"),
    ]
    config = Config()
    index = build_index(docs)
    result = bm25_search(index, "red apples", 5, config, query_id="q")
    expected = brute_force_ranking(docs, "red apples", 5)
    assert [d for d, _ in result.ranked] == [d for d, _ in expected]
    for (_, got), (_, want) in zip(result.ranked, expected):
        assert got == pytest.approx(want, abs=1e-6)


def test_tie_break_by_doc_id():
    docs = [Document("zz", "same words"), Document("aa", "same words")]
    result = bm25_search(build_index(docs), "same", 2, Config(), query_id="q")
    assert [d for d, _ in result.ranked] == ["aa", "zz"]
    assert result.ranked[0][1] == result.ranked[1][1]


@st.composite
def tie_heavy_corpora(draw):
    """Short docs over a 3-5 word vocabulary, inserted out of doc_id order."""
    vocab = [f"w{i}" for i in range(draw(st.integers(3, 5)))]
    num_docs = draw(st.integers(1, 14))
    # "d9" sorts after "d10", so neither insertion order nor numeric order
    # is the doc_id order
    numbers = draw(st.permutations(range(num_docs)))
    docs = [Document(f"d{n}", " ".join(draw(st.lists(st.sampled_from(vocab),
                                                      min_size=1, max_size=5))))
            for n in numbers]
    query = " ".join(draw(st.lists(st.sampled_from(vocab), min_size=1, max_size=3)))
    return docs, query


@settings(max_examples=150, deadline=None)
@given(tie_heavy_corpora())
def test_top_k_with_ties_matches_brute_force(corpus):
    docs, query = corpus
    index = build_index(docs)
    config = Config()
    full = bm25_search(index, query, len(docs), config, query_id="q").ranked
    for k in range(1, len(docs) + 1):
        got = bm25_search(index, query, k, config, query_id="q").ranked
        want = brute_force_ranking(docs, query, k)
        assert [d for d, _ in got] == [d for d, _ in want]
        for (_, g), (_, w) in zip(got, want):
            assert g == pytest.approx(w, abs=1e-6)
        assert got == full[:k]


def test_alternating_configs_do_not_share_norms(tmp_path, mini_collection, mini_index):
    first = Config()
    second = Config(bm25_k1=1.6, bm25_b=0.9)
    query = "breast cancer treatments in salt lake city"
    sequence = [first, second, first]
    results = [bm25_search(mini_index, query, 10, config, query_id="q") for config in sequence]
    for config, result in zip(sequence, results):
        want = brute_force_ranking(mini_collection, query, 10,
                                   k1=config.bm25_k1, b=config.bm25_b)
        assert [d for d, _ in result.ranked] == [d for d, _ in want]
        for (_, g), (_, w) in zip(result.ranked, want):
            assert g == pytest.approx(w, abs=1e-6)
    assert results[0].ranked != results[1].ranked

    path = tmp_path / "index.npz"
    save_index(mini_index, path)
    loaded = load_index(path)
    assert [bm25_search(loaded, query, 10, config, query_id="q").ranked
            for config in sequence] == [result.ranked for result in results]


def per_term_loop_ranking(index, query, k, k1, b):
    """The per-term scoring loop that cached impacts replaced: one dense
    += per query term occurrence, each contribution computed on the fly.
    Kept as the bit-exact reference for `bm25_search`."""
    norms = k1 * (1.0 - b + b * index.doc_lengths / index.avg_doc_length)
    scores = np.zeros(index.num_docs, dtype=np.float64)
    for term in normalize(query):
        if term not in index._vocab:
            continue
        start, end = index._vocab[term]
        idf = robertson_idf(index.num_docs, end - start)
        docs = index._post_docs[start:end]
        tfs = index._post_tfs[start:end]
        scores[docs] += idf * tfs * (k1 + 1.0) / (tfs + norms[docs])
    ranked = sorted(((index.doc_ids[i], float(scores[i])) for i in np.flatnonzero(scores)),
                    key=lambda pair: (-pair[1], pair[0]))
    return tuple(ranked[:k])


@st.composite
def scoring_cases(draw):
    """A corpus, a query with repeated and unindexed terms, k and (k1, b)."""
    vocab = [f"w{i}" for i in range(draw(st.integers(2, 8)))]
    numbers = draw(st.permutations(range(draw(st.integers(1, 16)))))
    docs = [Document(f"d{n}", " ".join(draw(st.lists(st.sampled_from(vocab),
                                                      min_size=1, max_size=12))))
            for n in numbers]
    query = " ".join(draw(st.lists(st.sampled_from(vocab + ["unindexed"]),
                                   min_size=1, max_size=8)))
    k = draw(st.integers(1, len(docs) + 2))
    k1 = draw(st.floats(min_value=0.01, max_value=3.0))
    b = draw(st.floats(min_value=0.0, max_value=1.0))
    return docs, query, k, k1, b


@settings(max_examples=200, deadline=None)
@given(scoring_cases())
def test_scores_equal_the_per_term_loop_bit_for_bit(case):
    docs, query, k, k1, b = case
    index = build_index(docs)
    config = Config(bm25_k1=k1, bm25_b=b)
    assert bm25_search(index, query, k, config, query_id="q").ranked == \
        per_term_loop_ranking(index, query, k, k1, b)


def test_impacts_are_cached_per_k1_b(mini_index):
    first = mini_index.impacts(0.9, 0.4)
    assert mini_index.impacts(0.9, 0.4) is first
    other = mini_index.impacts(1.6, 0.9)
    assert other is not first
    assert not np.array_equal(other, first)
    assert mini_index.impacts(0.9, 0.4) is first


def test_impacts_do_not_depend_on_the_division_block(monkeypatch, mini_collection):
    whole = build_index(mini_collection).impacts(1.2, 0.75)
    # blocks of 7 postings, with a short last block
    monkeypatch.setattr(retrieval, "_IMPACT_BLOCK", 7)
    blocked = build_index(mini_collection).impacts(1.2, 0.75)
    assert len(whole) % 7 != 0
    assert whole.dtype == blocked.dtype == np.float64
    assert np.array_equal(whole, blocked)


def test_unindexed_query_gives_empty_ranking(mini_index):
    assert bm25_search(mini_index, "zzz qqq", 5, Config(), query_id="q").ranked == ()


def test_k_must_be_positive(mini_index):
    with pytest.raises(ValueError):
        bm25_search(mini_index, "cancer", 0, Config(), query_id="q")
    # refused before any request: the port is closed
    with pytest.raises(ValueError):
        external_search("http://127.0.0.1:9", "cancer", 0, query_id="q")


def test_a_search_result_is_a_run_line_read_run_reads(tmp_path, mini_index):
    # the query id is the caller's: the query text, spaces and all, would
    # make a line of more than six fields
    with pytest.raises(TypeError):
        bm25_search(mini_index, "breast cancer types", 3, Config())
    result = bm25_search(mini_index, "breast cancer types", 3, Config(), query_id="79_1")
    write_run([result], tmp_path / "r.trec")
    assert read_run(tmp_path / "r.trec") == [result]


def test_duplicate_query_terms_count_twice():
    docs = [Document("d1", "apple banana"), Document("d2", "apple cherry")]
    index = build_index(docs)
    once = bm25_search(index, "apple", 2, Config(), query_id="q").ranked[0][1]
    twice = bm25_search(index, "apple apple", 2, Config(), query_id="q").ranked[0][1]
    assert twice == pytest.approx(2 * once)


def test_added_nonmatching_doc_pinned_stats():
    docs = [
        Document("a", "apples and pears on the table"),
        Document("b", "apples apples everywhere"),
        Document("c", "pears in a bowl"),
    ]
    config = Config()
    query = "apples pears"
    before = bm25_search(build_index(docs), query, 10, config, query_id="q")
    # the added document matches no query term and has exactly the average
    # length, so the ranked set must not gain it
    extra = Document("zz", "x y z w v u")
    after = bm25_search(build_index(docs + [extra]), query, 10, config, query_id="q")
    assert "zz" not in [d for d, _ in after.ranked]
    assert [d for d, _ in after.ranked] == [d for d, _ in before.ranked]
    # with statistics pinned to the original corpus the scores are identical
    pinned = brute_force_scores(docs, query, config.bm25_k1, config.bm25_b)
    for doc_id, score in before.ranked:
        assert score == pytest.approx(pinned[doc_id], abs=1e-9)


# ---- write_run / read_run ----

def test_write_run_single_line(tmp_path):
    path = tmp_path / "run.trec"
    write_run([RunResult("q1", (("d7", 3.21),), tag="zeqr")], path)
    assert path.read_text() == "q1 Q0 d7 1 3.21 zeqr\n"


def test_write_run_empty(tmp_path):
    path = tmp_path / "run.trec"
    write_run([], path)
    assert path.read_text() == ""


def test_run_round_trip(tmp_path, mini_index):
    config = Config()
    results = [bm25_search(mini_index, q, 10, config, query_id=f"q{i}")
               for i, q in enumerate(["breast cancer", "salt lake city", "food truck"])]
    path = tmp_path / "run.trec"
    write_run(results, path)

    # independent parser written for this test
    parsed: dict[str, list[tuple[str, float]]] = {}
    for line in path.read_text().splitlines():
        qid, q0, doc_id, rank, score, tag = line.split()
        assert q0 == "Q0" and tag == "zeqr"
        parsed.setdefault(qid, []).append((doc_id, float(score)))
    for result in results:
        assert parsed.get(result.query_id, []) == list(result.ranked)

    loaded = read_run(path)
    assert {r.query_id: r.ranked for r in loaded} == \
        {r.query_id: r.ranked for r in results}


def test_run_result_invariants():
    with pytest.raises(ValueError):
        RunResult("q", (("d1", 1.0), ("d1", 0.5)))
    with pytest.raises(ValueError):
        RunResult("q", (("d1", 1.0), ("d2", 2.0)))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf,
                                 pytest.param(10 ** 400, id="int_past_the_float_range")])
@pytest.mark.parametrize("position", [0, 1])
def test_run_result_rejects_non_finite_scores(bad, position):
    # a NaN after 1.0 would pass the descending-order check
    ranked = [("d1", 1.0), ("d2", 0.5)]
    ranked[position] = (ranked[position][0], bad)
    with pytest.raises(ValueError) as exc:
        RunResult("q", tuple(ranked))
    assert "non-finite score" in str(exc.value)


def test_run_determinism(tmp_path, mini_collection):
    config = Config()
    paths = []
    for name in ("one.trec", "two.trec"):
        index = build_index(mini_collection)
        results = [bm25_search(index, "common treatments of lobular carcinoma", 20,
                               config, query_id="q")]
        path = tmp_path / name
        write_run(results, path)
        paths.append(path.read_bytes())
    assert paths[0] == paths[1]


# ---- index persistence ----

def assert_same_index(a, b):
    assert a.doc_ids == b.doc_ids
    assert a.avg_doc_length == b.avg_doc_length
    assert list(a._vocab.items()) == list(b._vocab.items())
    for name in ("doc_lengths", "_bounds", "_post_docs", "_post_tfs"):
        x, y = getattr(a, name), getattr(b, name)
        assert x.dtype == y.dtype and np.array_equal(x, y), name
    assert dict(a.passages) == dict(b.passages)


def test_index_save_load_roundtrip(tmp_path, mini_index, mini_collection):
    path = tmp_path / "index.npz"
    save_index(mini_index, path, "ab" * 32)
    loaded = load_index(path)
    assert_same_index(loaded, mini_index)
    assert loaded.collection_sha256 == "ab" * 32
    assert dict(loaded.passages) == {doc.doc_id: doc.body for doc in mini_collection}
    config = Config()
    for query in ("breast cancer treatments", "salt lake city economy"):
        a = bm25_search(mini_index, query, 20, config, query_id="q")
        b = bm25_search(loaded, query, 20, config, query_id="q")
        assert a == b


def test_a_built_index_and_its_loaded_copy_hold_the_same_arrays(tmp_path, mini_index):
    path = tmp_path / "index.npz"
    save_index(mini_index, path)
    loaded = load_index(path)
    assert type(mini_index.passages) is type(loaded.passages) is Passages
    for name in ("_blob", "_offsets"):
        x, y = getattr(mini_index.passages, name), getattr(loaded.passages, name)
        assert x.dtype == y.dtype and np.array_equal(x, y), name
    for passages in (mini_index.passages, loaded.passages):
        assert len(passages) == mini_index.num_docs
        for unknown in ("no-such-doc", "", 5):
            with pytest.raises(KeyError):
                passages[unknown]
    assert_same_index(loaded, mini_index)
    # the file holds the seven members `index_members` gives, each string a
    # UTF-8 vector and no document length, laid out as the tests' writer does
    written = tmp_path / "written.npz"
    write_index(written, index_members(mini_index))
    assert written.read_bytes() == path.read_bytes()


def test_a_long_token_grows_the_archive_by_its_own_length(tmp_path):
    # fixed-width strings would store every term at the width of the longest
    collection = [Document(f"d{i:04d}", " ".join(f"w{(i * 7 + j) % 3000}" for j in range(100)))
                  for i in range(2000)]
    long_token = Document("long", "x" * 5000)
    for name, docs in (("plain", collection), ("long", [*collection, long_token])):
        save_index(build_index(docs), tmp_path / f"{name}.npz")
    plain, long = ((tmp_path / f"{name}.npz").stat().st_size for name in ("plain", "long"))
    assert plain < long < 1.01 * plain
    # its 5,000 bytes are stored twice, as a term and in the passage blob
    assert long - plain < 20000


def test_a_format_5_npz_archive_asks_for_a_rebuild(tmp_path, mini_dir, mini_index, capsys):
    # the index as `save_index` wrote it through format 5: an `np.savez`
    # archive of the same members and a JSON `meta` scalar
    path = tmp_path / "index.npz"
    meta = json.dumps({"format_version": 5, "collection_sha256": None})
    np.savez(path, meta=np.array(meta), **index_members(mini_index))
    with pytest.raises(ParseError) as exc:
        load_index(path)
    assert str(exc.value).startswith(f"{path}: not a readable zeqr index (")
    assert str(exc.value).endswith("); rebuild it with `zeqr index`")
    capsys.readouterr()
    assert main(["run", "--index", str(path), "--topics", str(mini_dir / "topics.json"),
                 "--reader", "echo", "--out", str(tmp_path / "r.trec")]) == 2
    assert "rebuild it with `zeqr index`" in capsys.readouterr().err


def _unreadable(path) -> str:
    """Why `load_index` finds the file at `path` no readable index."""
    with pytest.raises(ParseError) as exc:
        load_index(path)
    message = str(exc.value)
    prefix, suffix = f"{path}: not a readable zeqr index (", "); rebuild it with `zeqr index`"
    assert message.startswith(prefix) and message.endswith(suffix), message
    return message[len(prefix):-len(suffix)]


@pytest.mark.parametrize("name", list(retrieval._MEMBERS))
def test_a_damaged_member_fails_its_crc_check(tmp_path, mini_index, name):
    # the member's last byte flips under the CRC-32 of the sound one; a flip
    # in `bodies` keeps every offset in range and ASCII text ASCII, so only
    # the CRC can tell
    path = tmp_path / "index.npz"
    save_index(mini_index, path)
    sound = json.loads(path.read_bytes().split(b"\n")[0])
    members = index_members(mini_index)
    members[name].view(np.uint8)[-1] ^= 0x01
    write_index(path, members, lambda meta: meta | {"crc32": sound["crc32"]})
    assert _unreadable(path) == f"{name} fails its CRC-32 check"


def _with_counts(edit):
    return lambda meta: meta | {"counts": edit(meta["counts"])}


@pytest.mark.parametrize("meta, damage, reason", [
    (None, lambda data: data[:-1], "the file ends inside body_offsets"),
    (None, lambda data: data[:4096], "the file ends inside bodies"),  # as CI cuts it
    (None, lambda data: data + b"\0", "the last member ends at byte {end} of {size}"),
    (_with_counts(lambda counts: [-1, *counts[1:]]), None,
     "meta.counts[0] is -1, not a non-negative integer"),
    (_with_counts(lambda counts: [counts[0] + 10**20, *counts[1:]]), None,
     "the file ends inside doc_ids"),
    # one member more or fewer than the file holds
    (_with_counts(lambda counts: counts[:-1]), None,
     "zip() argument 2 is shorter"),
    (lambda meta: meta | {"crc32": [*meta["crc32"], 0]}, None,
     "zip() argument 3 is longer"),
    (lambda meta: b"\xff", None,
     "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"),
    (lambda meta: b"{", None, "invalid JSON: Expecting property name enclosed in double "
                              "quotes: line 1 column 2 (char 1)"),
    (None, lambda data: data[:data.index(b"\n")], "no metadata line"),
], ids=["cut-by-a-byte", "cut-in-a-member", "a-byte-past-the-end", "count-negative",
        "count-past-the-end", "counts-short", "crc32-long", "line-not-utf8", "line-not-json",
        "no-line"])
def test_a_damaged_index_file_is_not_a_readable_index(tmp_path, mini_index, meta, damage,
                                                       reason):
    path = tmp_path / "index.npz"
    write_index(path, index_members(mini_index), meta or (lambda meta: meta))
    data = path.read_bytes()
    if damage:
        path.write_bytes(damage(data))
    assert _unreadable(path).startswith(reason.format(end=len(data), size=len(data) + 1))


def test_an_index_that_cannot_be_opened_keeps_its_errno_and_path(tmp_path):
    for path, error in ((tmp_path / "missing.npz", FileNotFoundError),
                        (tmp_path, IsADirectoryError)):
        with pytest.raises(error) as exc:
            load_index(path)
        assert exc.value.filename == str(path)


def test_a_loaded_index_is_mapped_read_only_with_aligned_numbers(tmp_path, mini_index):
    path = tmp_path / "index.npz"
    save_index(mini_index, path)
    loaded = load_index(path)
    # every member the index holds as an array is a view of the mapped file,
    # aligned to its start, never a copy
    for array in (loaded._bounds, loaded._post_docs, loaded._post_tfs,
                  loaded.passages._blob, loaded.passages._offsets):
        assert not array.flags.writeable and not array.flags.owndata
        assert array.flags.aligned and array.ctypes.data % 64 == 0


def _swap_first_two(offsets):
    offsets[1], offsets[2] = offsets[2], offsets[1]
    return offsets


@pytest.mark.parametrize("malform", [
    lambda offsets: np.concatenate(([1], offsets[1:])),  # the blob's first byte is skipped
    _swap_first_two,  # out of order: one slice runs backwards
    lambda offsets: offsets[1:],  # one offset too few for the doc ids
], ids=["not-from-0", "out-of-order", "short"])
def test_malformed_body_offsets_are_a_parse_error(tmp_path, mini_index, malform):
    path = tmp_path / "index.npz"
    members = index_members(mini_index)
    members["body_offsets"] = malform(members["body_offsets"])
    write_index(path, members)
    assert _unreadable(path) == "body offsets do not match the doc ids and bodies"


def _swap_first_two_words(text):
    words = text.tobytes().split(b" ")
    words[:2] = words[1::-1]
    return np.frombuffer(b" ".join(words), dtype=np.uint8)


def _with_byte(position, byte):
    def malform(text):
        text[position] = byte
        return text
    return malform


@pytest.mark.parametrize("name, malform", [
    ("post_docs", lambda docs: docs + 1000),  # postings past the last document
    ("post_docs", lambda docs: np.concatenate(([-1], docs[1:]))),
    ("post_tfs", lambda tfs: tfs[:10]),  # fewer frequencies than postings
    ("post_tfs", lambda tfs: np.concatenate(([0], tfs[1:]))),  # a posting of no occurrence
    ("bounds", lambda bounds: np.concatenate((bounds[:-1], [bounds[-1] + 10**6]))),
    ("bounds", lambda bounds: bounds[:-1]),  # one bound too few for the terms
    ("bounds", lambda bounds: np.concatenate(([1], bounds[1:]))),  # not from 0
    ("bounds", lambda bounds: np.concatenate(([0, 0], bounds[2:]))),  # a term of no postings
    ("doc_ids", _swap_first_two_words),  # ids out of order
    ("terms", _swap_first_two_words),  # terms out of order
    # a NUL at the end of the last id keeps the ids in order
    ("doc_ids", lambda text: np.append(text, np.uint8(0))),
    ("doc_ids", _with_byte(0, 0xff)),  # not UTF-8
    ("doc_ids", lambda text: text[:0]),  # no documents
    ("meta", lambda meta: b"[" * 100_000 + b"]" * 100_000),  # past the recursion limit
    # the hash a --collection is compared with, and the version as text
    ("meta", lambda meta: meta | {"collection_sha256": 5}),
    ("meta", lambda meta: meta | {"format_version": str(retrieval.INDEX_FORMAT_VERSION)}),
], ids=["post_docs-past-the-end", "post_docs-negative", "post_tfs-short", "post_tfs-zero",
        "bounds-past-the-end", "bounds-short", "bounds-not-from-0", "bounds-not-increasing",
        "doc_ids-out-of-order", "terms-out-of-order", "doc_ids-nul", "doc_ids-not-utf8",
        "doc_ids-empty", "meta-nested-too-deep", "meta-hash-a-number",
        "meta-version-a-string"])
def test_malformed_index_arrays_are_a_parse_error(tmp_path, mini_index, name, malform):
    path = tmp_path / "index.npz"
    members = index_members(mini_index)
    if name == "meta":
        write_index(path, members, malform)
    else:
        members[name] = malform(members[name])
        write_index(path, members)
    _unreadable(path)


# Ids of letters and digits from any script; bodies of any characters,
# including 2-, 3- and 4-byte UTF-8 ones, line separators and whitespace.
PASSAGE_IDS = st.text(st.characters(whitelist_categories=("L", "N")), min_size=1, max_size=6)


@settings(max_examples=100, deadline=None)
@given(st.dictionaries(PASSAGE_IDS, st.text(min_size=1, max_size=30), min_size=1, max_size=8))
@example({"d1": "plain ascii", "é2": "naïve café, 日本語 and 😀", "三": "\u2028 \r\n\t"})
def test_passages_resolved_through_a_loaded_index_equal_the_collection(bodies):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        collection_path = tmp / "collection.jsonl"
        collection_path.write_text(
            "".join(json.dumps({"id": doc_id, "contents": body}, ensure_ascii=False) + "\n"
                    for doc_id, body in bodies.items()), encoding="utf-8")
        topics_path = tmp / "topics.json"
        topics_path.write_text(json.dumps([{"number": "1", "turn": [
            {"number": i, "raw_utterance": "q", "canonical_result_id": doc_id}
            for i, doc_id in enumerate(bodies, start=1)]}]), encoding="utf-8")
        collection = load_collection(collection_path)
        save_index(build_index(collection), tmp / "index.npz")
        loaded = load_index(tmp / "index.npz")
        (session,) = load_topics(topics_path, loaded.passages)
        assert [turn.canonical_answer for turn in session.turns] == \
            [doc.body for doc in collection] == list(bodies.values())
        assert dict(loaded.passages) == bodies


def test_offsets_that_split_a_character_fail_the_lookup_naming_the_index(tmp_path):
    path = tmp_path / "index.npz"
    members = index_members(build_index([Document("a", "é"), Document("b", "é")]))
    assert members["body_offsets"].tolist() == [0, 2, 4]
    members["body_offsets"][1] = 1
    write_index(path, members)
    passages = load_index(path).passages
    for doc_id in ("a", "b"):
        with pytest.raises(ParseError) as exc:
            passages[doc_id]
        assert str(exc.value) == f"{path}: passage {doc_id!r} is not UTF-8"


@pytest.mark.parametrize("meta, sha256", [
    ({"collection_sha256": "ab12"}, "ab12"),
    ({"collection_sha256": None}, None),
    ({}, None),
    ({"collection_sha256": "ab12", "built_by": "zeqr", "build": {"seconds": 1}}, "ab12"),
], ids=["hash", "null", "absent", "extra-fields"])
def test_index_metadata_of_any_accepted_shape_loads(tmp_path, mini_index, meta, sha256):
    path = tmp_path / "index.npz"
    write_index(path, index_members(mini_index),
                lambda written: {name: value for name, value in written.items()
                                 if name != "collection_sha256"} | meta)
    loaded = load_index(path)
    assert loaded.collection_sha256 == sha256
    assert loaded.doc_ids == mini_index.doc_ids


def test_index_version_check(tmp_path, mini_index):
    path = tmp_path / "index.npz"
    # 5 is the last format of NumPy archives, 1 the one whose terms could be
    # stemmed or stopword-filtered
    for version in (99, 5, 1):
        write_index(path, index_members(mini_index),
                    lambda meta: meta | {"format_version": version})
        assert _unreadable(path) == f"format version {version}, not 6"


# ---- external_search ----

def test_external_search_echo_stub(service):
    service.reply = json_reply(lambda path, body: (200, {"hits": [
        {"doc_id": "d1", "score": 2.0}, {"doc_id": "d2", "score": 1.0}]}))
    result = external_search(service.url, "q", 5, query_id="q")
    assert result.ranked == (("d1", 2.0), ("d2", 1.0))


def test_external_search_takes_a_reply_with_fields_beyond_the_contract(service):
    hits = [{"doc_id": "d1", "score": 2.0}, {"doc_id": 7, "score": 1}]
    results = []
    for reply in ({"hits": hits},
                  {"hits": [{**hit, "title": "a title"} for hit in hits], "took_ms": 3}):
        service.reply = json_reply(lambda path, body, reply=reply: (200, reply))
        results.append(external_search(service.url, "q", 5, query_id="1_1"))
    assert results == [RunResult("1_1", (("d1", 2.0), ("7", 1.0)), "external")] * 2
    assert type(results[1].ranked[1][1]) is float


def test_external_search_rejects_increasing_scores(service):
    service.reply = json_reply(lambda path, body: (200, {"hits": [
        {"doc_id": "d1", "score": 1.0}, {"doc_id": "d2", "score": 2.0}]}))
    with pytest.raises(ProtocolError):
        external_search(service.url, "q", 5, query_id="q")


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf,
                                 pytest.param(10 ** 400, id="int_past_the_float_range")])
def test_external_search_rejects_non_finite_scores(service, bad):
    # json.dumps writes NaN/Infinity, and json.loads reads them back as floats
    service.reply = json_reply(lambda path, body: (200, {"hits": [
        {"doc_id": "d1", "score": 2.0}, {"doc_id": "d2", "score": bad}]}))
    with pytest.raises(ProtocolError) as exc:
        external_search(service.url, "q", 5, query_id="q")
    shown = "1" + "0" * 36 + "..." if bad == 10 ** 400 else json.dumps(bad)
    assert str(exc.value) == \
        f"{service.url}/search: response.hits[1].score is {shown}, not a finite number"


@pytest.mark.parametrize("bad", ["1.5", True, None, [1.5]])
def test_external_search_takes_a_score_only_as_a_json_number(service, bad):
    service.reply = json_reply(lambda path, body: (200, {"hits": [
        {"doc_id": "d1", "score": 2}, {"doc_id": "d2", "score": bad}]}))
    with pytest.raises(ProtocolError) as exc:
        external_search(service.url, "q", 5, query_id="q")
    assert str(exc.value) == (f"{service.url}/search: response.hits[1].score is "
                              f"{json.dumps(bad)}, not a finite number")


@pytest.mark.parametrize("reply", [
    [], {}, {"hits": None}, {"hits": {"doc_id": "d1", "score": 1.0}},  # no hits list
    {"hits": [{"doc_id": "d1", "score": 2.0}, {"doc_id": "d2", "score": 1.0}]},  # above k
    {"hits": ["d1"]}, {"hits": [None]}, {"hits": [["d1", 1.0]]},  # a hit not an object
    {"hits": [{"doc_id": "d1"}]},  # a hit with no score
])
def test_external_search_rejects_a_reply_that_breaks_the_contract(service, reply):
    service.reply = json_reply(lambda path, body: (200, reply))
    with pytest.raises(ProtocolError) as exc:
        external_search(service.url, "q", 1, query_id="q")
    assert service.url in str(exc.value)


# a lone surrogate arrives as a \ud800 escape, and no run file can encode it;
# an id that is neither a string nor an integer would become "True" or "None"
@pytest.mark.parametrize("doc_id", ["x y", "tab\tid", "d2\x00", "", "d\ud800",
                                    True, None, 1.5, [1]])
def test_external_search_rejects_an_id_a_run_file_cannot_carry(service, doc_id):
    service.reply = json_reply(lambda path, body: (200, {"hits": [
        {"doc_id": "d1", "score": 2.0}, {"doc_id": doc_id, "score": 1.0}]}))
    with pytest.raises(ProtocolError) as exc:
        external_search(service.url, "q", 5, query_id="q")
    if doc_id == "d\ud800":  # refused as the reply is parsed
        assert str(exc.value) == (f"{service.url}/search: a string holds the lone surrogate "
                                  "'\\ud800', which UTF-8 cannot encode")
    else:
        assert str(exc.value) == (
            f"{service.url}/search: response.hits[1].doc_id is "
            f"{json.dumps(doc_id, ensure_ascii=False)}, not an integer or a string a run "
            "file can carry")


def test_external_search_loopback_equivalence(service, mini_index):
    config = Config()

    def respond(path, body):
        result = bm25_search(mini_index, body["query"], body["k"], config, query_id="q")
        return 200, {"hits": [{"doc_id": d, "score": s} for d, s in result.ranked]}

    service.reply = json_reply(respond)
    for query in ("breast cancer", "food truck permits"):
        direct = bm25_search(mini_index, query, 10, config, query_id="q")
        remote = external_search(service.url, query, 10, query_id="q")
        assert remote.ranked == direct.ranked


def test_external_search_retries_a_server_error(extract_service, retries):
    replies = iter([(503, {"error": "busy"}), (200, {"hits": [{"doc_id": "d1", "score": 1.0}]})])
    extract_service.respond = lambda question, context: next(replies)
    result = external_search(extract_service.url, "q", 5, query_id="q")
    assert result.ranked == (("d1", 1.0),)
    assert len(extract_service.questions) == 2


def test_external_search_transport_error(monkeypatch, retries):
    # the same TransportError a remote reader raises, which fails one turn
    monkeypatch.setattr("zeqr.retrieval.TIMEOUT_S", 0.2)
    retries(2)
    with pytest.raises(TransportError) as exc:
        external_search("http://127.0.0.1:9", "q", 5, query_id="q")
    assert exc.value.endpoint == "http://127.0.0.1:9"
    assert exc.value.attempts == 2


# ---- randomized brute-force agreement (module-level; the acceptance suite
# runs the full 200x50 version) ----

def test_random_corpus_agrees_with_brute_force():
    rng = random.Random(42)
    vocab = [f"w{i}" for i in range(40)]
    docs = [Document(f"d{i:03d}", " ".join(rng.choices(vocab, k=rng.randint(3, 30))))
            for i in range(50)]
    index = build_index(docs)
    config = Config()
    for _ in range(10):
        query = " ".join(rng.choices(vocab, k=rng.randint(1, 4)))
        got = bm25_search(index, query, 10, config, query_id="q")
        want = brute_force_ranking(docs, query, 10)
        assert [d for d, _ in got.ranked] == [d for d, _ in want]
        for (_, g), (_, w) in zip(got.ranked, want):
            assert g == pytest.approx(w, abs=1e-6)
