import json
import math
import random
import struct
import tempfile
import zipfile
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import json_reply
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
    result = bm25_search(mini_index, "mammogram", 5, Config())
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
    result = bm25_search(index, "red apples", 5, config)
    expected = brute_force_ranking(docs, "red apples", 5)
    assert [d for d, _ in result.ranked] == [d for d, _ in expected]
    for (_, got), (_, want) in zip(result.ranked, expected):
        assert got == pytest.approx(want, abs=1e-6)


def test_tie_break_by_doc_id():
    docs = [Document("zz", "same words"), Document("aa", "same words")]
    result = bm25_search(build_index(docs), "same", 2, Config())
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
    full = bm25_search(index, query, len(docs), config).ranked
    for k in range(1, len(docs) + 1):
        got = bm25_search(index, query, k, config).ranked
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
    results = [bm25_search(mini_index, query, 10, config) for config in sequence]
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
    assert [bm25_search(loaded, query, 10, config).ranked for config in sequence] == \
        [result.ranked for result in results]


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
    assert bm25_search(index, query, k, config).ranked == \
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
    assert bm25_search(mini_index, "zzz qqq", 5, Config()).ranked == ()


def test_k_must_be_positive(mini_index):
    with pytest.raises(ValueError):
        bm25_search(mini_index, "cancer", 0, Config())


def test_duplicate_query_terms_count_twice():
    docs = [Document("d1", "apple banana"), Document("d2", "apple cherry")]
    index = build_index(docs)
    once = bm25_search(index, "apple", 2, Config()).ranked[0][1]
    twice = bm25_search(index, "apple apple", 2, Config()).ranked[0][1]
    assert twice == pytest.approx(2 * once)


def test_added_nonmatching_doc_pinned_stats():
    docs = [
        Document("a", "apples and pears on the table"),
        Document("b", "apples apples everywhere"),
        Document("c", "pears in a bowl"),
    ]
    config = Config()
    query = "apples pears"
    before = bm25_search(build_index(docs), query, 10, config)
    # the added document matches no query term and has exactly the average
    # length, so the ranked set must not gain it
    extra = Document("zz", "x y z w v u")
    after = bm25_search(build_index(docs + [extra]), query, 10, config)
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
        a = bm25_search(mini_index, query, 20, config)
        b = bm25_search(loaded, query, 20, config)
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
    # every string is a UTF-8 vector, and no document length is stored
    with np.load(path) as data:
        assert sorted(data) == ["bodies", "body_offsets", "bounds", "doc_ids", "meta",
                                "post_docs", "post_tfs", "terms"]
        for name in ("doc_ids", "terms", "bodies"):
            assert data[name].dtype == np.uint8 and data[name].ndim == 1, name


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


def test_a_format_4_index_asks_for_a_rebuild(tmp_path, mini_dir, mini_index, capsys):
    path = tmp_path / "index.npz"
    save_index(mini_index, path)
    with np.load(path) as data:
        arrays = dict(data)
    # format 4 held fixed-width strings and the document lengths
    arrays |= {"meta": np.array(json.dumps({"format_version": 4, "collection_sha256": None})),
               "doc_ids": np.asarray(mini_index.doc_ids),
               "terms": np.asarray(list(mini_index._vocab)),
               "doc_lengths": mini_index.doc_lengths}
    np.savez(path, **arrays)
    with pytest.raises(ParseError) as exc:
        load_index(path)
    assert str(exc.value).startswith(f"{path}: unsupported index format version 4")
    assert "rebuild with `zeqr index`" in str(exc.value)
    capsys.readouterr()
    assert main(["run", "--index", str(path), "--topics", str(mini_dir / "topics.json"),
                 "--reader", "echo", "--out", str(tmp_path / "r.trec")]) == 2
    assert "rebuild with `zeqr index`" in capsys.readouterr().err


def test_a_format_2_or_compressed_index_asks_for_a_rebuild(tmp_path, mini_index):
    path = tmp_path / "index.npz"
    save_index(mini_index, path)
    with np.load(path) as data:
        arrays = dict(data)
    # format 3 held starts and ends in place of bounds, and the average
    # document length in its metadata; format 2 held the same less the passages
    format_3 = {name: array for name, array in arrays.items() if name != "bounds"} | {
        "starts": arrays["bounds"][:-1], "ends": arrays["bounds"][1:],
        "meta": np.array(json.dumps({"format_version": 3, "avg_doc_length": 1,
                                     "collection_sha256": None}))}
    format_2 = {name: array for name, array in format_3.items()
                if name not in ("bodies", "body_offsets")} | {
        "meta": np.array(json.dumps({"format_version": 2, "avg_doc_length": 1}))}
    for version, older in ((2, format_2), (3, format_3)):
        np.savez(tmp_path / f"format{version}.npz", **older)
    compressed = tmp_path / "compressed.npz"
    np.savez_compressed(compressed, **arrays)
    for bad in (tmp_path / "format2.npz", tmp_path / "format3.npz", compressed):
        with pytest.raises(ParseError) as exc:
            load_index(bad)
        assert str(exc.value).startswith(f"{bad}: ")
        assert "rebuild with `zeqr index`" in str(exc.value)


def _member_data(path, name):
    """The offset and length of member `name`'s data (its .npy header and
    array) in the archive at `path`."""
    with zipfile.ZipFile(path) as archive:
        info = archive.getinfo(f"{name}.npy")
    data = path.read_bytes()
    name_length, extra_length = struct.unpack_from("<HH", data, info.header_offset + 26)
    return info.header_offset + 30 + name_length + extra_length, info.file_size


@pytest.mark.parametrize("name", list(retrieval._MEMBERS))
def test_a_damaged_member_fails_its_crc_check(tmp_path, mini_index, name):
    # the last byte of every member is array data; a flip in `bodies` keeps
    # every offset in range and ASCII text ASCII, so only the CRC can tell
    path = tmp_path / "index.npz"
    save_index(mini_index, path)
    start, length = _member_data(path, name)
    data = bytearray(path.read_bytes())
    data[start + length - 1] ^= 0x01
    path.write_bytes(data)
    with pytest.raises(ParseError) as exc:
        load_index(path)
    assert str(exc.value) == f"{path}: not a readable zeqr index ({name} fails its CRC-32 check)"


def test_an_npy_header_zeqr_does_not_write_is_not_a_readable_index(tmp_path, mini_index):
    # a Fortran-order flag is one no .npy header of zeqr's holds; the CRC is
    # mended, so only the header check can tell
    path = tmp_path / "index.npz"
    save_index(mini_index, path)
    with zipfile.ZipFile(path) as archive:
        arrays = {info.filename: archive.read(info) for info in archive.infolist()}
    arrays["bounds.npy"] = arrays["bounds.npy"].replace(b"False", b"True ")
    with zipfile.ZipFile(path, "w") as archive:
        for name, data in arrays.items():
            archive.writestr(name, data)
    with pytest.raises(ParseError) as exc:
        load_index(path)
    assert str(exc.value) == f"{path}: not a readable zeqr index (bounds has no .npy header " \
                             "zeqr writes)"


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
    numbers = (loaded._bounds, loaded._post_docs, loaded._post_tfs, loaded.passages._offsets)
    assert all(array.flags.aligned for array in numbers)
    # the blob is a view of the file, never a copy
    assert not loaded.passages._blob.flags.writeable


def _swap_first_two(offsets):
    offsets[1], offsets[2] = offsets[2], offsets[1]
    return offsets


@pytest.mark.parametrize("malform", [
    lambda offsets: np.concatenate(([1], offsets[1:])),  # the blob's first byte is skipped
    _swap_first_two,  # out of order: one slice runs backwards
    lambda offsets: offsets[1:],  # one offset too few for the doc ids
    lambda offsets: offsets + 0.5,  # fractional offsets
], ids=["not-from-0", "out-of-order", "short", "float"])
def test_malformed_body_offsets_are_a_parse_error(tmp_path, mini_index, malform):
    path = tmp_path / "index.npz"
    save_index(mini_index, path)
    with np.load(path) as data:
        arrays = dict(data)
    arrays["body_offsets"] = malform(arrays["body_offsets"].copy())
    np.savez(path, **arrays)
    with pytest.raises(ParseError) as exc:
        load_index(path)
    assert str(exc.value).startswith(f"{path}: not a readable zeqr index")


def _swap_first_two_words(text):
    words = text.tobytes().split(b" ")
    words[:2] = words[1::-1]
    return np.frombuffer(b" ".join(words), dtype=np.uint8)


def _with_byte(position, byte):
    def malform(text):
        text[position] = byte
        return text
    return malform


def _meta_offset_past_2_63(archive):
    """The archive with meta.npy's directory entry giving its local header
    offset as 0xFFFFFFFF and, in a ZIP64 extra field, as 2**64 - 1."""
    end = len(archive) - 22  # the end-of-directory record, with no comment
    directory_size, start = struct.unpack_from("<LL", archive, end + 12)
    name_length, extra_length = struct.unpack_from("<HH", archive, start + 28)
    assert archive[start + 46:start + 46 + name_length] == b"meta.npy" and extra_length == 0
    extra = struct.pack("<HHQ", 1, 8, 2**64 - 1)
    entry = bytearray(archive[start:start + 46 + name_length])
    struct.pack_into("<H", entry, 30, len(extra))
    struct.pack_into("<L", entry, 42, 0xFFFFFFFF)
    tail = bytearray(archive[end:])
    struct.pack_into("<L", tail, 12, directory_size + len(extra))
    return archive[:start] + entry + extra + archive[start + 46 + name_length:end] + tail


@pytest.mark.parametrize("name, malform", [
    ("post_docs", lambda docs: docs + 1000),  # postings past the last document
    ("post_docs", lambda docs: np.concatenate(([-1], docs[1:]))),
    ("post_docs", lambda docs: docs.astype(np.int64) + 2**32),  # in range once cast to int32
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
    ("doc_ids", lambda text: text.astype(np.int32)),
    ("doc_ids", lambda text: text[:0]),  # no documents
    ("bounds", lambda bounds: bounds.astype(np.float64)),  # not slice indices
    ("post_docs", lambda docs: docs.astype(np.float64)),
    ("post_tfs", lambda tfs: tfs + 0.5),  # would score as more occurrences
    ("post_tfs", lambda tfs: tfs.astype(bool)),
    ("meta", lambda meta: np.array("[" * 100_000 + "]" * 100_000)),  # past the recursion limit
    # the hash a --collection is compared with, and the version as text
    ("meta", lambda meta: np.array(json.dumps({
        "format_version": retrieval.INDEX_FORMAT_VERSION, "collection_sha256": 5}))),
    ("meta", lambda meta: np.array(json.dumps({
        "format_version": str(retrieval.INDEX_FORMAT_VERSION), "collection_sha256": None}))),
    ("archive", _meta_offset_past_2_63),  # an offset no seek takes
], ids=["post_docs-past-the-end", "post_docs-negative", "post_docs-wrapping",
        "post_tfs-short", "post_tfs-zero", "bounds-past-the-end", "bounds-short",
        "bounds-not-from-0", "bounds-not-increasing", "doc_ids-out-of-order",
        "terms-out-of-order", "doc_ids-nul", "doc_ids-not-utf8", "doc_ids-int32",
        "doc_ids-empty", "bounds-float", "post_docs-float", "post_tfs-fractional",
        "post_tfs-bool", "meta-nested-too-deep", "meta-hash-a-number", "meta-version-a-string",
        "archive-zip64-offset-past-2-63"])
def test_malformed_index_arrays_are_a_parse_error(tmp_path, mini_index, name, malform):
    path = tmp_path / "index.npz"
    save_index(mini_index, path)
    if name == "archive":
        path.write_bytes(malform(path.read_bytes()))
    else:
        with np.load(path) as data:
            arrays = dict(data)
        arrays[name] = malform(arrays[name].copy())
        np.savez(path, **arrays)
    with pytest.raises(ParseError) as exc:
        load_index(path)
    assert str(exc.value).startswith(f"{path}: not a readable zeqr index")


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
    save_index(build_index([Document("a", "é"), Document("b", "é")]), path)
    with np.load(path) as data:
        arrays = dict(data)
    assert arrays["body_offsets"].tolist() == [0, 2, 4]
    arrays["body_offsets"][1] = 1
    np.savez(path, **arrays)
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
    save_index(mini_index, path)
    with np.load(path) as data:
        arrays = dict(data)
    arrays["meta"] = np.array(json.dumps({"format_version": retrieval.INDEX_FORMAT_VERSION,
                                          **meta}))
    np.savez(path, **arrays)
    loaded = load_index(path)
    assert loaded.collection_sha256 == sha256
    assert loaded.doc_ids == mini_index.doc_ids


def test_index_version_check(tmp_path, mini_index):
    path = tmp_path / "index.npz"
    save_index(mini_index, path)
    with np.load(path) as data:
        arrays = dict(data)
    # 1 is the format whose terms could be stemmed or stopword-filtered
    for version in (99, 1):
        arrays["meta"] = np.array(json.dumps({"format_version": version, "avg_doc_length": 1,
                                              "analyzer": {"stem": False,
                                                           "remove_stopwords": False}}))
        np.savez(path, **arrays)
        with pytest.raises(ParseError):
            load_index(path)


# ---- external_search ----

def test_external_search_echo_stub(service):
    service.reply = json_reply(lambda path, body: (200, {"hits": [
        {"doc_id": "d1", "score": 2.0}, {"doc_id": "d2", "score": 1.0}]}))
    result = external_search(service.url, "q", 5)
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
        external_search(service.url, "q", 5)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf,
                                 pytest.param(10 ** 400, id="int_past_the_float_range")])
def test_external_search_rejects_non_finite_scores(service, bad):
    # json.dumps writes NaN/Infinity, and json.loads reads them back as floats
    service.reply = json_reply(lambda path, body: (200, {"hits": [
        {"doc_id": "d1", "score": 2.0}, {"doc_id": "d2", "score": bad}]}))
    with pytest.raises(ProtocolError) as exc:
        external_search(service.url, "q", 5)
    shown = "1" + "0" * 36 + "..." if bad == 10 ** 400 else json.dumps(bad)
    assert str(exc.value) == \
        f"{service.url}/search: response.hits[1].score is {shown}, not a finite number"


@pytest.mark.parametrize("bad", ["1.5", True, None, [1.5]])
def test_external_search_takes_a_score_only_as_a_json_number(service, bad):
    service.reply = json_reply(lambda path, body: (200, {"hits": [
        {"doc_id": "d1", "score": 2}, {"doc_id": "d2", "score": bad}]}))
    with pytest.raises(ProtocolError) as exc:
        external_search(service.url, "q", 5)
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
        external_search(service.url, "q", 1)
    assert service.url in str(exc.value)


# a lone surrogate arrives as a \ud800 escape, and no run file can encode it;
# an id that is neither a string nor an integer would become "True" or "None"
@pytest.mark.parametrize("doc_id", ["x y", "tab\tid", "d2\x00", "", "d\ud800",
                                    True, None, 1.5, [1]])
def test_external_search_rejects_an_id_a_run_file_cannot_carry(service, doc_id):
    service.reply = json_reply(lambda path, body: (200, {"hits": [
        {"doc_id": "d1", "score": 2.0}, {"doc_id": doc_id, "score": 1.0}]}))
    with pytest.raises(ProtocolError) as exc:
        external_search(service.url, "q", 5)
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
        result = bm25_search(mini_index, body["query"], body["k"], config)
        return 200, {"hits": [{"doc_id": d, "score": s} for d, s in result.ranked]}

    service.reply = json_reply(respond)
    for query in ("breast cancer", "food truck permits"):
        direct = bm25_search(mini_index, query, 10, config)
        remote = external_search(service.url, query, 10)
        assert remote.ranked == direct.ranked


def test_external_search_retries_a_server_error(extract_service, retries):
    replies = iter([(503, {"error": "busy"}), (200, {"hits": [{"doc_id": "d1", "score": 1.0}]})])
    extract_service.respond = lambda question, context: next(replies)
    result = external_search(extract_service.url, "q", 5)
    assert result.ranked == (("d1", 1.0),)
    assert len(extract_service.questions) == 2


def test_external_search_transport_error(monkeypatch, retries):
    # the same TransportError a remote reader raises, which fails one turn
    monkeypatch.setattr("zeqr.retrieval.TIMEOUT_S", 0.2)
    retries(2)
    with pytest.raises(TransportError) as exc:
        external_search("http://127.0.0.1:9", "q", 5)
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
        got = bm25_search(index, query, 10, config)
        want = brute_force_ranking(docs, query, 10)
        assert [d for d, _ in got.ranked] == [d for d, _ in want]
        for (_, g), (_, w) in zip(got.ranked, want):
            assert g == pytest.approx(w, abs=1e-6)
