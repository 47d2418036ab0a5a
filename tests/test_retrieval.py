import json
import math
import random
import threading
from collections import Counter
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from zeqr.datamodel import Config
from zeqr.errors import ProtocolError, RetrievalError
from zeqr.ingest import Document, build_idf_table
from zeqr.retrieval import (
    RunResult,
    bm25_search,
    build_index,
    external_search,
    load_index,
    read_run,
    save_index,
    write_run,
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
    doc_terms = [normalize(doc.body) for doc in collection]
    lengths = [len(terms) for terms in doc_terms]
    assert index.doc_lengths.dtype == np.int32
    assert index._post_docs.dtype == np.int32
    assert index._post_tfs.dtype == np.float64
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
    for name in ("doc_lengths", "_post_docs", "_post_tfs", "_doc_rank"):
        x, y = getattr(a, name), getattr(b, name)
        assert x.dtype == y.dtype and np.array_equal(x, y), name


def test_index_save_load_roundtrip(tmp_path, mini_index, mini_collection):
    path = tmp_path / "index.npz"
    save_index(mini_index, path)
    loaded = load_index(path)
    assert_same_index(loaded, mini_index)
    config = Config()
    for query in ("breast cancer treatments", "salt lake city economy"):
        a = bm25_search(mini_index, query, 20, config)
        b = bm25_search(loaded, query, 20, config)
        assert a == b

    # an earlier build wrote the same arrays compressed, with float64 tfs
    with np.load(path) as data:
        arrays = dict(data)
    arrays["post_tfs"] = arrays["post_tfs"].astype(np.float64)
    compressed = tmp_path / "compressed.npz"
    np.savez_compressed(compressed, **arrays)
    assert_same_index(load_index(compressed), mini_index)


def test_index_version_check(tmp_path, mini_index):
    from zeqr.errors import ParseError

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

class _SearchHandler(BaseHTTPRequestHandler):
    respond = None

    def do_POST(self):
        body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        data = json.dumps(self.respond(body)).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, *args):
        pass


@pytest.fixture
def search_server():
    server = ThreadingHTTPServer(("127.0.0.1", 0), _SearchHandler)
    threading.Thread(target=server.serve_forever, daemon=True).start()
    yield server
    server.shutdown()


def test_external_search_echo_stub(search_server):
    _SearchHandler.respond = staticmethod(
        lambda body: {"hits": [{"doc_id": "d1", "score": 2.0},
                               {"doc_id": "d2", "score": 1.0}]})
    result = external_search(f"http://127.0.0.1:{search_server.server_port}", "q", 5)
    assert result.ranked == (("d1", 2.0), ("d2", 1.0))


def test_external_search_rejects_increasing_scores(search_server):
    _SearchHandler.respond = staticmethod(
        lambda body: {"hits": [{"doc_id": "d1", "score": 1.0},
                               {"doc_id": "d2", "score": 2.0}]})
    with pytest.raises(ProtocolError):
        external_search(f"http://127.0.0.1:{search_server.server_port}", "q", 5)


def test_external_search_loopback_equivalence(search_server, mini_index):
    config = Config()

    def respond(body):
        result = bm25_search(mini_index, body["query"], body["k"], config)
        return {"hits": [{"doc_id": d, "score": s} for d, s in result.ranked]}

    _SearchHandler.respond = staticmethod(respond)
    endpoint = f"http://127.0.0.1:{search_server.server_port}"
    for query in ("breast cancer", "food truck permits"):
        direct = bm25_search(mini_index, query, 10, config)
        remote = external_search(endpoint, query, 10)
        assert remote.ranked == direct.ranked


def test_external_search_retries_a_server_error(extract_service):
    replies = iter([(503, {"error": "busy"}), (200, {"hits": [{"doc_id": "d1", "score": 1.0}]})])
    extract_service.respond = lambda question, context: next(replies)
    result = external_search(extract_service.url, "q", 5)
    assert result.ranked == (("d1", 1.0),)
    assert len(extract_service.questions) == 2


def test_external_search_transport_error():
    with pytest.raises(RetrievalError) as exc:
        external_search("http://127.0.0.1:9", "q", 5, timeout=0.2)
    assert "127.0.0.1:9" in str(exc.value)


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
