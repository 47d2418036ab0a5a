#!/usr/bin/env python3
"""Time bm25_search on a synthetic corpus.

Builds a corpus with a zipf-ish term distribution, runs a zipf-ish query
load through bm25_search (k = 100) after a short warm-up, and reports
per-query latency and postings throughput.

`perfbench/generate.py` builds every benchmark workload's collection from
`synthetic_corpus`, so changing that function changes the benchmark's
inputs.

Usage: python benchmarks/bench_bm25.py [--docs 20000] [--queries 200]
"""

import argparse
import random
import time

from zeqr.datamodel import Config
from zeqr.ingest import Document
from zeqr.retrieval import bm25_search, build_index
from zeqr.text import normalize


def synthetic_corpus(num_docs: int, vocab_size: int, seed: int) -> list[Document]:
    rng = random.Random(seed)
    vocab = [f"t{i}" for i in range(vocab_size)]
    weights = [1.0 / (i + 1) for i in range(vocab_size)]
    return [
        Document(f"d{i:06d}",
                 " ".join(rng.choices(vocab, weights=weights, k=rng.randint(20, 200))))
        for i in range(num_docs)
    ]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--docs", type=int, default=20000)
    parser.add_argument("--vocab", type=int, default=5000)
    parser.add_argument("--queries", type=int, default=200)
    parser.add_argument("--seed", type=int, default=13)
    args = parser.parse_args()

    print(f"building corpus: {args.docs} docs, vocab {args.vocab} ...")
    corpus = synthetic_corpus(args.docs, args.vocab, args.seed)
    build_start = time.perf_counter()
    index = build_index(corpus)
    print(f"indexed in {time.perf_counter() - build_start:.2f}s "
          f"({index.num_terms} terms, {len(index._post_docs)} postings)")

    rng = random.Random(args.seed + 1)
    vocab = [f"t{i}" for i in range(args.vocab)]
    weights = [1.0 / (i + 1) for i in range(args.vocab)]
    queries = [" ".join(rng.choices(vocab, weights=weights, k=rng.randint(2, 6)))
               for _ in range(args.queries)]
    config = Config()
    postings_touched = sum(
        index.document_frequency(t)
        for q in queries for t in normalize(q)
    )

    for query in queries[:10]:
        bm25_search(index, query, 100, config)
    start = time.perf_counter()
    for i, query in enumerate(queries):
        bm25_search(index, query, 100, config, query_id=str(i))
    elapsed = time.perf_counter() - start
    print(f"bm25_search  {elapsed:8.3f}s total  "
          f"{1e3 * elapsed / len(queries):8.3f} ms/query  "
          f"{postings_touched / elapsed / 1e6:8.2f} M postings/s")


if __name__ == "__main__":
    main()
