"""A seeded mutation fuzz of every input zeqr reads.

Each reader gets its fixture with a few bytes flipped, deleted or spliced
in, a fixed number of times from a fixed seed. Every call must either
return or raise a ZeqrError whose message names the damaged file or the
service's URL: no other exception, and no error that leaves the user
guessing which input was bad.
"""

import json
import random

from conftest import FIXTURES, MINI, loopback

from zeqr import ingest
from zeqr.datamodel import Config
from zeqr.errors import ZeqrError
from zeqr.reader import OracleReader, RemoteReader, build_reader_input
from zeqr.retrieval import external_search, load_index, save_index

GOLDEN = FIXTURES / "golden"
SEED = 19
# Damaged copies per reader: about 1.5 s for all ten readers together.
MUTATIONS = 300
# Spliced in whole: bytes that end a record, quote or escape, and texts a
# reader must refuse: NaN, a number past the float range, an unpaired
# surrogate and a 30-digit number.
TOKENS = (b"\x00", b"\xff", b"\n", b"\r", b"\t", b" ", b'"', b"\\", b"{", b"[", b"]", b"#",
          b"_", b"-0", b"1e999", b"NaN", b"\\ud800", b"9" * 30)

FILE_READERS = {
    "topics.json": (MINI / "topics.json", ingest.load_topics),
    "collection.jsonl": (MINI / "collection.jsonl", ingest.load_collection),
    "qrels.txt": (MINI / "qrels.txt", ingest.load_qrels),
    "run.trec": (GOLDEN / "run_full.trec", ingest.read_run),
    "traces.jsonl": (GOLDEN / "traces_full.jsonl", ingest.read_traces),
    "idf.tsv": (GOLDEN / "idf.tsv", ingest.load_idf_table),
    "oracle.json": (MINI / "oracle.json", OracleReader.from_json),
}


def mutate(data: bytes, rng: random.Random) -> bytes:
    """data with one to three edits: a bit flipped, a run of bytes deleted,
    a token or random bytes inserted."""
    data = bytearray(data)
    for _ in range(rng.randint(1, 3)):
        at = rng.randrange(len(data) + 1)
        edit = rng.randrange(4)
        if edit == 0 and at < len(data):
            data[at] ^= 1 << rng.randrange(8)
        elif edit == 1:
            del data[at:at + rng.randint(1, 8)]
        elif edit == 2:
            data[at:at] = rng.choice(TOKENS)
        else:
            data[at:at] = rng.randbytes(rng.randint(1, 4))
    return bytes(data)


def _escapes(call, location: str) -> str | None:
    """How call() breaks the rule, or None when it returns or raises a
    ZeqrError naming location."""
    try:
        call()
    except ZeqrError as exc:
        return None if location in str(exc) else f"ZeqrError not naming {location}: {exc}"
    except Exception as exc:
        return f"{type(exc).__name__}: {exc}"
    return None


def test_no_damaged_input_escapes_as_anything_but_an_error_naming_it(tmp_path, mini_index):
    rng = random.Random(SEED)
    index_source = tmp_path / "source.npz"
    save_index(mini_index, index_source, "ab" * 32)
    readers = {name: (source.read_bytes(), read) for name, (source, read) in FILE_READERS.items()}
    # the passages are read too: a lookup decodes its slice of the blob
    readers["index.npz"] = (index_source.read_bytes(), lambda path: dict(load_index(path).passages))
    escapes = []
    for name, (source, read) in readers.items():
        path = tmp_path / name
        for i in range(MUTATIONS):
            path.write_bytes(mutate(source, rng))
            if (escape := _escapes(lambda: read(path), str(path))) is not None:
                escapes.append(f"{name} #{i}: {escape}")

    rinput = build_reader_input("What is that refer to?", "Lobular Neoplasia is not cancer.",
                                Config())
    replies = {
        "/extract": {"answer": "Lobular Neoplasia", "start": 0, "end": 17, "score": 0.5},
        "/search": {"hits": [{"doc_id": "b01", "score": 2.0}, {"doc_id": 7, "score": 1}]},
    }
    with loopback() as service:
        reader = RemoteReader(service.url)
        calls = {"/extract": lambda: reader.extract_span(rinput),
                 "/search": lambda: external_search(service.url, "q", 5, query_id="q")}
        for route, call in calls.items():
            source = json.dumps(replies[route]).encode()
            for i in range(MUTATIONS):
                reply = mutate(source, rng)
                service.reply = lambda path, body: (200, {}, reply)
                if (escape := _escapes(call, service.url)) is not None:
                    escapes.append(f"{route} reply #{i} {reply!r}: {escape}")
    assert not escapes, f"{len(escapes)} escapes, first: " + "\n".join(escapes[:5])
