"""Zero-shot conversational query reformulation toolkit.

Resolves coreference and omission ambiguities in multi-turn search
queries by asking templated questions to a pluggable reading backend,
then retrieves with a self-contained BM25 engine and evaluates with a
TREC-style metric suite.
"""

from .datamodel import Config, DialogueContext, Session, Turn, context_for_turn
from .ingest import (
    Document,
    IdfTable,
    Qrels,
    build_idf_table,
    load_collection,
    load_qrels,
    load_topics,
)
from .linguistics import detect_pronouns, find_omission_candidates, tokenize_and_tag
from .reader import (
    EchoReader,
    OracleReader,
    RemoteReader,
    SpanAnswer,
    build_reader_input,
)
from .reformulator import (
    ReformulationTrace,
    make_coref_question,
    make_omission_question,
    reformulate,
    resolve_coreference,
    resolve_omission,
)
from .retrieval import (
    InvertedIndex,
    RunResult,
    bm25_search,
    build_index,
    external_search,
    read_run,
    write_run,
)
from .evaluation import (
    AmbiguityCensus,
    MetricReport,
    ambiguity_census,
    evaluate_run,
    paired_t_test,
)

__version__ = "0.1.0"

__all__ = [
    "Config",
    "DialogueContext",
    "Session",
    "Turn",
    "context_for_turn",
    "Document",
    "IdfTable",
    "Qrels",
    "build_idf_table",
    "load_collection",
    "load_qrels",
    "load_topics",
    "tokenize_and_tag",
    "detect_pronouns",
    "find_omission_candidates",
    "SpanAnswer",
    "build_reader_input",
    "OracleReader",
    "EchoReader",
    "RemoteReader",
    "make_coref_question",
    "make_omission_question",
    "resolve_coreference",
    "resolve_omission",
    "reformulate",
    "ReformulationTrace",
    "InvertedIndex",
    "RunResult",
    "build_index",
    "bm25_search",
    "external_search",
    "write_run",
    "read_run",
    "MetricReport",
    "AmbiguityCensus",
    "evaluate_run",
    "paired_t_test",
    "ambiguity_census",
    "__version__",
]
