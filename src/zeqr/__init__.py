"""Zero-shot conversational query reformulation toolkit.

Resolves coreference and omission ambiguities in multi-turn search
queries by asking templated questions to a pluggable reading backend,
then retrieves with a self-contained BM25 engine and evaluates with a
TREC-style metric suite.

Each name is imported from its own module, e.g. `from zeqr.retrieval
import bm25_search`; importing one module loads only what it needs.
"""

__version__ = "0.1.0"
