"""Two-party similar-document detection over masked scalar products.

One side holds query documents, the other a target corpus; the protocol
finds all pairs with cosine similarity at or above a tolerance without
either side disclosing its term vectors.  A cheap f-dimensional filter step
bounds each pair's similarity from above and prunes most of the corpus
before the exact full-width check.
"""

from .corpus import (
    Corpus,
    RawDocument,
    load_cache,
    load_vocabulary,
    parse_bag_of_words,
    save_cache,
    split_queries,
)
from .errors import (
    DimensionError,
    DuplicateEntryError,
    DuplicateTermError,
    FrameError,
    ParseError,
    ProtocolError,
    RangeError,
    SessionError,
    SsddError,
)
from .oracle import OracleResult, oracle_detect
from .protocol.session import (
    AliceSession,
    BobResponder,
    DetectionReport,
    SessionConfig,
    SimilarityDecision,
    run_local_detection,
)
from .selection import SelectionMethod
from .vectors import PackedDocs

__version__ = "0.1.0"
