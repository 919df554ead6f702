"""Two-party detection protocol: wire messages, transports, session logic."""

from .messages import (
    Bye,
    FilterQuery,
    FilterReply,
    FullQuery,
    FullReply,
    Hello,
    HelloAck,
    decode_message,
    encode_message,
)
from .session import (
    AliceSession,
    BobResponder,
    DetectionReport,
    SessionConfig,
    SessionMetrics,
    SimilarityDecision,
    evaluate_filter,
    run_detection,
)
from .transport import (
    LocalTransport,
    TcpServer,
    TcpTransport,
    connect_tcp,
    make_local_pair,
)

__all__ = [
    "Hello",
    "HelloAck",
    "FilterQuery",
    "FilterReply",
    "FullQuery",
    "FullReply",
    "Bye",
    "encode_message",
    "decode_message",
    "SessionConfig",
    "SessionMetrics",
    "SimilarityDecision",
    "DetectionReport",
    "AliceSession",
    "BobResponder",
    "evaluate_filter",
    "run_detection",
    "LocalTransport",
    "TcpTransport",
    "TcpServer",
    "make_local_pair",
    "connect_tcp",
]
