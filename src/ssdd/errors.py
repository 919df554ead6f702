"""Exception types shared across the package."""


class SsddError(Exception):
    """Base class for all package errors."""


class _LineError(SsddError):
    """An error that may name the input line it was found on."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class ParseError(_LineError):
    """Malformed input text (bad header, bad line, wrong field count)."""


class RangeError(_LineError):
    """A value or identifier is outside its allowed range."""


class DuplicateEntryError(ParseError):
    """The same (document, word) pair appears twice in a docword file."""

    def __init__(self, doc_id: int, word_id: int, line: int | None = None):
        super().__init__(f"duplicate entry for doc {doc_id}, word {word_id}", line)
        self.doc_id = doc_id
        self.word_id = word_id


class DuplicateTermError(ParseError):
    """The same term appears twice in a vocabulary file."""

    def __init__(self, term: str, line: int | None = None):
        super().__init__(f"duplicate term {term!r}", line)
        self.term = term


class DimensionError(SsddError):
    """Operands disagree on dimensionality."""


class ProtocolError(SsddError):
    """A well-framed message violates the protocol (unknown tag, bad state)."""


class FrameError(ProtocolError):
    """A byte frame is truncated, oversized, internally inconsistent, or
    not of the header values its receiver expects."""


class SessionError(SsddError):
    """A session could not run to completion (transport loss, bad handshake)."""
