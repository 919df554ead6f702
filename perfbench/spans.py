"""In-memory span recorder that wraps ssdd's public callables from outside.

Tracing installs wrappers at the names the modules call each other by (for
example ``ssdd.protocol.session.encode_message``, which is what the session
code looks up, not ``ssdd.protocol.messages.encode_message``), records one
span per call, and puts the originals back on exit.  A target that a later
refactor removed or renamed is listed as absent instead of failing the run.

Each span has a layer name, start and end (``time.perf_counter``), the span
that was open on the same thread when it started (its parent), the party
(the main thread is Alice, any other thread is Bob) and the session id that
was current when it started.  Spans are kept in per-thread arrays, so the
hot path takes no lock.
"""

from __future__ import annotations

import functools
import importlib
import threading
from array import array
from contextlib import contextmanager
from time import perf_counter

import numpy as np

ALICE, BOB = 0, 1
PARTIES = ("alice", "bob")
_MISSING = object()


def _bob_handle_name(args) -> str:
    kind = type(args[1]).__name__
    if kind == "FilterQuery":
        return "protocol.session.bob_filter"
    if kind == "FullQuery":
        return "protocol.session.bob_full"
    return "protocol.session.bob_handshake"


# (layer, module, class or None, attribute, layer-name function, item counter)
TARGETS = (
    ("corpus.load_cache", "ssdd.corpus", None, "load_cache", None, None),
    ("masking.mask", "ssdd.protocol.session", None, "mask", None, None),
    ("masking.respond", "ssdd.protocol.session", None, "respond", None, None),
    ("masking.rows_for", "ssdd.masking", "SharedRandomMatrix", "rows_for", None,
     lambda args: len(args[1])),
    ("protocol.messages.encode", "ssdd.protocol.session", None, "encode_message", None, None),
    ("protocol.messages.decode", "ssdd.protocol.session", None, "decode_message", None, None),
    ("protocol.transport.send", "ssdd.protocol.transport", "LocalTransport", "send_frame", None, None),
    ("protocol.transport.recv", "ssdd.protocol.transport", "LocalTransport", "recv_frame", None, None),
    ("protocol.transport.send", "ssdd.protocol.transport", "TcpTransport", "send_frame", None, None),
    ("protocol.transport.recv", "ssdd.protocol.transport", "TcpTransport", "recv_frame", None, None),
    ("protocol.session.handshake", "ssdd.protocol.session", "AliceSession", "handshake", None, None),
    ("protocol.session.run_query", "ssdd.protocol.session", "AliceSession", "run_query", None, None),
    ("protocol.session.bob_handle", "ssdd.protocol.session", "BobResponder", "handle",
     _bob_handle_name, None),
    ("protocol.session.evaluate_filter", "ssdd.protocol.session", None, "evaluate_filter", None, None),
    ("vectors.project", "ssdd.protocol.session", None, "project", None, None),
    ("selection.select", "ssdd.protocol.session", None, "select_rp", None, None),
    ("selection.select", "ssdd.protocol.session", None, "select_lf", None, None),
    ("selection.select", "ssdd.protocol.session", None, "select_gf", None, None),
    ("selection.select", "ssdd.protocol.session", None, "select_hf", None, None),
    ("selection.local_df", "ssdd.protocol.session", None, "local_document_frequency", None, None),
)


class _Buffer:
    """Spans opened on one thread."""

    def __init__(self, party: int):
        self.party = party
        self.name = array("i")
        self.session = array("i")
        self.parent = array("q")
        self.items = array("q")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []

    def open(self, name: int, session: int, items: int) -> int:
        idx = len(self.start)
        self.name.append(name)
        self.session.append(session)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.items.append(items)
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self.stack.pop()


class SpanRecorder:
    def __init__(self):
        self.session = -1
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._local = threading.local()
        self._buffers: list[_Buffer] = []
        self._lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []
        self.absent: list[str] = []  # targets not found at the last install
        self.absent_layers: set[str] = set()  # layers none of whose targets exist

    def _name_id(self, name: str) -> int:
        idx = self._ids.get(name)
        if idx is None:
            with self._lock:
                idx = self._ids.setdefault(name, len(self.names))
                if idx == len(self.names):
                    self.names.append(name)
        return idx

    def _buffer(self) -> _Buffer:
        buf = getattr(self._local, "buf", None)
        if buf is None:
            main = threading.current_thread() is threading.main_thread()
            buf = _Buffer(ALICE if main else BOB)
            with self._lock:
                self._buffers.append(buf)
            self._local.buf = buf
        return buf

    @contextmanager
    def span(self, name: str):
        buf = self._buffer()
        idx = buf.open(self._name_id(name), self.session, 1)
        try:
            yield
        finally:
            buf.close(idx)

    def _wrap(self, fn, layer: str, name_of, items_of):
        rec = self
        fixed = self._name_id(layer)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            buf = rec._buffer()
            name = fixed if name_of is None else rec._name_id(name_of(args))
            items = 1 if items_of is None else items_of(args)
            idx = buf.open(name, rec.session, items)
            try:
                return fn(*args, **kwargs)
            finally:
                buf.close(idx)

        return wrapper

    @contextmanager
    def installed(self):
        """Wrap every target that exists; restore the originals on exit."""
        absent, found = [], set()
        try:
            for layer, module, cls, attr, name_of, items_of in TARGETS:
                try:
                    owner = importlib.import_module(module)
                    if cls is not None:
                        owner = getattr(owner, cls)
                    fn = getattr(owner, attr)
                except (ImportError, AttributeError):
                    absent.append(f"{module}.{cls + '.' if cls else ''}{attr}")
                    continue
                found.add(layer)
                own = vars(owner).get(attr, _MISSING)
                self._patches.append((owner, attr, own))
                setattr(owner, attr, self._wrap(fn, layer, name_of, items_of))
            self.absent = absent
            self.absent_layers = {t[0] for t in TARGETS} - found
            yield
        finally:
            while self._patches:
                owner, attr, own = self._patches.pop()
                if own is _MISSING:
                    delattr(owner, attr)
                else:
                    setattr(owner, attr, own)

    def table(self) -> dict[str, np.ndarray]:
        """All spans as columns; ``parent`` indexes rows of the same table."""
        cols: dict[str, list] = {k: [] for k in
                                 ("name", "session", "parent", "items", "start", "end", "party")}
        offset = 0
        for buf in self._buffers:
            count = len(buf.start)
            parent = np.array(buf.parent, dtype=np.int64)
            parent[parent >= 0] += offset
            cols["parent"].append(parent)
            for key in ("name", "session", "items", "start", "end"):
                cols[key].append(np.array(getattr(buf, key)))
            cols["party"].append(np.full(count, buf.party, dtype=np.int8))
            offset += count
        table = {k: np.concatenate(v) if v else np.empty(0) for k, v in cols.items()}
        duration = table["end"] - table["start"]
        child = np.zeros(duration.size)
        has_parent = table["parent"] >= 0
        np.add.at(child, table["parent"][has_parent].astype(np.int64), duration[has_parent])
        table["duration"] = duration
        table["self"] = duration - child
        return table

    def save(self, path, table: dict[str, np.ndarray]) -> None:
        np.savez_compressed(
            path, names=np.array(self.names),
            **{k: v for k, v in table.items() if k not in ("duration", "self")},
        )

