"""Frame transports: an in-process queue pair and a TCP socket wrapper.

Both move whole frames (length prefix included), so the session layer sees
identical bytes either way.  ``send_frame`` takes a frame as the list of
parts that ``messages.encode_message`` gives, to send back to back; the
receiver gets the whole frame as one buffer.
"""

from __future__ import annotations

import logging
import queue
import socket
import socketserver
import struct
import threading
from collections import deque

from ..errors import FrameError, SessionError
from .messages import HEADER_SIZE, MAX_FRAME_SIZE

__all__ = [
    "LocalTransport",
    "make_local_pair",
    "TcpTransport",
    "connect_tcp",
    "TcpServer",
]

logger = logging.getLogger(__name__)

_CLOSED = None  # queue sentinel

# A TcpServer keeps this many of its most recent responders.
KEPT_RESPONDERS = 64


class LocalTransport:
    """One endpoint of an in-process frame pipe."""

    def __init__(self, outbox: queue.Queue, inbox: queue.Queue, timeout: float = 60.0):
        self._outbox = outbox
        self._inbox = inbox
        self._timeout = timeout
        self._closed = False

    def send_frame(self, parts: list) -> None:
        """Enqueue the frame of ``parts``: a lone part as it is, no copy,
        and more parts joined into one."""
        if self._closed:
            raise SessionError("transport is closed")
        self._outbox.put(parts[0] if len(parts) == 1 else b"".join(parts))

    def recv_frame(self) -> bytes:
        try:
            frame = self._inbox.get(timeout=self._timeout)
        except queue.Empty:
            raise SessionError("timed out waiting for the peer") from None
        if frame is _CLOSED:
            raise SessionError("peer closed the transport")
        return frame

    def close(self) -> None:
        if not self._closed:
            self._closed = True
            self._outbox.put(_CLOSED)


def make_local_pair(timeout: float = 60.0) -> tuple[LocalTransport, LocalTransport]:
    a_to_b: queue.Queue = queue.Queue()
    b_to_a: queue.Queue = queue.Queue()
    return (
        LocalTransport(a_to_b, b_to_a, timeout),
        LocalTransport(b_to_a, a_to_b, timeout),
    )


class TcpTransport:
    """Frame reader/writer over a connected socket."""

    def __init__(self, sock: socket.socket):
        self._sock = sock
        self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)

    def _recv_chunks(self, size: int) -> list[bytes]:
        """The next ``size`` bytes from the socket, in the pieces they
        arrived in."""
        chunks = []
        remaining = size
        while remaining:
            try:
                chunk = self._sock.recv(min(remaining, 1 << 20))
            except OSError as exc:
                raise SessionError(f"socket error: {exc}") from exc
            if not chunk:
                raise SessionError("connection closed mid-frame")
            chunks.append(chunk)
            remaining -= len(chunk)
        return chunks

    def send_frame(self, parts: list) -> None:
        """Write each part of a frame in turn."""
        try:
            for part in parts:
                self._sock.sendall(part)
        except OSError as exc:
            raise SessionError(f"socket error: {exc}") from exc

    def recv_frame(self) -> bytes:
        """One frame, length prefix included.  Its bytes are kept as they
        arrive and joined once, so a declared length alone commits no
        memory."""
        header = b"".join(self._recv_chunks(HEADER_SIZE))
        (length,) = struct.unpack("<I", header)
        if length > MAX_FRAME_SIZE:
            raise FrameError(f"declared payload of {length} bytes exceeds the limit")
        return b"".join([header, *self._recv_chunks(length)])

    def close(self) -> None:
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self._sock.close()


def connect_tcp(host: str, port: int, timeout: float = 30.0) -> TcpTransport:
    try:
        sock = socket.create_connection((host, port), timeout=timeout)
    except OSError as exc:
        raise SessionError(f"cannot connect to {host}:{port}: {exc}") from exc
    sock.settimeout(timeout)
    return TcpTransport(sock)


class TcpServer(socketserver.ThreadingTCPServer):
    """The standard library's threading TCP server, running one responder
    per incoming connection.

    ``responder_factory`` builds a fresh object with a ``serve(transport)``
    method for every connection.  ``responders`` holds the most recent
    KEPT_RESPONDERS of them, oldest first, so callers can read their
    counters (a BobResponder keeps no arrays once its session ends);
    ``sessions`` counts every responder built, so the first one kept is
    session ``sessions - len(responders)``.  A session that raises is
    logged with its traceback and does not stop the server.

    ``start()`` serves from a background thread; ``stop()``, or leaving
    ``with``, closes the listener and waits for running sessions.  Each
    session ends at Bye, when the peer closes, or at the 60 s socket
    timeout.
    """

    allow_reuse_address = True
    request_queue_size = min(socket.SOMAXCONN, 128)  # listen()'s default, not 5

    def __init__(self, responder_factory, host: str = "127.0.0.1", port: int = 0):
        super().__init__((host, port), None)  # finish_request serves, no handler class
        self._factory = responder_factory
        self.host, self.port = self.server_address[:2]
        self.responders: deque = deque(maxlen=KEPT_RESPONDERS)
        self.sessions = 0
        self._count_lock = threading.Lock()
        self._serving = False

    def finish_request(self, request: socket.socket, client_address) -> None:
        request.settimeout(60.0)
        responder = self._factory()
        with self._count_lock:
            self.responders.append(responder)
            self.sessions += 1
        responder.serve(TcpTransport(request))

    def handle_error(self, request, client_address) -> None:
        logger.exception("session from %s:%s failed", *client_address[:2])

    def start(self) -> "TcpServer":
        self._serving = True
        threading.Thread(target=self.serve_forever, args=(0.2,), daemon=True).start()
        return self

    def stop(self) -> None:
        if self._serving:  # shutdown() waits for a serve_forever that runs
            self.shutdown()
        self.server_close()

    def __enter__(self) -> "TcpServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()
