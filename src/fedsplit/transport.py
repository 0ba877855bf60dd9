"""Frame transports: an in-process loopback and a TCP socket pair.

Both move the exact bytes produced by the wire codec, so a conversation is
byte-identical whichever transport carries it. ``MessageChannel`` layers
encode/decode, traffic accounting and the reply echo check on top of either;
``channel_pair`` builds a connected pair of them and ``serve_channel`` is the
one request/reply loop every server runs on its end: receive, handle, send.
Where a TCP pair binds is the caller's to say (``"tcp:HOST:PORT"``); the
module holds no state of its own.
"""

from __future__ import annotations

import queue
import socket
import threading
from typing import Callable

from .errors import ChannelClosedError, ConfigError, FrameError, ProtocolError
from .wire import HEADER, CommStats, Message, decode_message, encode_message, parse_header, stamp

_CLOSE = object()

# Largest frame body a TCP peer may announce. The biggest frames the package
# sends are well under 1 MiB; the cap keeps a corrupt or hostile header from
# choosing the size of the receive allocation.
MAX_FRAME_BODY = 256 * 2**20
# Largest single socket read. ``recv(n)`` allocates ``n`` bytes before any
# arrive, so reading a body in capped chunks keeps a header that announces a
# large body from allocating more than the bytes its peer actually sends.
MAX_RECV_CHUNK = 2**20


class LoopbackChannel:
    """One endpoint of an in-process bidirectional frame queue pair."""

    def __init__(self, inbox: queue.Queue, outbox: queue.Queue):
        self._inbox = inbox
        self._outbox = outbox
        self._closed = False

    @staticmethod
    def pair() -> tuple["LoopbackChannel", "LoopbackChannel"]:
        a_to_b: queue.Queue = queue.Queue()
        b_to_a: queue.Queue = queue.Queue()
        return LoopbackChannel(b_to_a, a_to_b), LoopbackChannel(a_to_b, b_to_a)

    def send_frame(self, frame: bytes) -> None:
        if self._closed:
            raise ChannelClosedError("send on a closed channel")
        self._outbox.put(frame)

    def recv_frame(self, timeout: float | None = None) -> bytes:
        if self._closed:
            raise ChannelClosedError("recv on a closed channel")
        try:
            item = self._inbox.get(timeout=timeout)
        except queue.Empty:
            raise ProtocolError(f"recv timed out after {timeout}s") from None
        if item is _CLOSE:
            self._closed = True
            raise ChannelClosedError("peer closed the channel")
        return item

    def close(self) -> None:
        if not self._closed:
            self._closed = True
            self._outbox.put(_CLOSE)


class TcpChannel:
    """One endpoint of a TCP connection carrying length-prefixed frames."""

    def __init__(self, sock: socket.socket):
        self._sock = sock
        self._closed = False
        self._send_lock = threading.Lock()

    def send_frame(self, frame: bytes) -> None:
        if self._closed:
            raise ChannelClosedError("send on a closed channel")
        with self._send_lock:
            try:
                self._sock.sendall(frame)
            except OSError as exc:
                raise ChannelClosedError(f"socket send failed: {exc}") from exc

    def _read_exact(self, n: int, mid_frame: bool) -> bytes:
        """Read ``n`` bytes. A timeout before the first byte of a frame leaves
        the channel usable; one after part of a frame closes it, since the
        stream cannot resync."""
        chunks = []
        remaining = n
        while remaining:
            try:
                chunk = self._sock.recv(min(remaining, MAX_RECV_CHUNK))
            except socket.timeout:
                if not (mid_frame or chunks):
                    raise ProtocolError(f"recv timed out after {self._sock.gettimeout()}s") from None
                self.close()
                raise ChannelClosedError("recv timed out mid-frame; channel closed") from None
            except OSError as exc:
                raise ChannelClosedError(f"socket recv failed: {exc}") from exc
            if not chunk:
                raise ChannelClosedError(
                    "connection closed mid-frame" if mid_frame else "peer closed the connection"
                )
            chunks.append(chunk)
            remaining -= len(chunk)
        return b"".join(chunks)

    def recv_frame(self, timeout: float | None = None) -> bytes:
        if self._closed:
            raise ChannelClosedError("recv on a closed channel")
        try:
            # another thread may close the socket after the check above
            self._sock.settimeout(timeout)
        except OSError as exc:
            raise ChannelClosedError(f"socket recv failed: {exc}") from exc
        header = self._read_exact(HEADER.size, mid_frame=False)
        try:
            _, body_len = parse_header(header)
            if body_len > MAX_FRAME_BODY:
                raise FrameError(
                    f"frame announces a {body_len}-byte body, over the {MAX_FRAME_BODY}-byte "
                    "limit", 6
                )
        except FrameError:
            self.close()  # the body's length is unknown, so the stream cannot resync
            raise
        return header + self._read_exact(body_len, mid_frame=True)

    def close(self) -> None:
        if not self._closed:
            self._closed = True
            try:
                self._sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            self._sock.close()


def parse_endpoint(text: str, what: str) -> tuple[str, int]:
    """``(host, port)`` from ``"host:port"``; anything else raises a
    ``ConfigError`` that starts with ``what``."""
    host, _, port = text.rpartition(":")
    if not host or not (port.isascii() and port.isdigit()) or int(port) > 65535:
        raise ConfigError(f"{what} must be host:port with a port in 0-65535, got {text!r}")
    return host, int(port)


def tcp_listen(host: str = "127.0.0.1", port: int = 0) -> tuple[socket.socket, int]:
    """Bind a listener; returns it and the bound port (useful with port 0)."""
    sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    sock.bind((host, port))
    sock.listen()
    return sock, sock.getsockname()[1]


def tcp_accept(listener: socket.socket, timeout: float | None = None) -> TcpChannel:
    listener.settimeout(timeout)
    try:
        conn, _ = listener.accept()
    except socket.timeout:
        raise ProtocolError("accept timed out") from None
    conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    return TcpChannel(conn)


def tcp_connect(host: str, port: int, timeout: float | None = 10.0) -> TcpChannel:
    sock = socket.create_connection((host, port), timeout=timeout)
    sock.settimeout(None)
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    return TcpChannel(sock)


def tcp_pair(host: str = "127.0.0.1", port: int = 0) -> tuple[TcpChannel, TcpChannel]:
    """A connected (server-side, client-side) channel pair on ``host:port``.

    Port 0 lets the kernel pick one. A fixed port works for pairs created one
    after another, since each listener closes before the next binds. The
    kernel completes the handshake into the listener's backlog, so the
    calling thread can connect and then accept.
    """
    listener, port = tcp_listen(host, port)
    try:
        client = tcp_connect(host, port)
        try:
            server = tcp_accept(listener, timeout=10.0)
        except BaseException:
            client.close()
            raise
    finally:
        listener.close()
    return server, client


class MessageChannel:
    """Encode/decode layer over a frame channel with traffic accounting.

    ``stats`` accumulates per-class counters for this endpoint. Once a
    caller sets ``sent_log`` or ``recv_log`` to a list, the raw bytes of every
    frame sent or received from then on are appended to it, in order: audits
    compare them across transports and with the attack on or off, and the
    attack study trains its decoder on the frames it captured.
    """

    def __init__(self, frames):
        self._frames = frames
        self.stats = CommStats()
        self.sent_log: list[bytes] | None = None
        self.recv_log: list[bytes] | None = None

    def send(self, msg: Message) -> None:
        frame = encode_message(msg)
        self._frames.send_frame(frame)
        self.stats.record_send(msg.wire_class, len(frame))
        if self.sent_log is not None:
            self.sent_log.append(frame)

    def recv(self, timeout: float | None = None) -> Message:
        frame = self._frames.recv_frame(timeout)
        msg = decode_message(frame)
        self.stats.record_recv(msg.wire_class, len(frame))
        if self.recv_log is not None:
            self.recv_log.append(frame)
        return msg

    def request(self, msg: Message, timeout: float | None = None) -> Message:
        """Send and wait for the reply; counts one round trip. A reply that does
        not echo the request's ``wire.stamp`` raises ``ProtocolError``."""
        self.send(msg)
        reply = self.recv(timeout)
        self.stats.record_round_trip()
        if stamp(reply) != stamp(msg):
            raise ProtocolError(f"reply {stamp(reply)} does not answer request {stamp(msg)}")
        return reply

    def close(self) -> None:
        self._frames.close()


def channel_pair(kind: str) -> tuple[MessageChannel, MessageChannel]:
    """A connected (server-side, client-side) message channel pair.

    ``kind`` is ``"loopback"``, ``"tcp"`` (a kernel-chosen port on
    127.0.0.1) or ``"tcp:HOST:PORT"``.
    """
    if kind == "loopback":
        server_end, client_end = LoopbackChannel.pair()
    elif kind == "tcp":
        server_end, client_end = tcp_pair()
    elif kind.startswith("tcp:"):
        server_end, client_end = tcp_pair(*parse_endpoint(kind[4:], f"unknown transport {kind!r}:"))
    else:
        raise ConfigError(f"unknown transport {kind!r}")
    return MessageChannel(server_end), MessageChannel(client_end)


def serve_channel(channel: MessageChannel, handle: Callable[[Message], Message]) -> None:
    """Receive a request, send ``handle(request)`` back, repeat until either
    end closes.

    A frame that does not decode or a handler error closes the channel, so the
    peer sees it closed, and propagates.
    """
    while True:
        try:
            msg = channel.recv()
        except ChannelClosedError:
            return
        except FrameError:
            channel.close()
            raise
        try:
            reply = handle(msg)
        except Exception:
            channel.close()
            raise
        try:
            channel.send(reply)
        except ChannelClosedError:
            return
