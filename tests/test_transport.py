"""Loopback and TCP transports must carry identical frames."""

import socket
import threading
import time
import tracemalloc

import numpy as np
import pytest

from fedsplit import transport
from fedsplit.errors import ChannelClosedError, ConfigError, FrameError, ProtocolError
from fedsplit.transport import (
    MAX_FRAME_BODY,
    LoopbackChannel,
    MessageChannel,
    channel_pair,
    serve_channel,
    tcp_pair,
)
from fedsplit.wire import (
    CLASS_GRAD,
    HEADER,
    MAGIC,
    VERSION,
    CommStats,
    GradMsg,
    HiddenStateMsg,
    MaskMeta,
    encode_message,
)


def make_messages(n, seed=0):
    rng = np.random.default_rng(seed)
    out = []
    for i in range(n):
        if i % 2 == 0:
            seq = int(rng.integers(1, 6))
            batch = int(rng.integers(1, 3))
            out.append(
                HiddenStateMsg(
                    rng.standard_normal((batch, seq, 4)),
                    MaskMeta(seq, 0, batch),
                    tuple(range(seq)),
                    step_id=i,
                    client_id=0,
                )
            )
        else:
            out.append(GradMsg(rng.standard_normal((1, 3, 4)), step_id=i, client_id=0))
    return out


def exchange(server_ch, client_ch, messages):
    """Client sends each message; server echoes it back; returns echoes."""
    received = []

    def server():
        for _ in messages:
            msg = server_ch.recv(timeout=10.0)
            server_ch.send(msg)

    t = threading.Thread(target=server)
    t.start()
    for msg in messages:
        received.append(client_ch.request(msg, timeout=10.0))
    t.join(timeout=10.0)
    return received


def recording(frames):
    """A message channel over ``frames`` that keeps every frame it sends and
    receives."""
    channel = MessageChannel(frames)
    channel.sent_log, channel.recv_log = [], []
    return channel


def test_loopback_roundtrip():
    a, b = LoopbackChannel.pair()
    server = recording(a)
    client = recording(b)
    msgs = make_messages(6)
    echoes = exchange(server, client, msgs)
    for sent, got in zip(msgs, echoes):
        assert encode_message(got) == encode_message(sent)
    assert client.stats.snapshot()["round_trips"] == 6
    assert client.sent_log == server.recv_log


def test_tcp_roundtrip_matches_loopback_frames():
    msgs = make_messages(6, seed=1)

    la, lb = LoopbackChannel.pair()
    loop_server = recording(la)
    loop_client = recording(lb)
    exchange(loop_server, loop_client, msgs)

    sa, sb = tcp_pair()
    tcp_server = recording(sa)
    tcp_client = recording(sb)
    try:
        echoes = exchange(tcp_server, tcp_client, msgs)
    finally:
        tcp_server.close()
        tcp_client.close()
    for sent, got in zip(msgs, echoes):
        assert encode_message(got) == encode_message(sent)
    assert loop_client.sent_log == tcp_client.sent_log
    assert loop_client.recv_log == tcp_client.recv_log


def test_tcp_and_loopback_stats_agree():
    msgs = make_messages(4, seed=2)
    stats = {}
    for kind in ("loopback", "tcp"):
        if kind == "loopback":
            a, b = LoopbackChannel.pair()
        else:
            a, b = tcp_pair()
        server = MessageChannel(a)
        client = MessageChannel(b)
        try:
            exchange(server, client, msgs)
        finally:
            if kind == "tcp":
                server.close()
                client.close()
        stats[kind] = client.stats.snapshot()
    assert stats["loopback"] == stats["tcp"]


def test_tcp_pair_connects_without_a_helper_thread(monkeypatch):
    started = []
    monkeypatch.setattr(threading.Thread, "start", lambda self: started.append(self))
    sa, sb = tcp_pair()
    server, client = MessageChannel(sa), MessageChannel(sb)
    try:
        msgs = make_messages(2, seed=5)
        for msg in msgs:
            client.send(msg)
        for msg in msgs:
            assert encode_message(server.recv(timeout=5.0)) == encode_message(msg)
    finally:
        server.close()
        client.close()
    assert started == []


def test_tcp_pair_closes_its_client_when_accept_fails(monkeypatch):
    connected = []
    real_connect = transport.tcp_connect

    def connect(host, port):
        connected.append(real_connect(host, port))
        return connected[-1]

    def accept(listener, timeout=None):
        raise ProtocolError("accept timed out")

    monkeypatch.setattr(transport, "tcp_connect", connect)
    monkeypatch.setattr(transport, "tcp_accept", accept)
    with pytest.raises(ProtocolError, match="accept timed out"):
        tcp_pair()
    assert len(connected) == 1
    with pytest.raises(ChannelClosedError):
        connected[0].send_frame(b"x")


def test_loopback_close_unblocks_peer():
    a, b = LoopbackChannel.pair()
    a.close()
    with pytest.raises(ChannelClosedError):
        b.recv_frame(timeout=1.0)
    with pytest.raises(ChannelClosedError):
        a.send_frame(b"x")


def test_loopback_recv_on_a_closed_channel_is_channel_closed():
    a, b = LoopbackChannel.pair()
    a.close()
    with pytest.raises(ChannelClosedError, match="recv on a closed channel"):
        a.recv_frame(timeout=1.0)
    with pytest.raises(ChannelClosedError, match="peer closed the channel"):
        b.recv_frame(timeout=1.0)
    with pytest.raises(ChannelClosedError, match="recv on a closed channel"):
        b.recv_frame(timeout=1.0)  # the peer's close marked this end closed too


def test_loopback_recv_timeout():
    a, _ = LoopbackChannel.pair()
    with pytest.raises(ProtocolError):
        a.recv_frame(timeout=0.05)


@pytest.mark.parametrize("kind", ["loopback", "tcp"])
def test_recv_timeout_is_a_protocol_error_and_keeps_the_channel(kind):
    server, client = channel_pair(kind)
    msg = GradMsg(np.arange(6.0).reshape(2, 3), step_id=4, client_id=1)
    try:
        with pytest.raises(ProtocolError, match="timed out"):
            server.recv(timeout=0.2)
        client.send(msg)
        back = server.recv(timeout=5.0)
        assert encode_message(back) == encode_message(msg)
    finally:
        server.close()
        client.close()


def test_tcp_timeout_mid_frame_closes_the_channel():
    sa, sb = tcp_pair()
    frame = encode_message(GradMsg(np.zeros((2, 2)), step_id=0, client_id=0))
    try:
        sa.send_frame(frame[: len(frame) // 2])
        with pytest.raises(ChannelClosedError, match="mid-frame"):
            sb.recv_frame(timeout=0.2)
        with pytest.raises(ChannelClosedError):
            sb.recv_frame(timeout=0.2)  # the stream cannot resync
    finally:
        sa.close()
        sb.close()


def test_tcp_close_mid_stream_raises_channel_closed():
    sa, sb = tcp_pair()
    server = MessageChannel(sa)
    client = MessageChannel(sb)
    server.close()
    with pytest.raises(ChannelClosedError):
        client.recv(timeout=5.0)
    client.close()


def test_tcp_recv_after_socket_closed_raises_channel_closed():
    sa, sb = tcp_pair()
    sa._sock.close()
    with pytest.raises(ChannelClosedError):
        sa.recv_frame(timeout=1.0)
    sb.close()


def test_tcp_partial_frame_raises_channel_closed():
    sa, sb = tcp_pair()
    msg = GradMsg(np.zeros((2, 2)), step_id=0, client_id=0)
    from fedsplit.wire import encode_message

    frame = encode_message(msg)
    sa.send_frame(frame[: len(frame) // 2])
    sa.close()
    with pytest.raises(ChannelClosedError):
        sb.recv_frame(timeout=5.0)
    sb.close()


def test_channel_stats_add_up_across_channels():
    a1, b1 = LoopbackChannel.pair()
    a2, b2 = LoopbackChannel.pair()
    c1 = MessageChannel(b1)
    c2 = MessageChannel(b2)
    s1 = MessageChannel(a1)
    s2 = MessageChannel(a2)
    msg = GradMsg(np.zeros((1, 1)), step_id=0, client_id=0)
    c1.send(msg)
    c2.send(msg)
    s1.recv(timeout=1.0)
    s2.recv(timeout=1.0)
    # every channel counts on its own; a run-level view sums the channels
    assert c1.stats is not c2.stats
    assert c1.stats.snapshot()["classes"]["grad"]["sent_count"] == 1
    stats = CommStats.sum([c1.stats.snapshot(), c2.stats.snapshot()])
    assert stats["classes"]["grad"]["sent_count"] == 2


@pytest.mark.parametrize("body_len", [2**63, MAX_FRAME_BODY + 1])
def test_tcp_rejects_oversized_frame_header_before_reading(body_len):
    sa, sb = tcp_pair()
    try:
        sa.send_frame(HEADER.pack(MAGIC, VERSION, CLASS_GRAD, body_len))
        with pytest.raises(FrameError, match="limit"):
            sb.recv_frame(timeout=5.0)
    finally:
        sa.close()
        sb.close()


def test_tcp_receive_allocation_follows_bytes_sent_not_bytes_announced():
    # loopback frames are objects already in memory; only a socket read
    # sizes its buffer from a peer-written header
    sa, sb = tcp_pair()
    try:
        sa.send_frame(HEADER.pack(MAGIC, VERSION, CLASS_GRAD, MAX_FRAME_BODY) + bytes(10))
        tracemalloc.start()
        try:
            with pytest.raises(ChannelClosedError, match="mid-frame"):
                sb.recv_frame(timeout=0.5)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20, peak  # the header announced 256 MiB
    finally:
        sa.close()
        sb.close()


@pytest.mark.parametrize("kind", ["loopback", "tcp"])
def test_serve_channel_returns_when_its_channel_closes_before_the_reply(kind):
    server, client = channel_pair(kind)

    def handle(msg):
        server.close()  # a shutdown that lands while the request is handled
        return msg

    client.send(GradMsg(np.zeros((1, 1)), step_id=0, client_id=0))
    serve_channel(server, handle)
    client.close()


@pytest.mark.parametrize("kind", ["loopback", "tcp"])
def test_serve_channel_closes_the_channel_and_reraises_a_handler_error(kind):
    server, client = channel_pair(kind)

    def handle(msg):
        raise RuntimeError("handler failed")

    client.send(GradMsg(np.zeros((1, 1)), step_id=0, client_id=0))
    with pytest.raises(RuntimeError, match="handler failed"):
        serve_channel(server, handle)
    with pytest.raises(ChannelClosedError):
        client.recv(timeout=5.0)
    client.close()


def test_a_tcp_transport_binds_the_endpoint_it_names():
    probe, port = transport.tcp_listen()
    probe.close()
    server, client = channel_pair(f"tcp:127.0.0.1:{port}")
    try:
        assert server._frames._sock.getsockname() == ("127.0.0.1", port)
        msg = make_messages(1, seed=3)[0]
        client.send(msg)
        assert encode_message(server.recv(timeout=5.0)) == encode_message(msg)
    finally:
        server.close()
        client.close()
    bad = ("tcp:", "tcp:127.0.0.1", "tcp:127.0.0.1:port", "tcp:127.0.0.1:65536", "udp:127.0.0.1:1")
    for kind in bad:
        with pytest.raises(ConfigError, match="unknown transport"):
            channel_pair(kind)


def test_parse_endpoint_takes_a_host_and_a_port_in_range():
    assert transport.parse_endpoint("127.0.0.1:0", "endpoint") == ("127.0.0.1", 0)
    assert transport.parse_endpoint("a:b:65535", "endpoint") == ("a:b", 65535)
    for text in ("", "80", ":80", "h:", "h:65536", "h:-1", "h:+80", "h: 80", "h:80 ", "h:\u00b2"):
        with pytest.raises(ConfigError, match=r"^endpoint must be host:port .*0-65535"):
            transport.parse_endpoint(text, "endpoint")


def test_a_send_on_a_dead_tcp_socket_is_channel_closed():
    server, client = channel_pair("tcp")
    try:
        client._frames._sock.shutdown(socket.SHUT_WR)
        with pytest.raises(ChannelClosedError, match="socket send failed"):
            client.send(make_messages(1)[0])
    finally:
        server.close()
        client.close()


def test_an_accept_timeout_is_a_protocol_error():
    listener, _ = transport.tcp_listen()
    try:
        with pytest.raises(ProtocolError, match="accept timed out"):
            transport.tcp_accept(listener, timeout=0.05)
    finally:
        listener.close()


def test_serve_channel_closes_on_an_undecodable_frame():
    server, client = channel_pair("tcp")
    failures = []

    def serve():
        try:
            serve_channel(server, lambda msg: msg)
        except FrameError as exc:
            failures.append(exc)

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    client._frames.send_frame(HEADER.pack(MAGIC, VERSION, CLASS_GRAD, 2**63))
    with pytest.raises(ChannelClosedError):
        client.recv(timeout=5.0)
    thread.join(5.0)
    assert not thread.is_alive() and len(failures) == 1
    client.close()


@pytest.mark.parametrize(
    "header",
    [
        HEADER.pack(b"XXXX", VERSION, CLASS_GRAD, 8),
        HEADER.pack(MAGIC, VERSION + 1, CLASS_GRAD, 8),
        HEADER.pack(MAGIC, VERSION, 250, 8),
        HEADER.pack(MAGIC, VERSION, CLASS_GRAD, MAX_FRAME_BODY + 1),
    ],
    ids=["magic", "version", "class", "oversized"],
)
@pytest.mark.parametrize("kind", ["loopback", "tcp"])
def test_a_rejected_frame_header_closes_a_tcp_channel(kind, header):
    server, client = channel_pair(kind)
    good = GradMsg(np.arange(4.0).reshape(2, 2), step_id=1, client_id=0)
    try:
        client._frames.send_frame(header + bytes(8))
        client.send(good)
        with pytest.raises(FrameError):
            server.recv(timeout=5.0)
        if kind == "tcp":  # the body's length is unknown, so the stream cannot resync
            with pytest.raises(ChannelClosedError):
                server.recv(timeout=5.0)
        else:  # loopback frames stay separate
            assert encode_message(server.recv(timeout=5.0)) == encode_message(good)
    finally:
        server.close()
        client.close()


@pytest.mark.parametrize("kind", ["loopback", "tcp"])
def test_an_undecodable_body_keeps_the_channel_in_sync(kind):
    server, client = channel_pair(kind)
    good = GradMsg(np.arange(4.0).reshape(2, 2), step_id=1, client_id=0)
    frame = encode_message(good)
    try:
        client._frames.send_frame(frame[: HEADER.size] + b"\xff" * (len(frame) - HEADER.size))
        client.send(good)
        with pytest.raises(FrameError, match="scalar width"):
            server.recv(timeout=5.0)
        assert encode_message(server.recv(timeout=5.0)) == frame
    finally:
        server.close()
        client.close()


@pytest.mark.parametrize("kind", ["loopback", "tcp"])
def test_a_frame_cannot_choose_the_size_of_a_decode_allocation(kind):
    msg = HiddenStateMsg(np.ones((1, 1, 1)), MaskMeta(1, 0, 1), (0,), step_id=0, client_id=0)
    frame = bytearray(encode_message(msg))
    batch_at = HEADER.size + 16 + 16  # past the step and client ids, mask seq_len and pad
    assert len(frame) == 111 and frame[batch_at : batch_at + 8] == (1).to_bytes(8, "little")
    frame[batch_at : batch_at + 8] = (2**24).to_bytes(8, "little")
    server, client = channel_pair(kind)
    try:
        client._frames.send_frame(bytes(frame))
        tracemalloc.start()
        try:
            start = time.perf_counter()
            with pytest.raises(FrameError, match="mask batch"):
                server.recv(timeout=5.0)
            elapsed = time.perf_counter() - start
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    finally:
        server.close()
        client.close()
    assert elapsed < 1.0, elapsed
    assert peak < 2**20, peak  # one shared pad for 2**24 rows would be a 128 MiB tuple
