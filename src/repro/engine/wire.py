"""Wire-protocol primitives shared by every distributed-engine endpoint.

The coordinator (:mod:`repro.engine.serve`, reached through ``repro
serve`` or ``run_plans(listen=...)``), the worker and the submit/follow
clients (:mod:`repro.engine.remote`, :mod:`repro.engine.serve`) all speak
the same protocol; this module is the single definition of its framing,
addressing, plan transport, client connect and handshake validation.

Frames are **length-prefixed JSON objects**: a 4-byte big-endian unsigned
payload length followed by that many bytes of UTF-8 JSON.  Every frame is
a JSON object carrying a ``kind``; frames above :data:`MAX_FRAME_BYTES`
are rejected.  The synchronous codec (:func:`send_frame` /
:func:`recv_frame`) lives here; the asyncio codec that emits and parses
the *identical* bytes lives in :mod:`repro.engine.aiocoord`.
"""

from __future__ import annotations

import base64
import json
import os
import pickle
import socket
import struct
import time
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.errors import CampaignError, RemoteProtocolError

PROTOCOL_VERSION = 1
"""Wire protocol version; both ends must agree exactly."""

MAX_FRAME_BYTES = 64 * 1024 * 1024
"""Upper bound on one frame's payload (a plan batch or shard result)."""

DEFAULT_LEASE_TIMEOUT_S = 15.0
"""Lease lifetime without a heartbeat before the shard is requeued."""

_HEADER = struct.Struct(">I")


# -- frame codec (blocking sockets) -------------------------------------------------


def encode_frame(payload: Dict) -> bytes:
    """One frame's bytes: 4-byte length header + canonical JSON payload."""
    body = json.dumps(payload, separators=(",", ":")).encode("utf-8")
    if len(body) > MAX_FRAME_BYTES:
        raise RemoteProtocolError(
            f"frame of {len(body)} bytes exceeds limit {MAX_FRAME_BYTES}"
        )
    return _HEADER.pack(len(body)) + body


def decode_frame_body(body: bytes) -> Dict:
    """Parse one frame payload; every codec funnels through this check."""
    try:
        payload = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, ValueError) as exc:
        raise RemoteProtocolError(f"frame is not valid JSON: {exc!r}") from exc
    if not isinstance(payload, dict) or "kind" not in payload:
        raise RemoteProtocolError("frame must be a JSON object with a 'kind'")
    return payload


def send_frame(sock: socket.socket, payload: Dict) -> None:
    """Serialize one JSON frame onto the socket (length-prefixed)."""
    sock.sendall(encode_frame(payload))


def _recv_exact(sock: socket.socket, count: int) -> Optional[bytes]:
    """Read exactly ``count`` bytes; ``None`` on clean EOF at offset 0."""
    chunks: List[bytes] = []
    remaining = count
    while remaining:
        chunk = sock.recv(remaining)
        if not chunk:
            if not chunks:
                return None
            raise RemoteProtocolError(
                f"connection closed mid-frame ({count - remaining}/{count} bytes)"
            )
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def recv_frame(sock: socket.socket) -> Optional[Dict]:
    """Read one frame; ``None`` on clean EOF at a frame boundary."""
    header = _recv_exact(sock, _HEADER.size)
    if header is None:
        return None
    (length,) = _HEADER.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise RemoteProtocolError(
            f"declared frame of {length} bytes exceeds limit {MAX_FRAME_BYTES}"
        )
    body = _recv_exact(sock, length)
    if body is None:
        raise RemoteProtocolError("connection closed between header and payload")
    return decode_frame_body(body)


# -- addresses & plan transport -----------------------------------------------------


def parse_address(address: Union[str, Tuple[str, int]]) -> Tuple[str, int]:
    """``HOST:PORT`` / ``:PORT`` / ``PORT`` (or a ready tuple) → ``(host, port)``."""
    if isinstance(address, tuple):
        host, port = address
        return (host or "127.0.0.1", int(port))
    text = str(address).strip()
    if ":" in text:
        host, _, port_text = text.rpartition(":")
    else:
        host, port_text = "", text
    try:
        port = int(port_text)
    except ValueError:
        raise CampaignError(
            f"listen/connect address must be HOST:PORT, :PORT or PORT, got {address!r}"
        ) from None
    if not 0 <= port <= 65535:
        raise CampaignError(f"port out of range in address {address!r}")
    return (host or "127.0.0.1", port)


def encode_plans(plans: Sequence) -> str:
    """Plan batch → base64 pickle (the ``welcome`` frame's payload)."""
    return base64.b64encode(pickle.dumps(list(plans), protocol=4)).decode("ascii")


def decode_plans(blob: str) -> List:
    """Inverse of :func:`encode_plans`."""
    try:
        plans = pickle.loads(base64.b64decode(blob.encode("ascii")))
    except Exception as exc:
        raise RemoteProtocolError(f"plan batch failed to hydrate: {exc!r}") from exc
    if not isinstance(plans, list):
        raise RemoteProtocolError("plan batch did not decode to a list")
    return plans


def connect_with_retry(host: str, port: int, timeout_s: float) -> socket.socket:
    """Connect to a coordinator, retrying refused connects for ``timeout_s``."""
    deadline = time.monotonic() + max(0.0, timeout_s)
    while True:
        try:
            return socket.create_connection((host, port), timeout=10.0)
        except OSError as exc:
            if time.monotonic() >= deadline:
                raise CampaignError(
                    f"could not connect to coordinator {host}:{port} "
                    f"within {timeout_s:g}s: {exc}"
                ) from exc
            time.sleep(0.2)


def worker_identity() -> str:
    """This process's identity on the wire (``host:pid``)."""
    return f"{socket.gethostname()}:{os.getpid()}"


def validate_hello(payload: Dict, fingerprint: str) -> Optional[str]:
    """Why a ``hello`` must be rejected, or ``None`` when it is acceptable."""
    if payload.get("kind") != "hello":
        return f"expected hello, got {payload.get('kind')!r}"
    if payload.get("v") != PROTOCOL_VERSION:
        return (
            f"protocol version mismatch: coordinator speaks {PROTOCOL_VERSION}, "
            f"worker spoke {payload.get('v')!r}"
        )
    held = payload.get("fingerprint")
    if held is not None and held != fingerprint:
        return (
            f"stale worker: holds plans {held}, campaign is {fingerprint} — "
            "restart the worker so it re-hydrates"
        )
    return None
