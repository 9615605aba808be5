"""A minimal asyncio HTTP/1.1 layer: exactly what the service needs.

No framework, no ``http.server`` — requests are parsed straight off an
:class:`asyncio.StreamReader` and responses are rendered to bytes, with
hard limits on header and body size so a misbehaving client cannot buffer
the event loop into the ground.  Only the subset the routing service
speaks is implemented: ``GET``/``POST``, JSON bodies sized by
``Content-Length``, one request per connection (the server answers
``Connection: close`` and closes; clients open a connection per call).
That is cheap next to a cold request's plan computation, but a warm hit
computes no plan: there, reading and writing the request is a large
share of the whole, alongside validation and JSON encoding.

:class:`ProtocolError` carries the HTTP status a violation maps to, so the
connection handler can answer malformed traffic with a proper error body
instead of a dropped socket.
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import dataclass, field
from typing import Mapping
from urllib.parse import parse_qsl, unquote, urlsplit

__all__ = [
    "MAX_HEADER_BYTES",
    "MAX_BODY_BYTES",
    "STATUS_REASONS",
    "ProtocolError",
    "Request",
    "read_request",
    "render_response",
    "json_response",
]

#: Upper bound on the request line + headers block.
MAX_HEADER_BYTES = 16 * 1024

#: Upper bound on a request body (routing jobs are small JSON documents).
MAX_BODY_BYTES = 1024 * 1024

#: The status lines the service emits.
STATUS_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    408: "Request Timeout",
    409: "Conflict",
    413: "Payload Too Large",
    500: "Internal Server Error",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}


class ProtocolError(Exception):
    """An HTTP-level violation, carrying the status it maps to."""

    def __init__(self, status: int, message: str):
        super().__init__(message)
        self.status = int(status)
        self.message = message


@dataclass(frozen=True)
class Request:
    """One parsed request: method, decoded path, query, headers, raw body."""

    method: str
    path: str
    query: Mapping[str, str] = field(default_factory=dict)
    headers: Mapping[str, str] = field(default_factory=dict)
    body: bytes = b""

    def json(self) -> dict:
        """The body as a JSON object; :class:`ProtocolError` 400 otherwise."""
        if not self.body:
            raise ProtocolError(400, "request body must be a JSON object")
        try:
            payload = json.loads(self.body)
        except json.JSONDecodeError as exc:
            raise ProtocolError(400, f"request body is not valid JSON: {exc}")
        if not isinstance(payload, dict):
            raise ProtocolError(400, "request body must be a JSON object")
        return payload


async def read_request(reader: asyncio.StreamReader) -> Request | None:
    """Parse one request off ``reader``; ``None`` on a clean pre-request EOF.

    Raises :class:`ProtocolError` for malformed request lines, oversized
    headers or bodies, and bad ``Content-Length`` values.
    """
    try:
        head = await reader.readuntil(b"\r\n\r\n")
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None  # connection opened and closed without a request
        raise ProtocolError(400, "truncated request head")
    except asyncio.LimitOverrunError:
        raise ProtocolError(413, f"request head exceeds {MAX_HEADER_BYTES} bytes")
    if len(head) > MAX_HEADER_BYTES:
        raise ProtocolError(413, f"request head exceeds {MAX_HEADER_BYTES} bytes")

    lines = head.decode("latin-1").split("\r\n")
    parts = lines[0].split(" ")
    if len(parts) != 3 or not parts[2].startswith("HTTP/1."):
        raise ProtocolError(400, f"malformed request line: {lines[0]!r}")
    method, target, _version = parts

    headers: dict[str, str] = {}
    for line in lines[1:]:
        if not line:
            continue
        name, sep, value = line.partition(":")
        if not sep or not name.strip():
            raise ProtocolError(400, f"malformed header line: {line!r}")
        headers[name.strip().lower()] = value.strip()

    split = urlsplit(target)
    path = unquote(split.path) or "/"
    query = dict(parse_qsl(split.query))

    body = b""
    raw_length = headers.get("content-length")
    if raw_length is not None:
        try:
            length = int(raw_length)
        except ValueError:
            raise ProtocolError(400, f"bad Content-Length: {raw_length!r}")
        if length < 0:
            raise ProtocolError(400, f"bad Content-Length: {raw_length!r}")
        if length > MAX_BODY_BYTES:
            raise ProtocolError(413, f"body exceeds {MAX_BODY_BYTES} bytes")
        try:
            body = await reader.readexactly(length)
        except asyncio.IncompleteReadError:
            raise ProtocolError(400, "request body shorter than Content-Length")
    return Request(method=method, path=path, query=query, headers=headers, body=body)


def render_response(
    status: int, body: bytes, *, content_type: str = "application/json"
) -> bytes:
    """A full HTTP/1.1 response (headers + body) as bytes."""
    reason = STATUS_REASONS.get(status, "Unknown")
    head = (
        f"HTTP/1.1 {status} {reason}\r\n"
        f"Content-Type: {content_type}\r\n"
        f"Content-Length: {len(body)}\r\n"
        f"Connection: close\r\n"
        f"\r\n"
    )
    return head.encode("latin-1") + body


def json_response(status: int, payload: Mapping) -> bytes:
    """A JSON response; the body always ends in one newline."""
    body = json.dumps(payload, sort_keys=True).encode() + b"\n"
    return render_response(status, body)
