"""Ingest service and client for ciphertext-at-rest telemetry.

The server accepts JSON envelopes over HTTP, validates them, and appends
each message as one record to a single append-only ``store.log`` in the
data directory.  A record carries a crc32, the device id, ``seq``,
``ts_ms``, ``plaintext_len`` and the ciphertext.  Nothing in this module
can decrypt: no key ever reaches the server, and stored bytes are
exactly the ciphertext that arrived.  Appends are serialized and each is
fsynced once before the request is acknowledged; a torn tail left by a
crash is cut off when the store is reopened.

Routes:

* ``POST /api/v1/ingest`` -> ``{"status": "ok", "stored": N}`` on 200
* ``GET /api/v1/devices/{id}/blob`` -> the device's stored ciphertext,
  concatenated in append order
* ``GET /api/v1/devices/{id}/meta`` -> one ``seq ts_ms plaintext_len
  offset length`` line per message, with offsets into that blob;
  ``format_meta`` writes this body and ``parse_meta`` reads it
* ``GET /health`` -> ``ok``

``_Handler._reply`` answers every failure of a GET or POST that reaches
it: a raised KatanPipeError ``exc`` with ``{"status": "rejected",
"reason": exc.reason}`` and status ``exc.status``, any other exception
with 500 ``InternalError``.  Every rejection closes the connection.
``http.server`` itself answers, in HTML, any other method and any request
line or header it cannot read.  A POST with ``Transfer-Encoding`` is
rejected before its body is read, and a body that stops arriving for
REQUEST_TIMEOUT_S gets 408 ``RequestTimeout``.

The client half (``send_payload``, ``fetch_remote_blob``,
``fetch_remote_meta``) speaks HTTP/1.1 through ``http.client`` on one
persistent connection per call, so this module, like the rest of the
package, needs only the standard library.  Each request waits up to
CLIENT_TIMEOUT_S, and a POST that cannot reach the server is tried
DEFAULT_RETRIES times in all.  ``_checked`` reads every reply: a 2xx
passes, reason ``UnknownDevice`` raises UnknownDevice and any other
status raises ServerRejected.
"""

from __future__ import annotations

import errno
import json
import logging
import os
import re
import struct
import threading
import time
import zlib
from dataclasses import dataclass
from http.client import HTTPConnection, HTTPException, HTTPSConnection
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from urllib.parse import unquote, urlsplit

from .codec import (
    CHUNK_BYTES,
    Envelope,
    decode_envelope,
    encode_envelope,
    encrypt_payload,
)
from .errors import (
    BadDeviceId,
    ConnectionFailed,
    EmptyInput,
    KatanPipeError,
    MalformedJson,
    NotFound,
    PayloadTooLarge,
    RequestTimeout,
    ServerRejected,
    StorageFailure,
    UnknownDevice,
)
from .katan import Key80

API_PREFIX = "/api/v1"
DEFAULT_MAX_DECODED = 1 << 20
DEFAULT_RETRIES = 3
DEFAULT_BACKOFF_S = 0.25
# Seconds the client waits to connect, or for a reply, per attempt.
CLIENT_TIMEOUT_S = 10.0
# Seconds a connection may stay silent, mid-body or idle between
# requests on a keep-alive session, before the server gives it up.
REQUEST_TIMEOUT_S = 30.0

_log = logging.getLogger(__name__)

# No whitespace: the id is a field of the space-separated meta in each
# store log record.
_DEVICE_ID_RE = re.compile(r"[A-Za-z0-9._-]{1,64}\Z")

_DEVICE_DATA_RE = re.compile(rf"{API_PREFIX}/devices/([^/]+)/(blob|meta)\Z")


def now_ms() -> int:
    return int(time.time() * 1000)


def _digits(text: str) -> int:
    """``text`` read as ASCII ``1*DIGIT``; int() would also take "-1",
    "+1", "1_000" and non-ASCII digits.  Raise ValueError otherwise,
    including past Python's int-string digit limit."""
    if not (text.isascii() and text.isdigit()):
        raise ValueError(f"not a plain decimal number: {text!r}")
    return int(text)


def check_device_id(device_id) -> str:
    """Return the id unchanged, or raise BadDeviceId."""
    if not isinstance(device_id, str) or not _DEVICE_ID_RE.fullmatch(device_id):
        raise BadDeviceId(
            "device_id must be 1..64 characters from [A-Za-z0-9._-]")
    return device_id


@dataclass(frozen=True, slots=True)
class MetaRecord:
    """One stored message: where it sits in the blob and what it claims."""

    seq: int
    ts_ms: int
    plaintext_len: int
    offset: int
    length: int


def format_meta(records) -> str:
    """A meta body: one ``seq ts_ms plaintext_len offset length`` line per
    record, each ending in a newline."""
    return "".join(f"{r.seq} {r.ts_ms} {r.plaintext_len} {r.offset} {r.length}\n"
                   for r in records)


def parse_meta(text: str) -> list:
    """The MetaRecords of a meta body, skipping blank lines.  Raise
    ValueError for a line that is not five plain decimal fields."""
    records = []
    for line in text.splitlines():
        parts = line.split()
        if len(parts) == 5:
            records.append(MetaRecord(*map(_digits, parts)))
        elif parts:
            raise ValueError(f"meta line needs 5 fields: {line!r}")
    return records


LOG_NAME = "store.log"

# A record is _HEAD, the ASCII meta "device_id seq ts_ms plaintext_len",
# then the ciphertext.  The crc32 covers everything after itself, so a
# torn or corrupt tail fails the check when the log is reopened.
_HEAD = struct.Struct("<III")  # crc32, meta length, ciphertext length


def _record_head(meta: bytes, ciphertext: bytes) -> bytes:
    lengths = struct.pack("<II", len(meta), len(ciphertext))
    crc = zlib.crc32(ciphertext, zlib.crc32(lengths + meta))
    return struct.pack("<I", crc) + lengths + meta


class BlobStore:
    """All devices' messages in one append-only, crc-checked log file."""

    def __init__(self, root):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        path = self.root / LOG_NAME
        try:
            self._fd = os.open(path, os.O_RDWR | os.O_CREAT | os.O_EXCL, 0o644)
        except FileExistsError:
            self._fd = os.open(path, os.O_RDWR)
        else:
            # Make the new file's directory entry durable too.
            dir_fd = os.open(self.root, os.O_RDONLY)
            try:
                os.fsync(dir_fd)
            finally:
                os.close(dir_fd)
        self._lock = threading.Lock()
        self._index = {}
        self._end = self._recover()

    def close(self) -> None:
        os.close(self._fd)

    def _recover(self) -> int:
        """Index every whole record and cut off a torn or corrupt tail."""
        size = os.fstat(self._fd).st_size
        pos = 0
        while pos + _HEAD.size <= size:
            head = os.pread(self._fd, _HEAD.size, pos)
            crc, meta_len, length = _HEAD.unpack(head)
            body_pos = pos + _HEAD.size + meta_len
            if body_pos + length > size:
                break
            rest = os.pread(self._fd, meta_len + length, pos + _HEAD.size)
            if zlib.crc32(rest, zlib.crc32(head[4:])) != crc:
                break
            try:
                device_id, *fields = rest[:meta_len].decode("ascii").split()
                seq, ts_ms, plaintext_len = map(int, fields)
            except ValueError:
                break
            self._index_record(device_id, seq, ts_ms, plaintext_len, body_pos, length)
            pos = body_pos + length
        if pos < size:
            _log.warning("cutting %d torn bytes off the end of %s",
                         size - pos, self.root / LOG_NAME)
            os.ftruncate(self._fd, pos)
            os.fsync(self._fd)
        return pos

    def _index_record(self, device_id: str, seq: int, ts_ms: int,
                      plaintext_len: int, body_pos: int, length: int) -> MetaRecord:
        entries = self._index.setdefault(device_id, [])
        offset = entries[-1][0].offset + entries[-1][0].length if entries else 0
        record = MetaRecord(seq, ts_ms, plaintext_len, offset, length)
        entries.append((record, body_pos))
        return record

    def _entries(self, device_id: str) -> list:
        check_device_id(device_id)
        # Appends only extend the list, so a copy is a consistent snapshot.
        entries = list(self._index.get(device_id, ()))
        if not entries:
            raise UnknownDevice(f"nothing stored for {device_id!r}")
        return entries

    def append(self, device_id: str, ciphertext: bytes, *,
               seq: int, ts_ms: int, plaintext_len: int) -> MetaRecord:
        """Durably append one message; returns its meta record."""
        check_device_id(device_id)
        meta = f"{device_id} {seq} {ts_ms} {plaintext_len}".encode("ascii")
        head = _record_head(meta, ciphertext)
        size = len(head) + len(ciphertext)
        with self._lock:
            end = self._end
            try:
                if os.pwritev(self._fd, [head, ciphertext], end) != size:
                    raise OSError(errno.EIO, "short write to the store log")
                os.fsync(self._fd)
            except OSError:
                # A partial record left in place would end the scan on
                # reopen and hide every record acknowledged after it.
                os.ftruncate(self._fd, end)
                raise
            self._end = end + size
            return self._index_record(device_id, seq, ts_ms, plaintext_len,
                                      end + len(head), len(ciphertext))

    def fetch_blob(self, device_id: str) -> bytes:
        return b"".join(os.pread(self._fd, record.length, body_pos)
                        for record, body_pos in self._entries(device_id))

    def fetch_meta(self, device_id: str) -> list:
        return [record for record, _ in self._entries(device_id)]


def ingest(store: BlobStore, body,
           max_decoded: int = DEFAULT_MAX_DECODED) -> int:
    """Validate one envelope body, append its ciphertext to the store and
    return the number of bytes stored; raise a KatanPipeError if not."""
    env = decode_envelope(body)
    check_device_id(env.device_id)
    if len(env.ciphertext) > max_decoded:
        raise PayloadTooLarge(
            f"decoded payload of {len(env.ciphertext)} bytes "
            f"exceeds the {max_decoded} byte limit")
    try:
        store.append(env.device_id, env.ciphertext,
                     seq=env.seq, ts_ms=env.ts_ms,
                     plaintext_len=env.plaintext_len)
    except OSError as exc:
        _log.exception("storage failure during ingest")
        raise StorageFailure("could not append to the store log") from exc
    return len(env.ciphertext)


class _Handler(BaseHTTPRequestHandler):
    server_version = "katanpipe/0.1"
    protocol_version = "HTTP/1.1"
    timeout = REQUEST_TIMEOUT_S

    def log_message(self, fmt, *args):
        _log.debug("%s " + fmt, self.address_string(), *args)

    def _send(self, status: int, body: bytes, content_type: str,
              close: bool) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        if close:
            # Also sets close_connection.
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(body)

    def _reply(self, route) -> None:
        """Send what ``route()`` returns, or the rejection it raises."""
        try:
            body, content_type = route()
            # A GET body is never read, so it must not be parsed as the
            # next request on this connection.
            status, close = 200, self.command == "GET" and (
                "Content-Length" in self.headers or "Transfer-Encoding" in self.headers)
        except Exception as exc:
            if isinstance(exc, KatanPipeError):
                status, reason = exc.status, exc.reason
            else:
                _log.exception("unhandled error in %s %s", self.command, self.path)
                status, reason = 500, "InternalError"
            body = json.dumps({"status": "rejected", "reason": reason}).encode("ascii")
            # The request body may not have been drained, so close the
            # connection, and tell the client so it does not reuse it.
            content_type, close = "application/json", True
        self._send(status, body, content_type, close)

    def do_GET(self):
        self._reply(self._get)

    def do_POST(self):
        self._reply(self._post)

    def _get(self) -> tuple:
        if self.path == "/health":
            return b"ok", "text/plain"
        m = _DEVICE_DATA_RE.fullmatch(self.path)
        if not m:
            raise NotFound(f"no route for GET {self.path}")
        device_id, store = unquote(m.group(1)), self.server.store
        if m.group(2) == "blob":
            return store.fetch_blob(device_id), "application/octet-stream"
        return format_meta(store.fetch_meta(device_id)).encode("ascii"), "text/plain"

    def _post(self) -> tuple:
        if self.path != f"{API_PREFIX}/ingest":
            raise NotFound(f"no route for POST {self.path}")
        # RFC 9112 gives Transfer-Encoding precedence over Content-Length,
        # and this server never decodes a chunked body.
        if "Transfer-Encoding" in self.headers:
            raise MalformedJson("Transfer-Encoding is not supported")
        # RFC 9110 allows one Content-Length of only 1*DIGIT.
        values = self.headers.get_all("Content-Length", ["0"])
        try:
            (value,) = values
            length = _digits(value.strip(" \t"))
        except ValueError:
            raise MalformedJson(f"bad Content-Length: {values}") from None
        # Base64 inflates by 4/3, so this cap cannot reject a body whose
        # decoded payload would have been within max_decoded.
        raw_cap = self.server.max_decoded * 2 + 8192
        if length > raw_cap:
            raise PayloadTooLarge(
                f"Content-Length {length} exceeds the {raw_cap} byte cap")
        try:
            body = self.rfile.read(length)
        except TimeoutError:
            raise RequestTimeout(
                f"body shorter than Content-Length {length}") from None
        stored = ingest(self.server.store, body, self.server.max_decoded)
        return (json.dumps({"status": "ok", "stored": stored}).encode("ascii"),
                "application/json")


def create_server(addr, store: BlobStore,
                  max_decoded: int = DEFAULT_MAX_DECODED) -> ThreadingHTTPServer:
    """Build (but do not start) the ingest HTTP server; its handlers read
    ``store`` and ``max_decoded`` off it."""
    server = ThreadingHTTPServer(addr, _Handler)
    server.store, server.max_decoded = store, max_decoded
    return server


@dataclass(frozen=True)
class IngestAck:
    """Server acknowledgement for one sent envelope."""

    seq: int
    stored: int


@dataclass(frozen=True, slots=True)
class _Response:
    """The two parts of a reply the client reads."""

    status_code: int
    content: bytes


class _Session:
    """One persistent HTTP/1.1 connection to the host of ``server_url``.

    ``post`` has the shape that send_payload's ``session=`` hook takes,
    the one ``requests.Session.post`` also has; the connection waits
    CLIENT_TIMEOUT_S whatever ``timeout`` says.  Requests go to the path
    of the URL they are given, so a path in ``server_url`` is kept.
    http.client drops the connection after a ``Connection: close`` reply
    and this class after any error; the next request reconnects.
    """

    def __init__(self, server_url: str):
        url = urlsplit(server_url)
        conn_type = {"http": HTTPConnection, "https": HTTPSConnection}.get(url.scheme)
        if conn_type is None or not url.netloc:
            raise ConnectionFailed(f"not an http or https URL: {server_url!r}")
        try:
            self._conn = conn_type(url.netloc, timeout=CLIENT_TIMEOUT_S)
        except HTTPException as exc:  # http.client.InvalidURL, e.g. a bad port
            raise ConnectionFailed(f"bad server URL {server_url!r}: {exc}") from None

    def request(self, method: str, url: str, *, data=None, headers=None) -> _Response:
        conn = self._conn
        try:
            conn.request(method, urlsplit(url).path, body=data, headers=headers or {})
            resp = conn.getresponse()
            return _Response(resp.status, resp.read())
        except (OSError, HTTPException):
            conn.close()
            raise

    def post(self, url: str, data=None, headers=None, timeout=None) -> _Response:
        return self.request("POST", url, data=data, headers=headers)

    def close(self) -> None:
        self._conn.close()


def _json_field(resp, name: str):
    """Field ``name`` of a JSON object reply; None if the body is not a
    JSON object with that field.  A body nested past the recursion limit
    raises RecursionError in json.loads."""
    try:
        return json.loads(resp.content)[name]
    except (ValueError, KeyError, TypeError, RecursionError):
        return None


def _reason(resp) -> str:
    """The ``reason`` of a rejection reply, or else the start of its body."""
    reason = _json_field(resp, "reason")
    if isinstance(reason, str):
        return reason
    return resp.content.decode("utf-8", "replace")[:200]


def _checked(resp, url: str):
    """Return a 2xx reply; raise UnknownDevice or ServerRejected for any other."""
    if 200 <= resp.status_code < 300:
        return resp
    reason = _reason(resp)
    if reason == "UnknownDevice":
        raise UnknownDevice(f"server has no data at {url}")
    raise ServerRejected(resp.status_code, reason)


def _post_with_retry(session, url: str, body: str, sleep):
    delay = DEFAULT_BACKOFF_S
    for attempt in range(DEFAULT_RETRIES):
        try:
            resp = session.post(
                url, data=body.encode("utf-8"),
                headers={"Content-Type": "application/json"},
                timeout=CLIENT_TIMEOUT_S)
        # requests.RequestException, which a passed-in session may raise,
        # is an OSError too.
        except (OSError, HTTPException) as exc:
            if attempt == DEFAULT_RETRIES - 1:
                raise ConnectionFailed(f"could not reach {url} after "
                                       f"{DEFAULT_RETRIES} attempts: {exc}") from exc
            sleep(delay)
            delay *= 2
        else:
            return _checked(resp, url)


def send_payload(server_url: str, device_id: str, key: Key80, data: bytes, *,
                 per_chunk: bool = False, sleep=time.sleep, session=None) -> list:
    """Encrypt ``data`` and post it to the ingest endpoint.

    By default the whole payload goes in one envelope; with
    ``per_chunk=True`` each 256-byte chunk is sent as its own envelope.
    Sequence numbers start at 0 for every call.  Each envelope gets
    DEFAULT_RETRIES attempts of up to CLIENT_TIMEOUT_S each, after a
    connection failure waiting DEFAULT_BACKOFF_S and then twice as long
    each time.  Every envelope goes over one keep-alive connection
    unless ``session`` is given: any object with ``post(url, data=,
    headers=, timeout=)`` that returns a reply with ``status_code`` and
    ``content``, such as a ``requests.Session``.  Returns one IngestAck
    per envelope, in send order.
    """
    if not data:
        raise EmptyInput("cannot send an empty payload")
    check_device_id(device_id)
    step = CHUNK_BYTES if per_chunk else len(data)
    units = [data[i:i + step] for i in range(0, len(data), step)]
    url = f"{server_url.rstrip('/')}{API_PREFIX}/ingest"
    own_session = session is None
    if own_session:
        session = _Session(server_url)
    try:
        acks = []
        for seq, unit in enumerate(units):
            ciphertext, plaintext_len = encrypt_payload(unit, key)
            env = Envelope(device_id=device_id, seq=seq, ts_ms=now_ms(),
                           plaintext_len=plaintext_len, ciphertext=ciphertext)
            resp = _post_with_retry(session, url, encode_envelope(env), sleep)
            stored = _json_field(resp, "stored")
            # bool is an int subclass, so test the exact type.
            if type(stored) is not int or stored != len(ciphertext):
                raise ServerRejected(resp.status_code, "malformed acknowledgement")
            acks.append(IngestAck(seq, stored))
        return acks
    finally:
        if own_session:
            session.close()


def _get(server_url: str, path: str) -> _Response:
    url = f"{server_url.rstrip('/')}{path}"
    session = _Session(server_url)
    try:
        resp = session.request("GET", url)
    except (OSError, HTTPException) as exc:
        raise ConnectionFailed(f"could not reach {url}: {exc}") from exc
    finally:
        session.close()
    return _checked(resp, url)


def fetch_remote_blob(server_url: str, device_id: str) -> bytes:
    """Download the stored ciphertext blob for one device."""
    check_device_id(device_id)
    return _get(server_url, f"{API_PREFIX}/devices/{device_id}/blob").content


def fetch_remote_meta(server_url: str, device_id: str) -> list:
    """Download and parse the meta records for one device."""
    check_device_id(device_id)
    resp = _get(server_url, f"{API_PREFIX}/devices/{device_id}/meta")
    try:
        return parse_meta(resp.content.decode("ascii"))
    except ValueError:
        raise ServerRejected(resp.status_code, "malformed meta") from None
