"""Seeded mutation fuzzing of the ingest server's replies.

After Miller, Fredriksen and So's fuzz study (CACM 1990): valid
envelopes are mutated by a seeded ``random.Random`` and each case is sent
on its own raw socket, half-closed after sending.  Every case must get
exactly one well-formed HTTP reply, every rejection must name a
KatanPipeError subclass (or ``InternalError``) with that type's status,
and the server must still answer ``/health`` afterwards.
"""

import json
import random
import re
import socket
from urllib.parse import quote

from katanpipe import errors
from katanpipe.codec import Envelope, encode_envelope, encrypt_payload
from katanpipe.katan import Key80

SEED = 1990
CASES = 1000

STATUS_OF_REASON = {name: obj.status for name, obj in vars(errors).items()
                    if isinstance(obj, type) and issubclass(obj, errors.KatanPipeError)}
STATUS_OF_REASON["InternalError"] = 500


def request(body, lengths=None, line="POST /api/v1/ingest"):
    """Raw request bytes; ``lengths`` are the Content-Length header values."""
    if lengths is None:
        lengths = [str(len(body))]
    head = f"{line} HTTP/1.1\r\nHost: fuzz\r\n"
    head += "".join(f"Content-Length: {v}\r\n" for v in lengths) + "\r\n"
    return head.encode("utf-8") + body


def flip(rng, body):
    out = bytearray(body)
    for _ in range(rng.randint(1, 8)):
        out[rng.randrange(len(out))] ^= 1 << rng.randrange(8)
    return request(bytes(out))


def delete(rng, body):
    i = rng.randrange(len(body))
    return request(body[:i] + body[i + rng.randint(1, 64):])


def duplicate(rng, body):
    i = rng.randrange(len(body))
    j = i + rng.randint(1, 64)
    return request(body[:j] + body[i:j] + body[j:])


def grow_int(rng, body):
    m = rng.choice(list(re.finditer(rb"\d+", body)))
    digits = b"9" * rng.choice([1, 12, 400, 5000])
    return request(body[:m.end()] + digits + body[m.end():])


def nest(rng, body):
    opener, closer = rng.choice([(b"[", b"]"), (b'{"a":', b"}")])
    depth = rng.choice([1, 50, 5000, 50_000])
    return request(opener * depth + body + closer * depth)


def truncate(rng, body):
    # Declares the whole body but sends a prefix; the half-close ends it.
    return request(body[:rng.randrange(len(body))], [str(len(body))])


def odd_length(rng, body):
    n = len(body)
    lengths = rng.choice([
        [], [""], ["-1"], [f"+{n}"], [f"{n}_0"], [f"0x{n:x}"], ["abc"], ["²"],
        ["9" * 30], ["1" * 5000], [f"{n}", f"{n}"], [f"{n}", f"{n + 1}"],
    ])
    return request(body, lengths)


def odd_route(rng, body):
    device = rng.choice(["fuzz-0", "ghost", quote(rng.randbytes(rng.randint(0, 80)))])
    method = rng.choice(["GET", "POST"])
    kind = rng.choice(["blob", "meta", "x"])
    return request(body, line=f"{method} /api/v1/devices/{device}/{kind}")


MUTATIONS = [flip, delete, duplicate, grow_int, nest, truncate, odd_length, odd_route]


def make_cases(rng, n):
    key = Key80(rng.getrandbits(80))
    bodies = []
    for i, size in enumerate([1, 100, 256, 700]):
        ciphertext, plaintext_len = encrypt_payload(rng.randbytes(size), key)
        env = Envelope(f"fuzz-{i}", i, 1_700_000_000_000 + i,
                       plaintext_len, ciphertext)
        bodies.append(encode_envelope(env).encode("ascii"))
    for _ in range(n):
        mutation = rng.choice(MUTATIONS)
        yield mutation.__name__, mutation(rng, rng.choice(bodies))


def exchange(port, raw):
    """Send one request, half-close, and read until the server closes."""
    with socket.create_connection(("127.0.0.1", port), timeout=5) as sock:
        try:
            sock.sendall(raw)
            sock.shutdown(socket.SHUT_WR)
        except (BrokenPipeError, ConnectionResetError):
            pass  # rejected before the body was read; the reply is queued
        chunks = []
        try:
            while chunk := sock.recv(65536):
                chunks.append(chunk)
        except ConnectionResetError:
            pass  # unread request bytes reset the socket after the reply
    return b"".join(chunks)


def check_reply(reply):
    """Return the reply's status, asserting it is one well-formed reply."""
    head, sep, body = reply.partition(b"\r\n\r\n")
    assert sep, f"no complete reply: {reply[:80]!r}"
    status_line, *lines = head.decode("latin-1").split("\r\n")
    m = re.fullmatch(r"HTTP/1\.1 (\d{3}) .+", status_line)
    assert m, status_line
    headers = {k.strip().lower(): v.strip()
               for k, _, v in (line.partition(":") for line in lines)}
    assert int(headers["content-length"]) == len(body)
    status = int(m.group(1))
    if status != 200:
        obj = json.loads(body)
        assert obj["status"] == "rejected"
        assert STATUS_OF_REASON[obj["reason"]] == status, obj
        assert headers["connection"] == "close"
    return status


def test_every_mutated_request_gets_a_typed_reply(ingest_server):
    base, _ = ingest_server
    port = int(base.rsplit(":", 1)[1])
    seen = set()
    for i, (name, raw) in enumerate(make_cases(random.Random(SEED), CASES)):
        reply = exchange(port, raw)
        try:
            seen.add(check_reply(reply))
        except Exception as exc:
            raise AssertionError(f"case {i} ({name}): {raw[:120]!r}") from exc
    assert {200, 400, 404, 413} <= seen
    assert check_reply(exchange(port, b"GET /health HTTP/1.1\r\nHost: fuzz\r\n\r\n")) == 200
