"""Chunking, packing and the JSON envelope.

A payload is split into 256-byte chunks (the last one zero padded), each
chunk is reinterpreted as 32 little-endian 64-bit words, and those words
are exactly one bitsliced KATAN32 batch.  The cipher runs on up to
SLAB_CHUNKS chunks side by side per call.  A one-chunk slab, the whole of
a 250-byte reading, is unpacked into its 32 words and packed back with
one struct call each; wider slabs go through strided memoryviews.
Padding is never removed by inspection: the plaintext length rides
alongside the ciphertext and is authoritative, so payloads ending in zero
bytes survive the round trip.

On the wire an encrypted payload travels as a JSON object with exactly
the fields device_id, seq, ts_ms, cipher, plaintext_len and payload,
where payload is standard base64 (with padding) of the ciphertext.
cipher is always "KATAN32" (CIPHER), the only cipher the payload path
runs: encode_envelope writes it, decode_envelope rejects any other name
with UnknownCipher, and Envelope does not carry it.

decode_envelope reads a bytes body in encode_envelope's layout in place:
it parses only the fields before the payload and decodes the base64
straight from the body, so the ciphertext is the one payload-sized copy
it holds beside the body.  Any other input (a str, or bytes laid out
differently) is parsed whole, which holds the text and the payload
string, then the payload string and the ciphertext.
"""

from __future__ import annotations

import base64
import binascii
import json
import re
import struct
import sys
from dataclasses import dataclass

from .errors import (
    BadBase64,
    BadLengthInvariant,
    BadPlaintextLen,
    EmptyInput,
    MalformedJson,
    MissingField,
    UnknownCipher,
)
from .katan import BATCH_WORDS, Key80, _kernel, _subkey_words

CIPHER = "KATAN32"
CHUNK_BYTES = 256
# Chunks per cipher call (64 KiB): caps the working set, and so peak
# RAM, however large the payload is.
SLAB_CHUNKS = 256
# One chunk as its 32 little-endian 64-bit words.
_ONE_CHUNK = struct.Struct(f"<{BATCH_WORDS}Q")

ENVELOPE_FIELDS = ("device_id", "seq", "ts_ms", "cipher", "plaintext_len", "payload")


def _check_lengths(n: int, plaintext_len) -> None:
    """Raise unless ``n`` ciphertext bytes are one or more whole chunks
    and ``plaintext_len`` ends inside the last of them."""
    if n == 0 or n % CHUNK_BYTES:
        raise BadLengthInvariant(
            f"ciphertext of {n} bytes is not a whole number of chunks")
    if not isinstance(plaintext_len, int) or not n - CHUNK_BYTES < plaintext_len <= n:
        raise BadPlaintextLen(
            f"plaintext_len {plaintext_len} impossible for {n} ciphertext bytes")


def _crypt_slabs(decrypt: bool, data, key: Key80, keep: int) -> bytes:
    """Run one direction's kernel over ``data`` a slab of up to
    SLAB_CHUNKS chunks at a time and return the first ``keep`` bytes of
    the result.

    Word b of an n-chunk slab is one int holding word b of chunk c in
    bits 64c..64c+63.  A one-chunk slab is read and written with one
    struct call; wider slabs step over raw 8-byte groups with "Q" casts,
    and from_bytes/to_bytes fix little-endian.  Either way the host's
    byte order never enters.
    """
    kernel = _kernel(decrypt)
    step = SLAB_CHUNKS * CHUNK_BYTES
    out = []
    for start in range(0, keep, step):
        slab = bytes(data[start:start + step])
        slab += bytes(-len(slab) % CHUNK_BYTES)
        width = len(slab) // BATCH_WORDS
        sk = _subkey_words(key.value, (1 << 8 * width) - 1)
        if len(slab) == CHUNK_BYTES:
            res = bytearray(_ONE_CHUNK.pack(*kernel(_ONE_CHUNK.unpack(slab), sk)))
        else:
            q = memoryview(slab).cast("Q")
            words = kernel([int.from_bytes(q[b::BATCH_WORDS], "little")
                            for b in range(BATCH_WORDS)], sk)
            res = bytearray(len(slab))
            with memoryview(res).cast("Q") as rq:
                for b, w in enumerate(words):
                    rq[b::BATCH_WORDS] = memoryview(w.to_bytes(width, "little")).cast("Q")
        del res[keep - start:]
        out.append(res)
    return b"".join(out)


def encrypt_payload(data: bytes, key: Key80) -> tuple:
    """Encrypt a payload; returns (ciphertext, plaintext_len).

    The ciphertext is always a whole number of 256-byte chunks.
    """
    if not data:
        raise EmptyInput("cannot encrypt an empty payload")
    padded = len(data) + -len(data) % CHUNK_BYTES
    return _crypt_slabs(False, data, key, padded), len(data)


def decrypt_payload(ciphertext: bytes, plaintext_len: int, key: Key80) -> bytes:
    """Decrypt and trim back to exactly ``plaintext_len`` bytes."""
    _check_lengths(len(ciphertext), plaintext_len)
    return _crypt_slabs(True, ciphertext, key, plaintext_len)


@dataclass(frozen=True)
class Envelope:
    """One ingest message, decoded."""

    device_id: str
    seq: int
    ts_ms: int
    plaintext_len: int
    ciphertext: bytes


def _check_envelope(env: Envelope, cipher) -> None:
    """Raise unless ``env`` and the wire ``cipher`` name are valid."""
    if not isinstance(env.device_id, str) or not env.device_id:
        raise MissingField("device_id must be a non-empty string")
    for name in ("seq", "ts_ms", "plaintext_len"):
        value = getattr(env, name)
        if isinstance(value, bool) or not isinstance(value, int) or value < 0:
            raise MissingField(f"{name} must be a non-negative integer")
    if not isinstance(cipher, str):
        raise MissingField("cipher must be a string")
    if cipher != CIPHER:
        raise UnknownCipher(f"cipher must be {CIPHER!r}, got {cipher!r}")
    _check_lengths(len(env.ciphertext), env.plaintext_len)


def encode_envelope(env: Envelope) -> str:
    """Serialize an envelope to its canonical JSON form."""
    _check_envelope(env, CIPHER)
    return json.dumps({
        "device_id": env.device_id,
        "seq": env.seq,
        "ts_ms": env.ts_ms,
        "cipher": CIPHER,
        "plaintext_len": env.plaintext_len,
        "payload": base64.b64encode(env.ciphertext).decode("ascii"),
    })


if sys.version_info >= (3, 11):
    def _a2b_strict(payload) -> bytes:
        # What base64.b64decode(payload, validate=True) runs, minus its
        # copy to bytes: a2b_base64 reads an ASCII str or a buffer in place.
        return binascii.a2b_base64(payload, strict_mode=True)
else:
    # 3.10 has no strict_mode, and b64decode(validate=True) also accepts
    # excess padding ("=", "AAA==").  So check strict_mode's rule first:
    # data characters, then only "=": two after a last group of 2, one
    # after a last group of 3, and any number after whole groups of 4 as
    # long as there is data.
    _B64_STR = re.compile(r"[A-Za-z0-9+/]*(=*)")
    _B64_BYTES = re.compile(rb"[A-Za-z0-9+/]*(=*)")

    def _a2b_strict(payload) -> bytes:
        m = (_B64_STR if isinstance(payload, str) else _B64_BYTES).fullmatch(payload)
        if m:
            data, pad = m.start(1), len(payload) - m.start(1)
            if ((data % 4 == 0 and (pad == 0 or data > 0))
                    or (data % 4, pad) in ((2, 2), (3, 1))):
                return binascii.a2b_base64(payload)
        raise binascii.Error("invalid base64")


def _decode_payload(payload) -> bytes:
    """Strict standard base64 (with padding) of ``payload``, or BadBase64."""
    try:
        return _a2b_strict(payload)
    except (binascii.Error, ValueError):
        # ValueError: a str with a non-ASCII character.
        raise BadBase64("payload is not valid base64") from None


_PAYLOAD_MARK = b', "payload": "'


def _split_canonical(body):
    """The other five fields and the ciphertext of a body laid out as
    encode_envelope writes it, or None for any other body.

    Only the bytes before the last payload key are parsed as JSON, with a
    closing brace put back; the base64 is decoded from a view of the body.
    That head must be an object with exactly the five other fields and the
    payload must be strict base64, so it has no quote or escape, and the
    whole body then parses to the same object.  Anything else is left to
    the full parse, which reports it.
    """
    mark = body.rfind(_PAYLOAD_MARK, 0, len(body) - 2)
    if mark < 0 or not body.endswith(b'"}'):
        return None
    try:
        head = json.loads((body[:mark] + b"}").decode("utf-8"))
        if isinstance(head, dict) and head.keys() == set(ENVELOPE_FIELDS[:-1]):
            return head, _a2b_strict(memoryview(body)[mark + len(_PAYLOAD_MARK):-2])
    except (ValueError, RecursionError):
        pass  # not UTF-8, not JSON or not strict base64
    return None


def _parse(text) -> dict:
    """The envelope object of ``text``, checked for its field set."""
    if isinstance(text, (bytes, bytearray)):
        try:
            text = text.decode("utf-8")
        except UnicodeDecodeError:
            raise MalformedJson("body is not valid UTF-8") from None
    try:
        obj = json.loads(text)
    except (ValueError, RecursionError):
        # JSONDecodeError, a plain ValueError for an integer longer than
        # Python's int-string digit limit, or RecursionError for arrays
        # or objects nested past the recursion limit.
        raise MalformedJson("body is not valid JSON") from None
    if not isinstance(obj, dict):
        raise MalformedJson("envelope must be a JSON object")
    for name in ENVELOPE_FIELDS:
        if name not in obj:
            raise MissingField(f"envelope is missing {name!r}")
    extras = set(obj) - set(ENVELOPE_FIELDS)
    if extras:
        raise MalformedJson(f"unexpected fields: {sorted(extras)}")
    if not isinstance(obj["payload"], str):
        raise MissingField("payload must be a string")
    return obj


def decode_envelope(text) -> Envelope:
    """Parse and validate one envelope; the field set is closed.

    A bytes body in encode_envelope's layout is read in place, holding
    only the ciphertext beside it.  Any other body is parsed whole: the
    text is dropped once parsed, so base64 decoding holds the payload
    string and the ciphertext.  Both ways accept the same envelopes and
    raise the same errors.
    """
    split = _split_canonical(text) if isinstance(text, (bytes, bytearray)) else None
    if split:
        obj, ciphertext = split
    else:
        obj = _parse(text)
        ciphertext = _decode_payload(obj["payload"])
    env = Envelope(
        device_id=obj["device_id"],
        seq=obj["seq"],
        ts_ms=obj["ts_ms"],
        plaintext_len=obj["plaintext_len"],
        ciphertext=ciphertext,
    )
    _check_envelope(env, obj["cipher"])
    return env
