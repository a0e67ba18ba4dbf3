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

decode_envelope holds at most two payload-sized copies beside the body
it is given: the text and the payload string while JSON is parsed, then
the payload string and the ciphertext while base64 is decoded.  On
Python 3.10 base64 first copies the payload string to ASCII bytes, so
it holds one more there.
"""

from __future__ import annotations

import base64
import binascii
import json
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
from .katan import BATCH_WORDS, Key80, _decrypt_words, _encrypt_words, _subkey_words

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


def _crypt_slabs(kernel, data, key: Key80, keep: int) -> bytes:
    """Run ``kernel`` over ``data`` a slab of up to SLAB_CHUNKS chunks at
    a time and return the first ``keep`` bytes of the result.

    Word b of an n-chunk slab is one int holding word b of chunk c in
    bits 64c..64c+63.  A one-chunk slab is read and written with one
    struct call; wider slabs step over raw 8-byte groups with "Q" casts,
    and from_bytes/to_bytes fix little-endian.  Either way the host's
    byte order never enters.
    """
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
    return _crypt_slabs(_encrypt_words, data, key, padded), len(data)


def decrypt_payload(ciphertext: bytes, plaintext_len: int, key: Key80) -> bytes:
    """Decrypt and trim back to exactly ``plaintext_len`` bytes."""
    _check_lengths(len(ciphertext), plaintext_len)
    return _crypt_slabs(_decrypt_words, ciphertext, key, plaintext_len)


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
    def _a2b_strict(payload: str) -> bytes:
        # What base64.b64decode(payload, validate=True) runs, minus its
        # copy of the str to ASCII bytes: a2b_base64 reads an ASCII str
        # in place.
        return binascii.a2b_base64(payload, strict_mode=True)
else:
    def _a2b_strict(payload: str) -> bytes:
        # 3.10 has no strict_mode.
        return base64.b64decode(payload, validate=True)


def _decode_payload(payload: str) -> bytes:
    """Strict standard base64 (with padding) of ``payload``, or BadBase64."""
    try:
        return _a2b_strict(payload)
    except (binascii.Error, ValueError):
        # ValueError: a str with a non-ASCII character.
        raise BadBase64("payload is not valid base64") from None


def decode_envelope(text) -> Envelope:
    """Parse and validate one envelope; the field set is closed.

    The text is dropped once parsed (for bytes, that frees the str decoded
    from them), so base64 decoding holds only the payload string and the
    ciphertext, plus an ASCII copy of the string on Python 3.10.
    """
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
    del text
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
    env = Envelope(
        device_id=obj["device_id"],
        seq=obj["seq"],
        ts_ms=obj["ts_ms"],
        plaintext_len=obj["plaintext_len"],
        ciphertext=_decode_payload(obj["payload"]),
    )
    _check_envelope(env, obj["cipher"])
    return env
