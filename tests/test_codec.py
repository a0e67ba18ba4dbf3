import base64
import binascii
import hashlib
import itertools
import json
import random
import re
import struct
import sys
import tracemalloc

import pytest

from katanpipe import errors
from katanpipe.codec import (
    CHUNK_BYTES,
    ENVELOPE_FIELDS,
    SLAB_CHUNKS,
    Envelope,
    _decode_payload,
    _split_canonical,
    decode_envelope,
    decrypt_payload,
    encode_envelope,
    encrypt_payload,
)
from katanpipe.katan import Key80, encrypt_block, extract_lane, parse_key
from katanpipe.transport import BlobStore, ingest


def make_key(seed):
    return Key80(random.Random(seed).getrandbits(80))


class TestPayloadRoundTrip:
    @pytest.mark.parametrize("n", [1, 2, 255, 256, 257, 511, 512, 513, 1000, 4096])
    def test_fixed_lengths(self, n):
        key = make_key(n)
        data = random.Random(n).randbytes(n)
        ciphertext, plaintext_len = encrypt_payload(data, key)
        assert plaintext_len == n
        assert len(ciphertext) == -(-n // CHUNK_BYTES) * CHUNK_BYTES
        assert decrypt_payload(ciphertext, plaintext_len, key) == data

    def test_random_lengths(self):
        rng = random.Random(97)
        key = Key80(rng.getrandbits(80))
        for _ in range(25):
            data = rng.randbytes(rng.randrange(1, 2048))
            ciphertext, plaintext_len = encrypt_payload(data, key)
            assert decrypt_payload(ciphertext, plaintext_len, key) == data

    def test_trailing_zeros_survive(self):
        key = make_key(101)
        for data in (b"\x00", b"x\x00\x00", b"\x00" * 256, b"ab" + b"\x00" * 300):
            ciphertext, plaintext_len = encrypt_payload(data, key)
            assert decrypt_payload(ciphertext, plaintext_len, key) == data

    def test_multi_chunk_equals_chunkwise_encryption(self):
        # per-chunk senders rely on chunks encrypting independently
        rng = random.Random(103)
        key = Key80(rng.getrandbits(80))
        data = rng.randbytes(700)
        whole, _ = encrypt_payload(data, key)
        parts = [encrypt_payload(data[i:i + CHUNK_BYTES], key)[0]
                 for i in range(0, len(data), CHUNK_BYTES)]
        assert whole == b"".join(parts)

    def test_ciphertext_is_lanewise_scalar_encryption(self):
        rng = random.Random(107)
        key = Key80(rng.getrandbits(80))
        data = rng.randbytes(CHUNK_BYTES)
        ciphertext, _ = encrypt_payload(data, key)
        pt_words = struct.unpack("<32Q", data)
        ct_words = struct.unpack("<32Q", ciphertext)
        for lane in range(64):
            assert (extract_lane(ct_words, lane)
                    == encrypt_block(extract_lane(pt_words, lane), key))

    def test_ciphertext_differs_from_plaintext(self):
        key = make_key(109)
        data = random.Random(109).randbytes(512)
        ciphertext, _ = encrypt_payload(data, key)
        assert ciphertext != data

    def test_empty_payload(self):
        with pytest.raises(errors.EmptyInput):
            encrypt_payload(b"", make_key(1))

    def test_decrypt_rejects_bad_ciphertext_length(self):
        key = make_key(113)
        for n in (0, 1, 255, 257, 511):
            with pytest.raises(errors.BadLengthInvariant):
                decrypt_payload(b"\x00" * n, 1, key)

    def test_decrypt_rejects_inconsistent_plaintext_len(self):
        key = make_key(127)
        ciphertext, _ = encrypt_payload(b"\x01" * 300, key)  # 2 chunks
        for bad in (-1, 0, 256, 513, 10_000):
            with pytest.raises(errors.BadPlaintextLen):
                decrypt_payload(ciphertext, bad, key)


def lanes(buf: bytes) -> list:
    """Every 32-bit block of a chunked buffer, chunk by chunk, lane by lane."""
    words = struct.unpack(f"<{len(buf) // 8}Q", buf)
    return [extract_lane(words[start:start + 32], lane)
            for start in range(0, len(words), 32) for lane in range(64)]


# SHA-256 of encrypt_payload(random.Random(f"golden-{n}").randbytes(n),
# GOLDEN_KEY).  Computed at commit 6d6906f, with the codec that still ran
# one 64-lane batch per chunk, before the payload path went wide.
GOLDEN_KEY = parse_key("0f1e2d3c4b5a69788796")
GOLDEN_DIGESTS = {
    1: "22d85a01556cc4413fb56d603dfbeeaa93c5b403f5d5045a21d928aa697b0bf4",
    255: "313251208900dfd3167f9404a9f8173a416fd8a2eb1761e2122dcf349951881c",
    256: "df2a910d35c97a5b106e1ffa7cdc975fd9f10c578b96f30ab226dd41cef87ec8",
    257: "215c8a4c48b5eb26bd90f0ebf06160c71ce69789251bfb4103f346656a29905b",
    65539: "3571ef7662dedeb3f1865bbfe29d383dccdfbf23c8d9d71ecb871cdde76bc0f2",
    1 << 20: "509b3fdc7c2bc4d7b61f8a686413b50f713afde464f3fb5b08fafc274201702f",
}


class TestWidePayloadPath:
    """The payload path runs up to SLAB_CHUNKS chunks per kernel call."""

    # One chunk takes the struct path, three a short memoryview slab, and
    # SLAB_CHUNKS + 1 a full slab and then a one-chunk one.
    @pytest.mark.parametrize("chunks", [1, 3, SLAB_CHUNKS + 1])
    def test_lanes_match_compiled_reference_across_the_width_cap(self, katan_oracle,
                                                                 chunks):
        rng = random.Random(157)
        key = Key80(rng.getrandbits(80))
        data = rng.randbytes(chunks * CHUNK_BYTES)
        ciphertext, _ = encrypt_payload(data, key)
        expected = [int(x, 16) for x in katan_oracle(
            [f"enc {key.value:020x} {block:08x}" for block in lanes(data)])]
        assert lanes(ciphertext) == expected

    @pytest.mark.parametrize("chunks", [1, 3, SLAB_CHUNKS + 1])
    def test_decrypt_lanes_match_compiled_reference_across_the_width_cap(
            self, katan_oracle, chunks):
        rng = random.Random(163)
        key = Key80(rng.getrandbits(80))
        ciphertext = rng.randbytes(chunks * CHUNK_BYTES)
        plain = decrypt_payload(ciphertext, len(ciphertext), key)
        expected = [int(x, 16) for x in katan_oracle(
            [f"dec {key.value:020x} {block:08x}" for block in lanes(ciphertext)])]
        assert lanes(plain) == expected

    @pytest.mark.parametrize("n", sorted(GOLDEN_DIGESTS))
    def test_ciphertext_digest_is_unchanged(self, n):
        data = random.Random(f"golden-{n}").randbytes(n)
        ciphertext, plaintext_len = encrypt_payload(data, GOLDEN_KEY)
        assert hashlib.sha256(ciphertext).hexdigest() == GOLDEN_DIGESTS[n]
        assert decrypt_payload(ciphertext, plaintext_len, GOLDEN_KEY) == data

    def test_peak_memory_stays_flat_at_1_mib(self):
        # The per-chunk codec peaked at 2.6 MiB encrypting 1 MiB (3.0 MiB
        # decrypting).  The width cap keeps the wide path below that: run
        # as one 4096-chunk call, 1 MiB peaked at 3.1 MiB.
        key = make_key(167)
        data = random.Random(167).randbytes(1 << 20)
        ciphertext, plaintext_len = encrypt_payload(data, key)
        # Build the decrypt kernel too, so its one-time compile is not
        # traced when this test runs first.
        decrypt_payload(ciphertext[:CHUNK_BYTES], CHUNK_BYTES, key)
        tracemalloc.start()
        try:
            encrypt_payload(data, key)
            encrypt_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            decrypt_payload(ciphertext, plaintext_len, key)
            decrypt_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        limit = 2.6 * (1 << 20)
        assert encrypt_peak <= limit and decrypt_peak <= limit

    def test_ingest_peak_at_1_mib(self, tmp_path):
        # Beside the 1.33 MiB body it is given, ingest holds the 1 MiB
        # ciphertext and little else (1.00 MiB on 3.10 and 3.11): only the
        # fields before the payload are parsed, and base64 is decoded from
        # the body in place.  Parsing the whole text would add the text
        # and the payload string (2.67 MiB).
        key = make_key(173)
        ciphertext, plaintext_len = encrypt_payload(
            random.Random(173).randbytes(1 << 20), key)
        body = encode_envelope(
            Envelope("dev", 0, 0, plaintext_len, ciphertext)).encode("ascii")
        del ciphertext
        store = BlobStore(tmp_path)
        tracemalloc.start()
        try:
            ingest(store, body)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
            store.close()
        assert peak <= 1.25 * (1 << 20)


class TestEnvelope:
    def build(self, seed=131, n=300):
        rng = random.Random(seed)
        key = Key80(rng.getrandbits(80))
        data = rng.randbytes(n)
        ciphertext, plaintext_len = encrypt_payload(data, key)
        env = Envelope(device_id="sensor-7", seq=3, ts_ms=1_723_900_000_000,
                       plaintext_len=plaintext_len, ciphertext=ciphertext)
        return env, key, data

    def test_round_trip(self):
        env, _, _ = self.build()
        assert decode_envelope(encode_envelope(env)) == env

    def test_decode_accepts_bytes(self):
        env, _, _ = self.build()
        assert decode_envelope(encode_envelope(env).encode()) == env

    def test_field_set_and_order(self):
        env, _, _ = self.build()
        obj = json.loads(encode_envelope(env))
        assert tuple(obj) == ENVELOPE_FIELDS

    def test_payload_is_standard_base64(self):
        env, _, _ = self.build(n=256)
        obj = json.loads(encode_envelope(env))
        assert len(obj["payload"]) == 344  # 256 bytes -> 344 chars with padding
        assert base64.b64decode(obj["payload"], validate=True) == env.ciphertext

    def test_full_pipeline_through_envelope(self):
        env, key, data = self.build(seed=137, n=612)
        back = decode_envelope(encode_envelope(env))
        assert decrypt_payload(back.ciphertext, back.plaintext_len, key) == data

    def _valid_obj(self):
        env, _, _ = self.build()
        return json.loads(encode_envelope(env))

    def test_not_json(self):
        with pytest.raises(errors.MalformedJson):
            decode_envelope("{nope")

    def test_not_an_object(self):
        with pytest.raises(errors.MalformedJson):
            decode_envelope('["device_id"]')

    def test_not_utf8(self):
        with pytest.raises(errors.MalformedJson):
            decode_envelope(b"\xff\xfe{}")

    @pytest.mark.parametrize("field", ENVELOPE_FIELDS)
    def test_each_field_is_required(self, field):
        obj = self._valid_obj()
        del obj[field]
        with pytest.raises(errors.MissingField):
            decode_envelope(json.dumps(obj))

    def test_unknown_field_rejected(self):
        obj = self._valid_obj()
        obj["hmac"] = "00"
        with pytest.raises(errors.MalformedJson):
            decode_envelope(json.dumps(obj))

    def test_bad_base64(self):
        obj = self._valid_obj()
        obj["payload"] = "!not base64!"
        with pytest.raises(errors.BadBase64):
            decode_envelope(json.dumps(obj))
        obj["payload"] = 123
        with pytest.raises(errors.MissingField):
            decode_envelope(json.dumps(obj))

    @staticmethod
    def strict_base64(s):
        """Python 3.11's a2b_base64(strict_mode=True) acceptance: data
        characters then only "=", as many as the last group needs, or any
        nonzero number after whole groups of data."""
        m = re.fullmatch(r"[A-Za-z0-9+/]*(=*)", s)
        if not m:
            return False
        data, pad = m.start(1), len(s) - m.start(1)
        return ((data % 4 == 0 and (pad == 0 or data > 0))
                or (data % 4, pad) in ((2, 2), (3, 1)))

    def test_payload_decoding_matches_strict_b64decode(self):
        # Every string of up to 5 characters over an alphabet of base64
        # digits, padding, whitespace, a URL-safe digit and non-ASCII, as
        # a str and as a view of its UTF-8 bytes.  On 3.10
        # b64decode(validate=True) also accepts excess padding, so the
        # reference is the 3.11 rule, checked against b64decode on 3.11+.
        alphabet = "A/=+a\n -é"
        tried = accepted = 0
        for length in range(6):
            for chars in itertools.product(alphabet, repeat=length):
                s = "".join(chars)
                tried += 1
                if sys.version_info >= (3, 11):
                    try:
                        base64.b64decode(s, validate=True)
                    except (binascii.Error, ValueError):
                        assert not self.strict_base64(s)
                    else:
                        assert self.strict_base64(s)
                for given in (s, memoryview(s.encode())):
                    if self.strict_base64(s):
                        assert _decode_payload(given) == binascii.a2b_base64(s)
                    else:
                        with pytest.raises(errors.BadBase64):
                            _decode_payload(given)
                accepted += self.strict_base64(s)
        assert (tried, accepted) == (66_430, 593)

    def test_payload_must_be_whole_chunks(self):
        obj = self._valid_obj()
        obj["payload"] = base64.b64encode(b"abc").decode()
        with pytest.raises(errors.BadLengthInvariant):
            decode_envelope(json.dumps(obj))
        obj["payload"] = ""
        with pytest.raises(errors.BadLengthInvariant):
            decode_envelope(json.dumps(obj))

    def test_unknown_cipher(self):
        obj = self._valid_obj()
        obj["cipher"] = "ROT13"
        with pytest.raises(errors.UnknownCipher):
            decode_envelope(json.dumps(obj))

    def test_cipher_must_be_a_string(self):
        obj = self._valid_obj()
        obj["cipher"] = 5
        with pytest.raises(errors.MissingField):
            decode_envelope(json.dumps(obj))

    def test_plaintext_len_consistency(self):
        obj = self._valid_obj()  # two chunks: valid range is 257..512
        for bad in (-5, 0, 256, 513):
            wrong = dict(obj, plaintext_len=bad)
            with pytest.raises((errors.BadPlaintextLen, errors.MissingField)):
                decode_envelope(json.dumps(wrong))

    def test_integer_fields_reject_bool_and_str(self):
        obj = self._valid_obj()
        for field in ("seq", "ts_ms", "plaintext_len"):
            for bad in (True, "7", -1, 1.5):
                wrong = dict(obj, **{field: bad})
                with pytest.raises(errors.MissingField):
                    decode_envelope(json.dumps(wrong))

    def test_device_id_must_be_nonempty_string(self):
        obj = self._valid_obj()
        for bad in ("", 7, None):
            wrong = dict(obj, device_id=bad)
            with pytest.raises(errors.MissingField):
                decode_envelope(json.dumps(wrong))

    def test_encode_validates_too(self):
        env, _, _ = self.build()
        bad = Envelope(env.device_id, env.seq, env.ts_ms,
                       env.plaintext_len, env.ciphertext[:-1])
        with pytest.raises(errors.BadLengthInvariant):
            encode_envelope(bad)


def outcome(decode, body):
    """What ``decode(body)`` gives: an Envelope, or its error's type and text."""
    try:
        return decode(body)
    except errors.KatanPipeError as exc:
        return type(exc), str(exc)


def full_parse(body: bytes):
    """decode_envelope on the text of ``body``, which a str always takes."""
    try:
        text = body.decode("utf-8")
    except UnicodeDecodeError:
        raise errors.MalformedJson("body is not valid UTF-8") from None
    return decode_envelope(text)


class TestInPlaceDecoding:
    """A bytes body laid out as encode_envelope writes it is decoded in
    place; every body, in that layout or not, must decode exactly as the
    full parse of its text does."""

    ENV = Envelope('dev, "payload": "x', 4, 5, 700,
                   encrypt_payload(random.Random(197).randbytes(700), make_key(197))[0])
    TEXT = encode_envelope(ENV)
    PAYLOAD = json.loads(TEXT)["payload"]
    HEAD = TEXT[:TEXT.rindex(', "payload": "')]

    NAMED = {
        # encode_envelope escapes the quotes of the device_id's marker.
        "marker-in-device-id": (TEXT, ENV),
        "duplicate-payload": (f'{HEAD}, "payload": "AAAA", "payload": "{PAYLOAD}"}}', ENV),
        "escaped-slash": (TEXT.replace("/", "\\/"), ENV),
        "whitespace-after-brace": (TEXT + " \n", ENV),
        "empty-head": (f'{{, "payload": "{PAYLOAD}"}}', errors.MalformedJson),
        "compact-separators": (json.dumps(json.loads(TEXT), separators=(",", ":")), ENV),
        "payload-first": (f'{{"payload": "{PAYLOAD}", {HEAD[1:]}}}', ENV),
        "unterminated-payload": (HEAD + ', "payload": "}', errors.MalformedJson),
        "excess-padding": (HEAD + ', "payload": "AAA=="}', errors.BadBase64),
    }

    def test_canonical_body_is_split_in_place(self):
        head, ciphertext = _split_canonical(self.TEXT.encode("ascii"))
        assert ciphertext == self.ENV.ciphertext
        assert tuple(head) == ENVELOPE_FIELDS[:-1]
        assert self.TEXT.count(', "payload": "') == 1 and "/" in self.PAYLOAD

    @pytest.mark.parametrize("name", NAMED)
    def test_named_bodies_match_the_full_parse(self, name):
        text, expected = self.NAMED[name]
        body = text.encode("utf-8")
        got = outcome(decode_envelope, body)
        assert got == outcome(decode_envelope, bytearray(body)) == outcome(full_parse, body)
        assert got == expected if isinstance(got, Envelope) else got[0] is expected

    def test_mutated_bodies_match_the_full_parse(self):
        # The mutations of the server fuzz test, applied to the bodies
        # without their request line and headers.
        from test_fuzz import delete, duplicate, flip, grow_int, nest
        rng = random.Random(2011)
        key = make_key(2011)
        bodies = []
        for i, size in enumerate([1, 100, 256, 700, 5000]):
            ciphertext, plaintext_len = encrypt_payload(rng.randbytes(size), key)
            bodies.append(encode_envelope(
                Envelope(f"dev-{i}", i, 1_700_000_000_000 + i, plaintext_len,
                         ciphertext)).encode("ascii"))
        split = accepted = 0
        for _ in range(5000):
            mutation = rng.choice([flip, delete, duplicate, grow_int, nest])
            body = mutation(rng, rng.choice(bodies)).split(b"\r\n\r\n", 1)[1]
            expected = outcome(full_parse, body)
            assert outcome(decode_envelope, body) == expected, body
            assert outcome(decode_envelope, bytearray(body)) == expected, body
            split += _split_canonical(body) is not None
            accepted += isinstance(expected, Envelope)
        # Both paths ran, and both accepted some bodies and rejected others.
        assert 0 < accepted < 5000 and 0 < split < 5000
