import random

import numpy as np
import pytest

from katanpipe.errors import LaneOutOfRange, MalformedKey
from katanpipe.katan import (
    BATCH_WORDS,
    KEY_BITS,
    LANES,
    MASK64,
    ROUNDS,
    Key80,
    broadcast_key,
    decrypt_batch,
    decrypt_block,
    encrypt_batch,
    encrypt_block,
    expand_key,
    extract_lane,
    format_key,
    insert_lane,
    ir_sequence,
    parse_key,
    random_key,
)
from reference_impls import IR_TABLE, katan_ref_encrypt

KEY_ZERO = Key80(0)
KEY_ONES = Key80((1 << 80) - 1)


class TestKeyHandling:
    def test_parse_format_round_trip(self):
        rng = random.Random(11)
        for _ in range(50):
            key = Key80(rng.getrandbits(80))
            assert parse_key(format_key(key)) == key

    def test_parse_tolerates_whitespace_and_case(self):
        assert parse_key("  00112233445566778899\n").value == 0x00112233445566778899
        assert parse_key("AbCdEf0123456789AbCd") == parse_key("abcdef0123456789abcd")

    def test_format_is_zero_padded(self):
        assert format_key(Key80(1)) == "00000000000000000001"
        assert len(format_key(KEY_ONES)) == 20

    def test_bit_zero_is_most_significant(self):
        key = parse_key("80000000000000000000")
        assert key.bit(0) == 1
        assert all(key.bit(i) == 0 for i in range(1, KEY_BITS))
        # k_7 is the LSB of the second hex digit
        key = parse_key("01000000000000000000")
        assert key.bit(7) == 1
        assert key.bit(79) == 0
        assert parse_key("00000000000000000001").bit(79) == 1

    @pytest.mark.parametrize("text", [
        "", "0123", "0" * 19, "0" * 21, "0" * 20 + "0", "xyzzy" * 4, "0g" + "0" * 18,
        # int(text, 16) reads all of these.
        "0x" + "0" * 17 + "1", "0X" + "f" * 18, "+" + "0" * 19, "-" + "0" * 19,
        "0000_0000_0000_00001", "\uff10" * 20,
    ])
    def test_parse_rejects_malformed(self, text):
        with pytest.raises(MalformedKey):
            parse_key(text)

    @pytest.mark.parametrize("value", [-1, 1 << 80, 2 ** 81])
    def test_key_value_range(self, value):
        with pytest.raises(MalformedKey):
            Key80(value)

    def test_random_key_seeded_is_deterministic(self):
        assert random_key(random.Random(3)) == random_key(random.Random(3))
        assert random_key() != random_key()


class TestRoundConstants:
    def test_full_published_table(self):
        assert ir_sequence() == IR_TABLE

    def test_length_and_head(self):
        seq = ir_sequence()
        assert len(seq) == ROUNDS
        assert seq[:10] == (1, 1, 1, 1, 1, 1, 1, 0, 0, 0)


class TestKeySchedule:
    def test_zero_key_expands_to_zero(self):
        assert set(expand_key(KEY_ZERO)) == {0}
        assert len(expand_key(KEY_ZERO)) == 508

    def test_first_80_bits_echo_the_key(self):
        rng = random.Random(17)
        for _ in range(20):
            key = Key80(rng.getrandbits(80))
            assert expand_key(key)[:80] == tuple(key.bit(i) for i in range(80))

    def test_recurrence(self):
        rng = random.Random(19)
        for _ in range(20):
            sk = expand_key(Key80(rng.getrandbits(80)))
            for i in range(80, 508):
                assert sk[i] == sk[i - 80] ^ sk[i - 61] ^ sk[i - 50] ^ sk[i - 13]

    def test_known_schedule(self):
        # frozen from the compiled reference implementation ("ks" command)
        expected = (
            "00000000000100010010001000110011010001000101010101100110011101111000100010011001"
            "10000100010100100111101110010110010010010111110100001000010001110111011011010100"
            "01111100000111001001001010001011010000101010100110110100101011100001011111100010"
            "10000111111110001101010100101011110010110111111111110001101110111001000010110010"
            "01011001111010111011110111100111010011011011010110001111111111111100111101101000"
            "00011110111111000100010001010110111000110010011011101010001101110111100000100100"
            "0100010110100000110010101110"
        )
        got = "".join(str(b) for b in expand_key(parse_key("00112233445566778899")))
        assert got == expected

    def test_matches_bit_list_reference(self):
        rng = random.Random(23)
        from reference_impls import katan_subkey_bits
        for _ in range(10):
            value = rng.getrandbits(80)
            assert list(expand_key(Key80(value))) == katan_subkey_bits(value)


# Golden vectors frozen from an independent bitsliced C implementation.
GOLDEN_VECTORS = [
    ("ffffffffffffffffffff", 0x00000000, 0x7E1FF945),
    ("00000000000000000000", 0xFFFFFFFF, 0x432E61DA),
    ("00000000000000000000", 0x00000000, 0x00000000),
    ("ffffffffffffffffffff", 0xFFFFFFFF, 0x09734C61),
    ("471def95bfd2f0beea5c", 0xD585F434, 0xF09DB2FE),
    ("bb2a398b5e5a457e8f3b", 0x422D57F3, 0x11998927),
    ("f78823f884fe8e0335ca", 0x3C7062FD, 0x19269BC8),
    ("06070aeda7013b5c4de3", 0x5215BD8A, 0xF5B4871D),
    ("375b3a97f2f80c6e7600", 0xFA285F64, 0x1B34C86B),
    ("da1a054a8fb988964e47", 0xEF7F9A84, 0xEC5BA576),
    ("fac6b45fcb278aa7fae4", 0xDCD19E62, 0x37A742BE),
    ("93536ba1e2ee3ac9567c", 0x9130580F, 0x0D822319),
    ("07ad780c914ff6581f8a", 0xA7E19884, 0x66FBE782),
    ("891f84a96d7e7dec74a1", 0x517FB164, 0xB2FA3F86),
]


class TestScalar:
    @pytest.mark.parametrize("key_hex,plain,cipher", GOLDEN_VECTORS)
    def test_golden_encrypt(self, key_hex, plain, cipher):
        assert encrypt_block(plain, parse_key(key_hex)) == cipher

    @pytest.mark.parametrize("key_hex,plain,cipher", GOLDEN_VECTORS)
    def test_golden_decrypt(self, key_hex, plain, cipher):
        assert decrypt_block(cipher, parse_key(key_hex)) == plain

    def test_decrypt_inverts_encrypt(self):
        rng = random.Random(29)
        for _ in range(200):
            key = Key80(rng.getrandbits(80))
            block = rng.getrandbits(32)
            assert decrypt_block(encrypt_block(block, key), key) == block

    def test_matches_bit_list_reference(self):
        rng = random.Random(31)
        for _ in range(40):
            key_value = rng.getrandbits(80)
            block = rng.getrandbits(32)
            assert (encrypt_block(block, Key80(key_value))
                    == katan_ref_encrypt(block, key_value))

    def test_published_katan64_vector_grounds_the_reference(self):
        # all-ones key, zero plaintext, from the designers' test vectors
        assert katan_ref_encrypt(0, (1 << 80) - 1, version=64) == 0x21F2E99C0FAB828A

    def test_fixed_key_is_a_bijection(self):
        rng = random.Random(37)
        key = Key80(rng.getrandbits(80))
        blocks = {rng.getrandbits(32) for _ in range(1000)}
        cts = {encrypt_block(b, key) for b in blocks}
        assert len(cts) == len(blocks)

    def test_rejects_out_of_range_blocks(self):
        with pytest.raises(ValueError):
            encrypt_block(1 << 32, KEY_ZERO)
        with pytest.raises(ValueError):
            decrypt_block(-1, KEY_ZERO)
        # numpy input is checked elementwise, not masked to its low 32 bits.
        for arr in (np.array([1, 2**32 + 1, 2**63 + 1], dtype=np.uint64),
                    np.array([-1])):
            for crypt in (encrypt_block, decrypt_block):
                with pytest.raises(ValueError, match="fit in 32 bits"):
                    crypt(arr, KEY_ZERO)

    def test_numpy_elementwise_agrees_with_int_path(self):
        rng = random.Random(41)
        key = Key80(rng.getrandbits(80))
        blocks = [rng.getrandbits(32) for _ in range(64)]
        arr = np.array(blocks, dtype=np.uint64)
        enc = encrypt_block(arr, key)
        assert [int(x) for x in enc] == [encrypt_block(b, key) for b in blocks]
        assert (decrypt_block(enc, key) == arr).all()


class TestBitsliced:
    def test_broadcast_key_words(self):
        kw = broadcast_key(parse_key("80000000000000000001"))
        assert len(kw) == KEY_BITS
        assert kw[0] == MASK64 and kw[79] == MASK64
        assert set(kw[1:79]) == {0}

    def test_lanes_match_scalar(self):
        rng = random.Random(43)
        for _ in range(10):
            key = Key80(rng.getrandbits(80))
            kw = broadcast_key(key)
            batch = tuple(rng.getrandbits(64) for _ in range(BATCH_WORDS))
            out = encrypt_batch(batch, kw)
            for lane in range(LANES):
                expected = encrypt_block(extract_lane(batch, lane), key)
                assert extract_lane(out, lane) == expected

    def test_decrypt_batch_inverts(self):
        rng = random.Random(47)
        for _ in range(20):
            key_words = broadcast_key(Key80(rng.getrandbits(80)))
            batch = tuple(rng.getrandbits(64) for _ in range(BATCH_WORDS))
            assert decrypt_batch(encrypt_batch(batch, key_words), key_words) == batch

    def test_identical_lanes_stay_identical(self):
        rng = random.Random(53)
        key = Key80(rng.getrandbits(80))
        block = rng.getrandbits(32)
        batch = tuple(MASK64 if (block >> b) & 1 else 0 for b in range(BATCH_WORDS))
        out = encrypt_batch(batch, broadcast_key(key))
        expected = encrypt_block(block, key)
        for lane in (0, 1, 31, 63):
            assert extract_lane(out, lane) == expected

    def test_extract_insert_round_trip(self):
        rng = random.Random(59)
        batch = tuple(rng.getrandbits(64) for _ in range(BATCH_WORDS))
        for lane in (0, 7, 63):
            block = rng.getrandbits(32)
            updated = insert_lane(batch, lane, block)
            assert extract_lane(updated, lane) == block
            # every other lane is untouched
            for other in range(LANES):
                if other != lane:
                    assert extract_lane(updated, other) == extract_lane(batch, other)

    def test_empty_batch_fills_lane_by_lane(self):
        rng = random.Random(61)
        blocks = [rng.getrandbits(32) for _ in range(LANES)]
        batch = (0,) * BATCH_WORDS
        for lane, block in enumerate(blocks):
            batch = insert_lane(batch, lane, block)
        assert [extract_lane(batch, lane) for lane in range(LANES)] == blocks

    @pytest.mark.parametrize("block", [-1, 1 << 32])
    def test_insert_lane_checks_the_block(self, block):
        with pytest.raises(ValueError, match="32 bits"):
            insert_lane((0,) * BATCH_WORDS, 0, block)

    @pytest.mark.parametrize("lane", [-1, 64, 1000])
    def test_lane_bounds(self, lane):
        batch = (0,) * BATCH_WORDS
        with pytest.raises(LaneOutOfRange):
            extract_lane(batch, lane)
        with pytest.raises(LaneOutOfRange):
            insert_lane(batch, lane, 0)

    def test_batch_shape_is_checked(self):
        kw = broadcast_key(KEY_ZERO)
        with pytest.raises(ValueError):
            encrypt_batch((0,) * 31, kw)
        with pytest.raises(ValueError):
            decrypt_batch((0,) * 33, kw)
        with pytest.raises(ValueError):
            encrypt_batch((0,) * 31 + (1 << 64,), kw)

    def test_key_words_are_checked(self):
        batch = (0,) * BATCH_WORDS
        with pytest.raises(MalformedKey):
            encrypt_batch(batch, (0,) * 79)
        with pytest.raises(MalformedKey):
            encrypt_batch(batch, (0,) * 79 + (5,))
