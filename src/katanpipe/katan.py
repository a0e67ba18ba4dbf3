"""KATAN32 block cipher with one bitsliced core for every width.

The core runs the 254 rounds on 32 words, where word ``b`` carries bit
``b`` of every block in flight: words 0..18 are register L2 and words
19..31 are register L1.  Bitslicing needs no fixed word size, so the
same two functions serve every caller and only the width of ``ones``,
the all-ones word each subkey bit is widened to, differs:

* ``encrypt_block``/``decrypt_block``: one block, words are single bits
  and ``ones = 1``.  The arithmetic is branch-free, so a numpy uint64
  array encrypts elementwise; nothing in this module imports numpy.
* ``encrypt_batch``/``decrypt_batch``: 64 lanes, ``ones = MASK64``.
* The codec's payload path: up to a fixed number of 256-byte chunks per
  call, chunk ``c`` in bits 64c..64c+63 of each word.

Bit conventions, fixed once and used everywhere:

* An 80-bit key is written as 20 hex digits; key bit ``k_0`` is the most
  significant bit of the first digit.
* In a 32-bit block, bit 0 (the LSB) loads register L2 position 0 and
  bit 31 loads L1 position 12.
* Register L1 has 13 bits with feedback taps (12, 7, 8, 5, 3); register
  L2 has 19 bits with taps (18, 7, 12, 10, 8, 3).
"""

from __future__ import annotations

import secrets
import string
from dataclasses import dataclass
from functools import lru_cache
from random import Random

from .errors import LaneOutOfRange, MalformedKey

BLOCK_BITS = 32
KEY_BITS = 80
ROUNDS = 254
LANES = 64
BATCH_WORDS = 32

MASK32 = (1 << 32) - 1
MASK64 = (1 << 64) - 1

_L2_BITS = 19

# Two subkey bits are consumed per round.
_SCHEDULE_BITS = 2 * ROUNDS

# A bitsliced batch is a tuple of 32 words; a bitsliced key is a tuple
# of 80 words that are each all-zeros or all-ones.
BitslicedBatch = tuple
BitslicedKey = tuple


@dataclass(frozen=True)
class Key80:
    """An 80-bit key held as a non-negative integer below 2**80."""

    value: int

    def __post_init__(self):
        if not isinstance(self.value, int) or not 0 <= self.value < (1 << KEY_BITS):
            raise MalformedKey("key value must be an int in [0, 2**80)")

    def bit(self, i: int) -> int:
        """Key bit k_i, with k_0 the most significant bit."""
        return (self.value >> (KEY_BITS - 1 - i)) & 1


def parse_key(text: str) -> Key80:
    """Parse exactly 20 hex digits (surrounding whitespace allowed)."""
    cleaned = text.strip()
    if len(cleaned) != KEY_BITS // 4:
        raise MalformedKey(f"expected 20 hex digits, got {len(cleaned)} characters")
    # int() would also take "0x", a sign, "_" and non-ASCII digits.
    if not all(c in string.hexdigits for c in cleaned):
        raise MalformedKey(f"not valid hex: {cleaned!r}")
    return Key80(int(cleaned, 16))


def format_key(key: Key80) -> str:
    """Render a key as 20 lowercase hex digits, zero padded."""
    return format(key.value, "020x")


def random_key(rng: Random | None = None) -> Key80:
    """Fresh key from ``rng``, or from the OS entropy pool when rng is None."""
    if rng is None:
        return Key80(secrets.randbits(KEY_BITS))
    return Key80(rng.getrandbits(KEY_BITS))


def _generate_ir() -> tuple:
    # 8-bit LFSR, all-ones seed, taps at state bits 7, 6, 4 and 2.
    # The register is stepped first and the constant is the MSB of the
    # state after the step; this reproduces the published sequence
    # 1,1,1,1,1,1,1,0,0,0,...
    state = 0xFF
    out = []
    for _ in range(ROUNDS):
        fb = ((state >> 7) ^ (state >> 6) ^ (state >> 4) ^ (state >> 2)) & 1
        state = ((state << 1) | fb) & 0xFF
        out.append((state >> 7) & 1)
    return tuple(out)


_IR = _generate_ir()


def ir_sequence() -> tuple:
    """The 254 per-round constants used by the L1 feedback function."""
    return _IR


@lru_cache(maxsize=128)
def _expanded_bits(key_value: int) -> tuple:
    sk = [(key_value >> (KEY_BITS - 1 - i)) & 1 for i in range(KEY_BITS)]
    for i in range(KEY_BITS, _SCHEDULE_BITS):
        sk.append(sk[i - 80] ^ sk[i - 61] ^ sk[i - 50] ^ sk[i - 13])
    return tuple(sk)


def expand_key(key: Key80) -> tuple:
    """All 508 subkey bits: k_0..k_79 followed by the LFSR extension."""
    return _expanded_bits(key.value)


@lru_cache(maxsize=128)
def _subkey_words(key_value: int, ones: int) -> tuple:
    """The 508 subkey bits, each widened to ``ones`` or 0."""
    return tuple(ones if bit else 0 for bit in _expanded_bits(key_value))


def _encrypt_words(words, sk) -> list:
    """All 254 rounds on 32 bitsliced words (0..18 are L2, 19..31 are L1)."""
    b = list(words[:_L2_BITS])
    a = list(words[_L2_BITS:])
    for ir, ka, kb in zip(_IR, sk[0::2], sk[1::2]):
        fa = a[12] ^ a[7] ^ (a[8] & a[5]) ^ (a[3] if ir else 0) ^ ka
        fb = b[18] ^ b[7] ^ (b[12] & b[10]) ^ (b[8] & b[3]) ^ kb
        a.pop()
        a.insert(0, fb)
        b.pop()
        b.insert(0, fa)
    return b + a


def _decrypt_words(words, sk) -> list:
    """Inverse of _encrypt_words, running the rounds backwards."""
    b = list(words[:_L2_BITS])
    a = list(words[_L2_BITS:])
    for ir, ka, kb in zip(reversed(_IR), sk[-2::-2], sk[::-2]):
        fb = a.pop(0)
        fa = b.pop(0)
        # The dropped top bits are recoverable because every other tap
        # survives the shift.
        a.append(fa ^ a[7] ^ (a[8] & a[5]) ^ (a[3] if ir else 0) ^ ka)
        b.append(fb ^ b[7] ^ (b[12] & b[10]) ^ (b[8] & b[3]) ^ kb)
    return b + a


def _crypt_block(kernel, block, key: Key80):
    # Nonzero wherever a block is negative or wider than 32 bits; a numpy
    # array gets one such value per element.
    high = block >> BLOCK_BITS
    if (high.any() if hasattr(high, "any") else high):
        raise ValueError("block must fit in 32 bits")
    words = kernel([(block >> b) & 1 for b in range(BLOCK_BITS)],
                   _subkey_words(key.value, 1))
    out = 0
    for b, w in enumerate(words):
        out |= w << b
    return out


def encrypt_block(block, key: Key80):
    """Encrypt one 32-bit block (or a numpy uint64 array, elementwise)."""
    return _crypt_block(_encrypt_words, block, key)


def decrypt_block(block, key: Key80):
    """Inverse of encrypt_block."""
    return _crypt_block(_decrypt_words, block, key)


def broadcast_key(key: Key80) -> BitslicedKey:
    """Spread one key across all 64 lanes: word i is all-ones iff k_i is 1."""
    return tuple(MASK64 if key.bit(i) else 0 for i in range(KEY_BITS))


def _key_value(key: BitslicedKey) -> int:
    if len(key) != KEY_BITS:
        raise MalformedKey(f"bitsliced key needs {KEY_BITS} words, got {len(key)}")
    value = 0
    for w in key:
        if w != 0 and w != MASK64:
            raise MalformedKey("bitsliced key words must be all-zeros or all-ones")
        value = (value << 1) | (w & 1)
    return value


def _check_batch(batch) -> None:
    if len(batch) != BATCH_WORDS:
        raise ValueError(f"batch needs {BATCH_WORDS} words, got {len(batch)}")
    for w in batch:
        if not 0 <= w <= MASK64:
            raise ValueError("batch words must fit in 64 bits")


def encrypt_batch(batch: BitslicedBatch, key: BitslicedKey) -> BitslicedBatch:
    """Encrypt 64 lanes at once.

    ``batch`` is 32 words; word b carries bit b of every lane.  Words
    0..18 are register L2 and words 19..31 are register L1, mirroring
    the scalar load order.
    """
    _check_batch(batch)
    return tuple(_encrypt_words(batch, _subkey_words(_key_value(key), MASK64)))


def decrypt_batch(batch: BitslicedBatch, key: BitslicedKey) -> BitslicedBatch:
    """Inverse of encrypt_batch on the same word layout."""
    _check_batch(batch)
    return tuple(_decrypt_words(batch, _subkey_words(_key_value(key), MASK64)))


def _check_lane(lane: int) -> None:
    if not isinstance(lane, int) or not 0 <= lane < LANES:
        raise LaneOutOfRange(f"lane must be in 0..{LANES - 1}, got {lane}")


def extract_lane(batch: BitslicedBatch, lane: int) -> int:
    """Read lane ``lane`` back out of a batch as a 32-bit block."""
    _check_lane(lane)
    _check_batch(batch)
    block = 0
    for bit in range(BATCH_WORDS):
        block |= ((batch[bit] >> lane) & 1) << bit
    return block


def insert_lane(batch: BitslicedBatch, lane: int, block: int) -> BitslicedBatch:
    """Return a new batch with ``block`` written into lane ``lane``."""
    _check_lane(lane)
    _check_batch(batch)
    if not 0 <= block <= MASK32:
        raise ValueError("block must fit in 32 bits")
    hole = ~(1 << lane) & MASK64
    return tuple((batch[bit] & hole) | (((block >> bit) & 1) << lane)
                 for bit in range(BATCH_WORDS))
