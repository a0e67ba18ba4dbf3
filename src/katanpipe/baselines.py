"""The ciphers the bench times, in one fixed table.

KATAN32 is the cipher this package is about; PRESENT-80 and AES-128 are
the comparison points.  ``CIPHERS`` maps each name to a
CipherDescriptor, so the bench harness can drive any of them without
knowing which one it has.  Keys are opaque at this level: each
descriptor's ``sample_key`` produces whatever object its ``encrypt_one``
expects.

PRESENT is implemented here directly (bit 0 is the least significant
bit throughout).  AES-128 is delegated to the `cryptography` package
rather than re-implemented; it is in the table only when that package
is importable.
"""

from __future__ import annotations

from dataclasses import dataclass
from random import Random
from typing import Any, Callable

from . import katan
from .errors import UnknownCipher
from .katan import Key80

try:
    from cryptography.hazmat.primitives.ciphers import Cipher, algorithms, modes
    _HAVE_AES = True
except ImportError:
    _HAVE_AES = False

PRESENT_ROUNDS = 31

_SBOX = (0xC, 0x5, 0x6, 0xB, 0x9, 0x0, 0xA, 0xD,
         0x3, 0xE, 0xF, 0x8, 0x4, 0x7, 0x1, 0x2)
_SBOX_INV = tuple(_SBOX.index(x) for x in range(16))

# Bit i of the state moves to position 16*i mod 63; bit 63 is fixed.
_PERM = tuple(16 * i % 63 for i in range(63)) + (63,)
_PERM_INV = tuple(_PERM.index(i) for i in range(64))

_MASK64 = (1 << 64) - 1
_MASK76 = (1 << 76) - 1
_MASK19 = (1 << 19) - 1


def present_round_keys(key: int) -> tuple:
    """The 32 round keys for an 80-bit PRESENT key."""
    if not 0 <= key < (1 << 80):
        raise ValueError("PRESENT key must be an int in [0, 2**80)")
    k = key
    out = []
    for i in range(1, PRESENT_ROUNDS + 2):
        out.append(k >> 16)
        k = ((k & _MASK19) << 61) | (k >> 19)
        k = (_SBOX[k >> 76] << 76) | (k & _MASK76)
        k ^= i << 15
    return tuple(out)


def _sbox_layer(state: int, box) -> int:
    out = 0
    for j in range(16):
        out |= box[(state >> (4 * j)) & 0xF] << (4 * j)
    return out


def _perm_layer(state: int, perm) -> int:
    out = 0
    for b in range(64):
        out |= ((state >> b) & 1) << perm[b]
    return out


def present_encrypt(block: int, key: int) -> int:
    """PRESENT-80 on one 64-bit block."""
    rks = present_round_keys(key)
    state = block & _MASK64
    for i in range(PRESENT_ROUNDS):
        state ^= rks[i]
        state = _sbox_layer(state, _SBOX)
        state = _perm_layer(state, _PERM)
    return state ^ rks[PRESENT_ROUNDS]


def present_decrypt(block: int, key: int) -> int:
    """Inverse of present_encrypt."""
    rks = present_round_keys(key)
    state = (block & _MASK64) ^ rks[PRESENT_ROUNDS]
    for i in range(PRESENT_ROUNDS - 1, -1, -1):
        state = _perm_layer(state, _PERM_INV)
        state = _sbox_layer(state, _SBOX_INV)
        state ^= rks[i]
    return state


def _aes_encrypt(block: int, key: bytes) -> int:
    enc = Cipher(algorithms.AES(key), modes.ECB()).encryptor()
    out = enc.update(block.to_bytes(16, "big")) + enc.finalize()
    return int.from_bytes(out, "big")


def _aes_decrypt(block: int, key: bytes) -> int:
    dec = Cipher(algorithms.AES(key), modes.ECB()).decryptor()
    out = dec.update(block.to_bytes(16, "big")) + dec.finalize()
    return int.from_bytes(out, "big")


@dataclass(frozen=True)
class CipherDescriptor:
    """One cipher as the bench harness sees it."""

    name: str
    block_bits: int
    encrypt_one: Callable[[Any, Any], Any]
    decrypt_one: Callable[[Any, Any], Any]
    sample_key: Callable[[Random], Any]

    @property
    def block_bytes(self) -> int:
        return self.block_bits // 8


# Every cipher the bench can time, by name, in report order.
CIPHERS = {
    "KATAN32": CipherDescriptor(
        name="KATAN32", block_bits=32,
        encrypt_one=katan.encrypt_block, decrypt_one=katan.decrypt_block,
        sample_key=lambda rng: Key80(rng.getrandbits(80))),
    "PRESENT": CipherDescriptor(
        name="PRESENT", block_bits=64,
        encrypt_one=present_encrypt, decrypt_one=present_decrypt,
        sample_key=lambda rng: rng.getrandbits(80)),
}
if _HAVE_AES:
    CIPHERS["AES-128"] = CipherDescriptor(
        name="AES-128", block_bits=128,
        encrypt_one=_aes_encrypt, decrypt_one=_aes_decrypt,
        sample_key=lambda rng: rng.getrandbits(128).to_bytes(16, "big"))


def get_cipher(name: str) -> CipherDescriptor:
    """Look a cipher up by name."""
    try:
        return CIPHERS[name]
    except KeyError:
        known = ", ".join(sorted(CIPHERS))
        raise UnknownCipher(f"unknown cipher {name!r} (known: {known})") from None
