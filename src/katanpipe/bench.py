"""Throughput measurement and reporting, and the ciphers it times.

Rates are in bits per second: a sample of B bytes over t seconds has
bps = 8*B/t, and Kb/s divides that by 1000 (decimal kilobit, not 1024).
Reported rates are rounded to two decimals, half away from zero.  The
send-rate helper answers "how many fixed-size chunks per second does a
target line rate correspond to".

A ThroughputSample needs n_bytes >= 0 and a finite elapsed_s > 0, and a
BenchReport at least one sample; each type checks this when built.

KATAN32 is the cipher this package is about; PRESENT-80 and AES-128 are
the comparison points.  ``CIPHERS`` maps each name to a
CipherDescriptor, so ``measure_cipher`` can drive any of them without
knowing which one it has; each descriptor's ``sample_key`` produces
whatever key object its ``encrypt_one`` expects.  PRESENT is implemented
here directly (bit 0 is the least significant bit throughout).  AES-128
is delegated to the `cryptography` package rather than re-implemented;
it is in the table only when that package is importable.
"""

from __future__ import annotations

import math
import platform
import re
import time
from dataclasses import dataclass
from decimal import ROUND_HALF_UP, Decimal
from functools import lru_cache
from random import Random
from typing import Any, Callable

from .codec import CIPHER, encrypt_payload
from .errors import (
    BadLength,
    EmptySamples,
    NonPositiveElapsed,
    NonPositiveInput,
    UnknownCipher,
)
from .katan import Key80, encrypt_block, random_key
from .transport import send_payload

try:
    from cryptography.hazmat.primitives.ciphers import Cipher, algorithms, modes
    _HAVE_AES = True
except ImportError:
    _HAVE_AES = False

CSV_HEADER = "bytes,bits,elapsed_s,bps,kbps"
TABLE5_CSV_HEADER = "bytes,ms"
# [0-9], not \d: in a str, \d also matches non-ASCII digits.
_TABLE5_ROW = re.compile(r"([0-9]+)\s*,\s*([0-9]+(?:\.[0-9]+)?)")


def round2(value: float) -> float:
    """Round to two decimals, half away from zero."""
    return float(Decimal(repr(float(value))).quantize(
        Decimal("0.01"), rounding=ROUND_HALF_UP))


@dataclass(frozen=True)
class ThroughputSample:
    """One timed transfer of n_bytes bytes over elapsed_s seconds."""

    n_bytes: int
    elapsed_s: float

    def __post_init__(self):
        if self.n_bytes < 0:
            raise ValueError(f"byte count cannot be negative: {self.n_bytes}")
        if not math.isfinite(self.elapsed_s) or self.elapsed_s <= 0:
            raise NonPositiveElapsed(
                f"elapsed_s must be finite and > 0, got {self.elapsed_s}")

    @property
    def bits(self) -> int:
        return 8 * self.n_bytes

    @property
    def bps(self) -> float:
        return self.bits / self.elapsed_s

    @property
    def kbps(self) -> float:
        return self.bps / 1000.0


@dataclass(frozen=True)
class BenchReport:
    """A set of samples for one cipher plus where they were taken."""

    cipher: str
    environment: str
    samples: tuple

    def __post_init__(self):
        if not self.samples:
            raise EmptySamples("a report needs at least one sample")

    @property
    def average_kbps(self) -> float:
        return round2(sum(s.kbps for s in self.samples) / len(self.samples))


PRESENT_ROUNDS = 31

_SBOX = (0xC, 0x5, 0x6, 0xB, 0x9, 0x0, 0xA, 0xD,
         0x3, 0xE, 0xF, 0x8, 0x4, 0x7, 0x1, 0x2)

# Bit i of the state moves to position 16*i mod 63; bit 63 is fixed.
_PERM = tuple(16 * i % 63 for i in range(63)) + (63,)

_MASK64 = (1 << 64) - 1
_MASK76 = (1 << 76) - 1
_MASK19 = (1 << 19) - 1


@lru_cache(maxsize=16)
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


def _sbox_layer(state: int) -> int:
    out = 0
    for j in range(16):
        out |= _SBOX[(state >> (4 * j)) & 0xF] << (4 * j)
    return out


def _perm_layer(state: int) -> int:
    out = 0
    for b in range(64):
        out |= ((state >> b) & 1) << _PERM[b]
    return out


def present_encrypt(block: int, key: int) -> int:
    """PRESENT-80 on one 64-bit block."""
    rks = present_round_keys(key)
    state = block & _MASK64
    for i in range(PRESENT_ROUNDS):
        state ^= rks[i]
        state = _sbox_layer(state)
        state = _perm_layer(state)
    return state ^ rks[PRESENT_ROUNDS]


@lru_cache(maxsize=16)
def _aes_ecb(key: bytes):
    """One ECB encryptor per key, shared by every caller in one thread.
    ECB keeps no state between whole blocks, so it never needs
    ``finalize``."""
    return Cipher(algorithms.AES(key), modes.ECB()).encryptor()


def _aes_encrypt(block: int, key: bytes) -> int:
    return int.from_bytes(_aes_ecb(key).update(block.to_bytes(16, "big")), "big")


@dataclass(frozen=True)
class CipherDescriptor:
    """One cipher as the bench sees it: its block size, a one-block
    encryption of an int, and a key drawn from an RNG."""

    block_bytes: int
    encrypt_one: Callable[[Any, Any], Any]
    sample_key: Callable[[Random], Any]


# Every cipher the bench can time, by name, in report order.
CIPHERS = {
    "KATAN32": CipherDescriptor(
        block_bytes=4, encrypt_one=encrypt_block, sample_key=random_key),
    "PRESENT": CipherDescriptor(
        block_bytes=8, encrypt_one=present_encrypt,
        sample_key=lambda rng: rng.getrandbits(80)),
}
if _HAVE_AES:
    CIPHERS["AES-128"] = CipherDescriptor(
        block_bytes=16,
        encrypt_one=_aes_encrypt,
        sample_key=lambda rng: rng.getrandbits(128).to_bytes(16, "big"))


def measure_cipher(name: str, *, total_bytes: int, repetitions: int,
                   rng: Random) -> BenchReport:
    """Time single-block encryption of ``total_bytes`` random bytes.

    ``name`` is a key of ``CIPHERS``.  The key and then the data are
    drawn from ``rng``.  Each repetition encrypts the same data block by
    block and contributes one sample.
    """
    try:
        cipher = CIPHERS[name]
    except KeyError:
        known = ", ".join(sorted(CIPHERS))
        raise UnknownCipher(f"unknown cipher {name!r} (known: {known})") from None
    if repetitions < 1:
        raise ValueError("repetitions must be at least 1")
    block_bytes = cipher.block_bytes
    if total_bytes <= 0 or total_bytes % block_bytes:
        raise BadLength(
            f"total_bytes must be a positive multiple of {block_bytes}, "
            f"got {total_bytes}")
    key = cipher.sample_key(rng)
    data = rng.randbytes(total_bytes)
    blocks = [int.from_bytes(data[i:i + block_bytes], "little")
              for i in range(0, total_bytes, block_bytes)]
    encrypt_one = cipher.encrypt_one
    encrypt_one(blocks[0], key)  # warm any cached key schedule
    samples = []
    for _ in range(repetitions):
        t0 = time.perf_counter()
        for block in blocks:
            encrypt_one(block, key)
        samples.append(ThroughputSample(total_bytes, time.perf_counter() - t0))
    environment = (f"{platform.python_implementation()} {platform.python_version()} "
                   f"on {platform.system().lower()}")
    return BenchReport(name, environment, tuple(samples))


def measure_pipeline(server_url: str, device_id: str, key: Key80, *,
                     chunk_bytes: int, repetitions: int, rng: Random) -> BenchReport:
    """Time the full encrypt+post round trip against a live server."""
    if chunk_bytes <= 0:
        raise NonPositiveInput(f"chunk_bytes must be > 0, got {chunk_bytes}")
    if repetitions < 1:
        raise ValueError("repetitions must be at least 1")
    encrypt_payload(bytes(1), key)  # build the cipher kernel before timing
    samples = []
    for _ in range(repetitions):
        data = rng.randbytes(chunk_bytes)
        t0 = time.perf_counter()
        send_payload(server_url, device_id, key, data)
        samples.append(ThroughputSample(chunk_bytes, time.perf_counter() - t0))
    return BenchReport(CIPHER, f"pipeline to {server_url}", tuple(samples))


def sends_per_second(target_bps: float, chunk_bytes: int) -> tuple:
    """How many chunk-sized sends per second a target bit rate implies.

    Returns (sends_per_s, interval_s).
    """
    if not (math.isfinite(target_bps) and target_bps > 0):
        raise NonPositiveInput(f"target_bps must be finite and > 0, got {target_bps}")
    if not chunk_bytes > 0:
        raise NonPositiveInput(f"chunk_bytes must be > 0, got {chunk_bytes}")
    sends = target_bps / (8.0 * chunk_bytes)
    return sends, 1.0 / sends


def emit_report(report: BenchReport, fmt: str) -> str:
    """Render a report as a text table or CSV."""
    if fmt == "csv":
        lines = [CSV_HEADER]
        for s in report.samples:
            lines.append(f"{s.n_bytes},{s.bits},{s.elapsed_s!r},"
                         f"{round2(s.bps):.2f},{round2(s.kbps):.2f}")
        lines.append(f"average,,,,{report.average_kbps:.2f}")
        return "\n".join(lines) + "\n"
    if fmt == "table":
        lines = [f"cipher       {report.cipher}",
                 f"environment  {report.environment}",
                 f"{'bytes':>10} {'bits':>10} {'elapsed_s':>12} "
                 f"{'b/s':>14} {'Kb/s':>10}"]
        for s in report.samples:
            lines.append(f"{s.n_bytes:>10} {s.bits:>10} {s.elapsed_s:>12.6f} "
                         f"{round2(s.bps):>14.2f} {round2(s.kbps):>10.2f}")
        lines.append(f"average Kb/s {report.average_kbps:.2f}")
        return "\n".join(lines) + "\n"
    raise ValueError(f"unknown report format {fmt!r}")


def parse_table5_csv(text: str) -> list:
    """Parse measurement rows of the form ``bytes,ms`` into samples.

    Blank lines and whitespace around fields are skipped.  ``bytes`` is
    ASCII digits and ``ms`` ASCII digits with an optional fraction: int()
    and float() would also take a sign, "_", an exponent and non-ASCII
    digits.
    """
    lines = [line.strip() for line in text.splitlines() if line.strip()]
    if not lines or [field.strip() for field in lines[0].split(",")] != \
            TABLE5_CSV_HEADER.split(","):
        raise ValueError(f"expected header {TABLE5_CSV_HEADER!r}")
    samples = []
    for line in lines[1:]:
        row = _TABLE5_ROW.fullmatch(line)
        if not row:
            raise ValueError(f"expected 'bytes,ms' row, got {line!r}")
        samples.append(ThroughputSample(int(row[1]), float(row[2]) / 1000.0))
    return samples
