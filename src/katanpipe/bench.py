"""Throughput measurement and reporting.

Rates are in bits per second: a sample of B bytes over t seconds has
bps = 8*B/t, and Kb/s divides that by 1000 (decimal kilobit, not 1024).
Reported rates are rounded to two decimals, half away from zero.  The
send-rate helper answers "how many fixed-size chunks per second does a
target line rate correspond to".

A ThroughputSample needs n_bytes >= 0 and a finite elapsed_s > 0, and a
BenchReport at least one sample; each type checks this when built.
"""

from __future__ import annotations

import math
import platform
import time
from dataclasses import dataclass
from decimal import ROUND_HALF_UP, Decimal
from random import Random

from .baselines import get_cipher
from .codec import CIPHER, encrypt_payload
from .errors import (
    BadLength,
    EmptySamples,
    NonPositiveElapsed,
    NonPositiveInput,
)
from .katan import Key80
from .transport import send_payload

CSV_HEADER = "bytes,bits,elapsed_s,bps,kbps"
TABLE5_CSV_HEADER = "bytes,ms"


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


def measure_cipher(name: str, *, total_bytes: int, repetitions: int,
                   rng: Random) -> BenchReport:
    """Time single-block encryption of ``total_bytes`` random bytes.

    ``name`` is a key of ``baselines.CIPHERS``.  The key and then the
    data are drawn from ``rng``.  Each repetition encrypts the same data
    block by block and contributes one sample.
    """
    cipher = get_cipher(name)
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
    """Parse measurement rows of the form ``bytes,ms`` into samples."""
    lines = [line.strip() for line in text.splitlines() if line.strip()]
    if not lines or lines[0].replace(" ", "") != TABLE5_CSV_HEADER:
        raise ValueError(f"expected header {TABLE5_CSV_HEADER!r}")
    samples = []
    for line in lines[1:]:
        parts = [p.strip() for p in line.split(",")]
        if len(parts) != 2:
            raise ValueError(f"expected 'bytes,ms' row, got {line!r}")
        samples.append(ThroughputSample(int(parts[0]), float(parts[1]) / 1000.0))
    return samples
