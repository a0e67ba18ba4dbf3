"""The benchmark's three workloads and the client that drives them.

Every workload is a function ``run(client, seed, seconds)``.  It builds
its inputs from ``seed`` alone and feeds them to the public API through
``client``; the package only ever sees the generated bytes.  Why each
workload exists is in README.md beside this file.
"""

from __future__ import annotations

import math
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from random import Random

import requests

from katanpipe import transport
from katanpipe.codec import CHUNK_BYTES, decrypt_payload
from katanpipe.errors import KatanPipeError
from katanpipe.transport import fetch_remote_blob, fetch_remote_meta, send_payload

# sensor-stream: 250 B readings (the paper's Table 5 size) from 16
# devices sampled on a shared clock tick, so each tick's readings reach
# the gateway within a few milliseconds of each other and go out back to
# back on one keep-alive session.  Back to back is what meets the
# keep-alive stall: a request sent within ~40 ms of the previous
# response waits ~40 ms for a delayed ACK, while one sent after a longer
# idle gap does not.  At the seed a tick's 16 sends take ~0.71 s, so a
# 1.5 s tick runs the connection at about half its capacity.
SENSOR_DEVICES = 16
SENSOR_BYTES = 250
SENSOR_TICK_S = 1.5
SENSOR_SPREAD_S = 0.03
# Reads stop this long before the next tick is due, so they never delay it.
SENSOR_READ_MARGIN_S = 0.1
# Each device's log rolls over to a fresh device id every this many
# ticks, so a read covers 1 to SENSOR_LOG_TICKS records wherever it
# falls in the run.  Read cost then does not grow with the run, and the
# ten slowest reads, which set readback_tail_ms, come from the whole run
# rather than from the host's speed during its last few ticks.
SENSOR_LOG_TICKS = 4
# A backlogged open loop stops issuing at this multiple of the run
# length; sends still unissued then count as failed.
OPEN_LOOP_GRACE = 2.0

# bulk-roundtrip: groups of sixteen payloads, fifteen of 64 KiB and one
# of 1 MiB at a seeded position, so every run has the same size mix and
# the two sizes carry about the same share of the bytes.  At the seed a
# run has fewer than ten 1 MiB ops, so the latency percentiles are
# 64 KiB ones while the rates are set by both sizes.
BULK_SMALL = 64 << 10
BULK_LARGE = 1 << 20
BULK_GROUP = 16
# Bounds the data dir when a much faster build fits many more ops in a run.
BULK_MAX_STORED = 256 << 20

# audit-readback: rounds of a fixed op sequence on 8 fresh devices, so
# history length per read does not depend on how fast writes are.
AUDIT_DEVICES = 8
AUDIT_ROUND_OPS = 128
AUDIT_READ_EVERY = 4
AUDIT_MAX_BYTES = 3 * CHUNK_BYTES

OP_ERRORS = (KatanPipeError, OSError, ValueError)


@dataclass
class PassStats:
    """What one pass of a workload measured."""

    ack_ms: list = field(default_factory=list)
    read_ms: list = field(default_factory=list)
    late_ms: list = field(default_factory=list)
    bytes_acked: int = 0
    send_s: float = 0.0
    bytes_verified: int = 0
    read_s: float = 0.0
    attempted: int = 0
    failed: int = 0
    retries: int = 0
    errors: list = field(default_factory=list)


class TimedSession:
    """The ``session=`` hook of send_payload: times each POST."""

    def __init__(self, tracer):
        self._session = requests.Session()
        self._tracer = tracer

    def post(self, *args, **kwargs):
        with self._tracer.span("transport.post"):
            return self._session.post(*args, **kwargs)

    def close(self):
        self._session.close()


class Client:
    """Drives the public API against one server and checks every answer.

    It remembers, per device, each plaintext unit it sent with the
    ciphertext the package produced for it, so a read can check both
    that the stored blob is exactly that ciphertext and that it
    decrypts back to the plaintext.
    """

    def __init__(self, url: str, key, tracer, read_key=None):
        self.url = url
        self.key = key
        self.read_key = read_key or key
        self.tracer = tracer
        self.stats = PassStats()
        self.sent = {}
        self._captured = []

    @contextmanager
    def hooks(self):
        """Wrap the attributes transport resolves at call time."""
        tracer = self.tracer
        encrypt = transport.encrypt_payload
        encode = transport.encode_envelope

        def capturing_encrypt(data, key):
            with tracer.span("codec.encrypt_payload"):
                out = encrypt(data, key)
            self._captured.append(out[0])
            return out

        def traced_encode(env):
            tracer.set_rid(f"{env.device_id}/{env.seq}/{env.ts_ms}",
                           backfill="codec.encrypt_payload")
            with tracer.span("codec.encode_envelope"):
                return encode(env)

        transport.encrypt_payload = capturing_encrypt
        transport.encode_envelope = traced_encode if tracer.traced else encode
        try:
            yield self
        finally:
            transport.encrypt_payload = encrypt
            transport.encode_envelope = encode

    def session(self):
        return TimedSession(self.tracer) if self.tracer.traced else requests.Session()

    def _sleep(self, seconds: float) -> None:
        self.stats.retries += 1
        with self.tracer.span("transport.retry_sleep"):
            time.sleep(seconds)

    def fail(self, message: str, count: int = 1) -> None:
        self.stats.failed += count
        if len(self.stats.errors) < 20:
            self.stats.errors.append(message)

    def send(self, device: str, data: bytes, session, *,
             per_chunk: bool = False, due: float | None = None) -> None:
        """One send_payload call; ack time runs from ``due`` if given."""
        stats = self.stats
        stats.attempted += 1
        self.tracer.set_rid(None)
        self._captured.clear()
        start = time.perf_counter()
        try:
            with self.tracer.span("transport.send_payload"):
                acks = send_payload(self.url, device, self.key, data,
                                    per_chunk=per_chunk, session=session,
                                    sleep=self._sleep)
        except OP_ERRORS as exc:
            self.fail(f"send to {device}: {exc!r}")
            return
        end = time.perf_counter()
        step = CHUNK_BYTES if per_chunk else len(data)
        units = [data[i:i + step] for i in range(0, len(data), step)]
        if (len(acks) != len(units) or len(self._captured) != len(units)
                or any(a.seq != i or a.stored != len(c)
                       for i, (a, c) in enumerate(zip(acks, self._captured)))):
            self.fail(f"send to {device}: acks {acks} do not match "
                       f"{len(units)} envelope(s)")
            return
        history = self.sent.setdefault(device, [])
        history.extend(zip(range(len(units)), units, self._captured))
        stats.ack_ms.append((end - (start if due is None else due)) * 1e3)
        stats.send_s += end - start
        stats.bytes_acked += len(data)

    def read(self, device: str) -> None:
        """Read a device's whole history back and verify it."""
        stats = self.stats
        stats.attempted += 1
        tracer = self.tracer
        tracer.set_rid(device)
        start = time.perf_counter()
        try:
            with tracer.span("bench.read"):
                # Meta before blob: every record listed then lies inside
                # the blob fetched after it.
                with tracer.span("transport.fetch_meta"):
                    records = fetch_remote_meta(self.url, device)
                with tracer.span("transport.fetch_blob"):
                    blob = fetch_remote_blob(self.url, device)
                plain = []
                for r in records:
                    with tracer.span("codec.decrypt_payload"):
                        plain.append(decrypt_payload(
                            blob[r.offset:r.offset + r.length],
                            r.plaintext_len, self.read_key))
                with tracer.span("bench.verify"):
                    problem = verify(records, blob, plain, self.sent.get(device, []))
        except OP_ERRORS as exc:
            self.fail(f"read of {device}: {exc!r}")
            return
        end = time.perf_counter()
        if problem:
            self.fail(f"read of {device}: {problem}")
            return
        stats.read_ms.append((end - start) * 1e3)
        stats.read_s += end - start
        stats.bytes_verified += sum(len(p) for p in plain)


def verify(records, blob: bytes, plain: list, expected: list) -> str:
    """'' if a read matches what was sent, else what differs."""
    if len(records) != len(expected):
        return f"{len(records)} records stored, {len(expected)} sent"
    if blob != b"".join(ct for _, _, ct in expected):
        return "stored blob is not the ciphertext the client produced"
    for i, (r, p, (seq, unit, _)) in enumerate(zip(records, plain, expected)):
        if r.seq != seq or r.plaintext_len != len(unit):
            return f"record {i} is seq {r.seq} len {r.plaintext_len}, sent seq {seq} len {len(unit)}"
        if p != unit:
            return f"record {i} decrypts to bytes that were not sent"
    return ""


def sensor_stream(client: Client, seed: int, seconds: float) -> None:
    """Open loop of 250 B readings in per-tick bursts over one keep-alive
    session.  Once a tick's readings are acked, the idle time before the
    next tick reads every device's current log back."""
    rng = Random(seed)
    n_ticks = math.ceil(seconds / SENSOR_TICK_S)
    logs = [[f"sensor-{j:02d}-log{k // SENSOR_LOG_TICKS:03d}"
             for j in range(SENSOR_DEVICES)] for k in range(n_ticks)]
    ticks = [sorted((k * SENSOR_TICK_S + rng.uniform(0, SENSOR_SPREAD_S), device,
                     rng.randbytes(SENSOR_BYTES)) for device in logs[k])
             for k in range(n_ticks)]
    unissued = n_ticks * SENSOR_DEVICES

    session = client.session()
    try:
        t0 = time.perf_counter()
        stop = t0 + seconds * OPEN_LOOP_GRACE
        for k, burst in enumerate(ticks):
            for offset, device, data in burst:
                due_at = t0 + offset
                now = time.perf_counter()
                if now > stop:
                    client.stats.attempted += unissued
                    client.fail(f"{unissued} sends never issued", unissued)
                    return
                if due_at > now:
                    time.sleep(due_at - now)
                client.stats.late_ms.append((time.perf_counter() - due_at) * 1e3)
                client.send(device, data, session, due=due_at)
                unissued -= 1
            read_until = t0 + (k + 1) * SENSOR_TICK_S - SENSOR_READ_MARGIN_S
            last = k + 1 == len(ticks)
            for device in logs[k]:
                if not last and time.perf_counter() > read_until:
                    break
                client.read(device)
    finally:
        session.close()


def bulk_roundtrip(client: Client, seed: int, seconds: float) -> None:
    """Closed loop: one 64 KiB or 1 MiB envelope per op on a keep-alive
    session, each fetched back, decrypted and verified."""
    rng = Random(seed)
    session = client.session()
    try:
        t0 = time.perf_counter()
        ready = t0
        stored = 0
        i = 0
        while time.perf_counter() - t0 < seconds and stored < BULK_MAX_STORED:
            if i % BULK_GROUP == 0:
                large_at = i + rng.randrange(BULK_GROUP)
            data = rng.randbytes(BULK_LARGE if i == large_at else BULK_SMALL)
            device = f"bulk-{i:05d}"
            client.stats.late_ms.append((time.perf_counter() - ready) * 1e3)
            client.send(device, data, session)
            client.read(device)
            ready = time.perf_counter()
            stored += len(data)
            i += 1
    finally:
        session.close()


def audit_readback(client: Client, seed: int, seconds: float) -> None:
    """Closed loop of small per-chunk writes to 8 devices in turn; every
    fourth op instead re-reads the full history of the next device in
    turn, so history lengths are fixed and only the bytes are seeded."""
    rng = Random(seed)
    t0 = time.perf_counter()
    ready = t0
    rnd = 0
    while time.perf_counter() - t0 < seconds:
        devices = [f"audit-r{rnd:03d}-d{j}" for j in range(AUDIT_DEVICES)]
        writes = reads = 0
        for op in range(1, AUDIT_ROUND_OPS + 1):
            if time.perf_counter() - t0 >= seconds:
                break
            client.stats.late_ms.append((time.perf_counter() - ready) * 1e3)
            if op % AUDIT_READ_EVERY == 0:
                # Read r comes after 3(r+1) writes, so its device has data.
                client.read(devices[reads % AUDIT_DEVICES])
                reads += 1
            else:
                data = rng.randbytes(rng.randint(1, AUDIT_MAX_BYTES))
                # A fresh session per call, as send_payload makes by
                # default, so the envelopes of one message share a
                # connection and messages do not.
                session = client.session()
                try:
                    client.send(devices[writes % AUDIT_DEVICES], data, session,
                                per_chunk=True)
                finally:
                    session.close()
                writes += 1
            ready = time.perf_counter()
        rnd += 1


WORKLOADS = {
    "sensor-stream": sensor_stream,
    "bulk-roundtrip": bulk_roundtrip,
    "audit-readback": audit_readback,
}
