"""End-to-end benchmark of the katanpipe pipeline.

Run from the root of a checkout:

    python3 perfbench/run.py --workload sensor-stream --seed 1 --seconds 20 --trace 0

``--workload all`` runs the three workloads one after another.  Each
workload starts ``katanpipe serve --addr 127.0.0.1:0`` from this
checkout's ``src`` in its own process on a fresh data dir, drives it
through the public client API, and verifies every byte it reads back.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs the
same inputs twice, untraced against ``katanpipe serve`` and then traced
against ``perfbench/serve_traced.py``, and reports the per-layer
metrics, a self-time table and the tracing overhead.  Human-readable
lines come first; the last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
The exit code is 0 only if every check passed.  Run artefacts go to
``.perfbench-runs/`` in the checkout.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from random import Random

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH_DIR = Path(__file__).resolve().parent
RUNS_DIR = ROOT / ".perfbench-runs"

WORKLOAD_NAMES = ("sensor-stream", "bulk-roundtrip", "audit-readback")
FAULTS = ("none", "wrong-key")

# Server starts per run; setup_s and cli.serve_ready_s are their medians.
SETUP_REPS = 5
READY_TIMEOUT_S = 30.0
STOP_TIMEOUT_S = 10.0
PR_SET_PDEATHSIG = 1
# A tail is the highest percentile with at least this many samples beyond it.
TAIL_BEYOND = 10
KATAN_REPS = 64

END_TO_END = {
    "setup_s": "s",
    "ack_p50_ms": "ms",
    "ack_tail_ms": "ms",
    "upload_kbps": "kbit/s",
    "readback_p50_ms": "ms",
    "readback_tail_ms": "ms",
    "readback_kbps": "kbit/s",
    "server_rss_mb": "MiB",
}
PER_LAYER = {
    "katan.encrypt_batch_us": "us",
    "katan.decrypt_batch_us": "us",
    "codec.encrypt_ms": "ms",
    "codec.encrypt_share": "fraction",
    "codec.encode_envelope_ms": "ms",
    "codec.decrypt_ms": "ms",
    "codec.decrypt_calls": "count",
    "codec.decode_envelope_ms": "ms",
    "transport.post_ms": "ms",
    "transport.wire_wait_ms": "ms",
    "transport.wire_wait_share": "fraction",
    "transport.fetch_meta_ms": "ms",
    "transport.fetch_blob_ms": "ms",
    "transport.ingest_ms": "ms",
    "transport.append_ms": "ms",
    "transport.fsyncs_per_msg": "count",
    "transport.store_read_ms": "ms",
    "transport.bytes_at_rest_per_byte": "ratio",
    "cli.serve_ready_s": "s",
    "bench.gen_late_tail_ms": "ms",
    "bench.trace_overhead": "ratio",
}
# Printed with the others but left out of the JSON result: each is 0
# whenever the run passes.
PRINTED_ONLY = {"failed_frac": "fraction", "transport.retries": "count",
                "transport.failed": "count"}


def _read_line(pipe, deadline: float) -> str:
    fd = pipe.fileno()
    buf = b""
    while b"\n" not in buf:
        remaining = deadline - time.perf_counter()
        if remaining <= 0:
            raise RuntimeError("server did not report its address in time")
        ready, _, _ = select.select([fd], [], [], remaining)
        if ready:
            chunk = os.read(fd, 4096)
            if not chunk:
                raise RuntimeError("server exited before it was ready")
            buf += chunk
    return buf.split(b"\n", 1)[0].decode("utf-8", "replace")


class Server:
    """One ingest server process on an ephemeral port and a fresh data dir.

    ``ready_s`` runs from spawn to the ``serving on`` line, ``setup_s``
    from spawn until ``/health`` answers ``ok``.  ``stop`` interrupts
    the process, reaps it and deletes its data dir.
    """

    def __init__(self, argv: list, data_dir: Path, log_path: Path):
        self.data_dir = data_dir
        data_dir.mkdir(parents=True)
        self._log = open(log_path, "wb")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), env.get("PYTHONPATH", "")) if p)
        libc = ctypes.CDLL(None, use_errno=True)
        start = time.perf_counter()
        # The server gets SIGTERM if the benchmark itself is killed.
        self.proc = subprocess.Popen(
            argv, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE, stderr=self._log,
            preexec_fn=lambda: libc.prctl(PR_SET_PDEATHSIG, signal.SIGTERM))
        try:
            deadline = start + READY_TIMEOUT_S
            line = _read_line(self.proc.stdout, deadline)
            self.ready_s = time.perf_counter() - start
            if not line.startswith("serving on "):
                raise RuntimeError(f"unexpected server banner {line!r}")
            self.url = line.split()[2]
            self._wait_healthy(deadline)
            self.setup_s = time.perf_counter() - start
        except BaseException:
            self.stop()
            raise

    def _wait_healthy(self, deadline: float) -> None:
        while True:
            try:
                resp = requests.get(f"{self.url}/health", timeout=READY_TIMEOUT_S)
                if resp.status_code == 200 and resp.text == "ok":
                    return
            except requests.RequestException:
                pass
            if time.perf_counter() > deadline:
                raise RuntimeError("server never answered /health with ok")
            time.sleep(0.005)

    def peak_rss_mib(self) -> float:
        with open(f"/proc/{self.proc.pid}/status", encoding="ascii") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
        raise RuntimeError("no VmHWM line for the server process")

    def data_bytes(self) -> int:
        return sum(p.stat().st_size for p in self.data_dir.rglob("*") if p.is_file())

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self._log.close()
        shutil.rmtree(self.data_dir, ignore_errors=True)


def cli_server(data_dir: Path, log_path: Path) -> Server:
    return Server([sys.executable, "-m", "katanpipe", "serve",
                   "--addr", "127.0.0.1:0", "--data", str(data_dir)],
                  data_dir, log_path)


def traced_server(data_dir: Path, log_path: Path, spans_out: Path) -> Server:
    return Server([sys.executable, str(BENCH_DIR / "serve_traced.py"),
                   "--addr", "127.0.0.1:0", "--data", str(data_dir),
                   "--spans-out", str(spans_out)],
                  data_dir, log_path)


def fs_type(path: Path) -> str:
    """Filesystem type of the mount holding ``path``."""
    target = str(path.resolve())
    best, kind = "", "unknown"
    try:
        with open("/proc/self/mountinfo", encoding="utf-8") as f:
            for line in f:
                fields = line.split()
                mount = fields[4]
                fstype = fields[fields.index("-") + 1]
                inside = target == mount or target.startswith(mount.rstrip("/") + "/")
                if inside and len(mount) >= len(best):
                    best, kind = mount, fstype
    except (OSError, ValueError, IndexError):
        pass
    return kind


def git_commit() -> str:
    """HEAD's commit, read from .git without running git; 'unknown' if
    the checkout is not a git repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="ascii").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text(encoding="ascii").strip()
        for line in (git / "packed-refs").read_text(encoding="ascii").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def known_answer_ok() -> bool:
    """The published KATAN32 vector (key all ones, plaintext 0 ->
    0x7E1FF945) through the scalar kernel and through all 64 lanes of
    the bitsliced kernel, plus the bitsliced inverse."""
    key = parse_key("ff" * 10)
    expected = 0x7E1FF945
    if encrypt_block(0, key) != expected:
        return False
    words = broadcast_key(key)
    zero = (0,) * BATCH_WORDS
    out = encrypt_batch(zero, words)
    return (all(extract_lane(out, lane) == expected for lane in range(LANES))
            and tuple(decrypt_batch(out, words)) == zero)


def katan_batch_us(seed: int) -> tuple:
    """Median microseconds of one 64-lane encrypt_batch and decrypt_batch."""
    rng = Random(seed)
    key = broadcast_key(random_key(rng))
    batch = tuple(rng.getrandbits(64) for _ in range(BATCH_WORDS))
    enc, dec = [], []
    for _ in range(KATAN_REPS):
        t0 = time.perf_counter_ns()
        out = encrypt_batch(batch, key)
        t1 = time.perf_counter_ns()
        back = decrypt_batch(out, key)
        t2 = time.perf_counter_ns()
        if tuple(back) != batch:
            raise RuntimeError("decrypt_batch did not invert encrypt_batch")
        enc.append((t1 - t0) / 1e3)
        dec.append((t2 - t1) / 1e3)
    return statistics.median(enc), statistics.median(dec)


def tail(values: list) -> tuple:
    """(value, percentile) of the highest percentile that has at least
    TAIL_BEYOND samples beyond it; the maximum if there are too few."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def run_pass(name: str, url: str, key, read_key, tracer, seed: int,
             seconds: float):
    client = Client(url, key, tracer, read_key)
    with client.hooks():
        WORKLOADS[name](client, seed, seconds)
    return client.stats


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def end_to_end(stats, setup: list, rss_mib: float) -> tuple:
    """(metrics, notes): metric values and the sample counts behind them.

    A latency metric with no successful operation behind it is left out.
    """
    metrics = {"setup_s": statistics.median(setup), "server_rss_mb": rss_mib,
               "failed_frac": _ratio(stats.failed, stats.attempted)}
    notes = {"setup_s": f"median of {len(setup)} server starts",
             "server_rss_mb": "server VmHWM",
             "failed_frac": f"{stats.failed} of {stats.attempted}"}
    for kind, samples, nbytes, seconds in (
            ("ack", stats.ack_ms, stats.bytes_acked, stats.send_s),
            ("readback", stats.read_ms, stats.bytes_verified, stats.read_s)):
        if not samples:
            continue
        value, pct = tail(samples)
        rate = "upload_kbps" if kind == "ack" else "readback_kbps"
        metrics[f"{kind}_p50_ms"] = statistics.median(samples)
        metrics[f"{kind}_tail_ms"] = value
        metrics[rate] = 8 * nbytes / seconds / 1e3
        notes[f"{kind}_p50_ms"] = f"n={len(samples)}"
        notes[f"{kind}_tail_ms"] = f"p{pct:.1f}, n={len(samples)}"
        notes[rate] = f"{nbytes} B in {seconds:.3f} s of {'sends' if kind == 'ack' else 'reads'}"
    return metrics, notes


def _mean_ms(spans, name: str) -> float:
    durations = [span_ms(s) for s in spans if s["name"] == name]
    return _ratio(sum(durations), len(durations))


def per_op_s(stats) -> float:
    return _ratio(stats.send_s + stats.read_s, len(stats.ack_ms) + len(stats.read_ms))


def per_layer(client_spans, server_spans, traced, untraced, ready: list,
              katan_us: tuple, data_bytes: int) -> dict:
    count = {}
    total_ms = {}
    for s in (*client_spans, *server_spans):
        count[s["name"]] = count.get(s["name"], 0) + 1
        total_ms[s["name"]] = total_ms.get(s["name"], 0.0) + span_ms(s)
    ingest_by_rid = {s["rid"]: span_ms(s) for s in server_spans
                     if s["name"] == "transport.ingest"}
    wire = [span_ms(s) - ingest_by_rid[s["rid"]] for s in client_spans
            if s["name"] == "transport.post" and s["rid"] in ingest_by_rid]
    return {
        "katan.encrypt_batch_us": katan_us[0],
        "katan.decrypt_batch_us": katan_us[1],
        "codec.encrypt_ms": _mean_ms(client_spans, "codec.encrypt_payload"),
        "codec.encrypt_share": _ratio(total_ms.get("codec.encrypt_payload", 0.0),
                                      total_ms.get("transport.send_payload", 0.0)),
        "codec.encode_envelope_ms": _mean_ms(client_spans, "codec.encode_envelope"),
        "codec.decrypt_ms": _mean_ms(client_spans, "codec.decrypt_payload"),
        "codec.decrypt_calls": _ratio(count.get("codec.decrypt_payload", 0),
                                      count.get("bench.read", 0)),
        "codec.decode_envelope_ms": _mean_ms(server_spans, "codec.decode_envelope"),
        "transport.post_ms": _mean_ms(client_spans, "transport.post"),
        "transport.wire_wait_ms": _ratio(sum(wire), len(wire)),
        "transport.wire_wait_share": _ratio(sum(wire),
                                            total_ms.get("transport.send_payload", 0.0)),
        "transport.fetch_meta_ms": _mean_ms(client_spans, "transport.fetch_meta"),
        "transport.fetch_blob_ms": _mean_ms(client_spans, "transport.fetch_blob"),
        "transport.ingest_ms": _mean_ms(server_spans, "transport.ingest"),
        "transport.append_ms": _mean_ms(server_spans, "transport.append"),
        "transport.fsyncs_per_msg": _ratio(count.get("os.fsync", 0),
                                           count.get("transport.append", 0)),
        "transport.store_read_ms": _mean_ms(server_spans, "transport.store_read"),
        "transport.bytes_at_rest_per_byte": _ratio(data_bytes, traced.bytes_acked),
        "cli.serve_ready_s": statistics.median(ready),
        "bench.gen_late_tail_ms": tail(traced.late_ms)[0] if traced.late_ms else 0.0,
        "bench.trace_overhead": _ratio(per_op_s(traced), per_op_s(untraced)),
        "transport.retries": traced.retries,
        "transport.failed": traced.failed,
    }


def _print_metrics(metrics: dict, units: dict, notes: dict) -> None:
    for name, unit in units.items():
        if name in metrics:
            note = f"  ({notes[name]})" if name in notes else ""
            print(f"{name:<34} {metrics[name]:>14.4f} {unit}{note}")


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 fault: str) -> dict:
    run_dir = RUNS_DIR / f"{name}-seed{seed}-trace{int(trace)}-{os.getpid()}-{time.time_ns()}"
    run_dir.mkdir(parents=True)
    env = {"workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
           "python": platform.python_version(),
           "nproc": len(os.sched_getaffinity(0)), "fs": fs_type(run_dir),
           "byteorder": sys.byteorder, "commit": git_commit()}
    print("# " + " ".join(f"{k}={v}" for k, v in env.items()), flush=True)
    if not known_answer_ok():
        print("error: KATAN32 known-answer vector failed", file=sys.stderr)
        return {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}

    key = random_key(Random(f"katanpipe-key-{seed}"))
    read_key = Key80(key.value ^ 1) if fault == "wrong-key" else key
    ready, setup = [], []
    server = None
    try:
        for rep in range(SETUP_REPS):
            if server is not None:
                server.stop()
            server = cli_server(run_dir / f"data-{rep}", run_dir / f"server-{rep}.log")
            ready.append(server.ready_s)
            setup.append(server.setup_s)
        untraced = run_pass(name, server.url, key, read_key, NullTracer(),
                            seed, seconds)
        rss_mib = server.peak_rss_mib()
    finally:
        if server is not None:
            server.stop()
    passes = [untraced]
    metrics, notes = end_to_end(untraced, setup, rss_mib)
    result = {"env": env, "end_to_end": metrics, "notes": notes}

    if trace:
        katan_us = katan_batch_us(seed)
        tracer = Tracer("client")
        spans_path = run_dir / "server-spans.json"
        server = traced_server(run_dir / "data-traced", run_dir / "server-traced.log",
                               spans_path)
        try:
            traced = run_pass(name, server.url, key, read_key, tracer, seed, seconds)
            data_bytes = server.data_bytes()
        finally:
            server.stop()
        server_spans = json.loads(spans_path.read_text(encoding="utf-8"))
        spans = [*tracer.spans, *server_spans]
        (run_dir / "trace.json").write_text(json.dumps(spans), encoding="utf-8")
        passes.append(traced)
        print(format_table(self_times(spans)))
        layers = per_layer(tracer.spans, server_spans, traced, untraced, ready,
                           katan_us, data_bytes)
        result["per_layer"] = layers

    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    errors = [e for p in passes for e in p.errors]
    for error in errors:
        print(f"error: {error}", file=sys.stderr)
    _print_metrics(metrics, {**END_TO_END, **PRINTED_ONLY}, notes)
    if trace:
        _print_metrics(layers, {**PER_LAYER, **PRINTED_ONLY}, {})
        reported = {k: layers[k] for k in PER_LAYER}
        units = PER_LAYER
    else:
        reported = {k: metrics[k] for k in END_TO_END if k in metrics}
        units = END_TO_END
    result["errors"] = errors
    (run_dir / "result.json").write_text(json.dumps(result, indent=1), encoding="utf-8")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in reported.items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="katanpipe end-to-end benchmark")
    parser.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="length of the timed part of each pass")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--fault", choices=FAULTS, default="none",
                        help="wrong-key reads back with a different key; "
                             "every read must then fail verification")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            results[name] = run_workload(name, args.seed, args.seconds,
                                         bool(args.trace), args.fault)
    except (RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": v for n, r in results.items()
                        for k, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    if not (SRC / "katanpipe" / "__init__.py").is_file():
        print(f"error: no katanpipe sources at {SRC}; run from a checkout",
              file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    import requests
    from katanpipe.katan import (
        BATCH_WORDS, LANES, Key80, broadcast_key, decrypt_batch, encrypt_batch,
        encrypt_block, extract_lane, parse_key, random_key)
    from spans import NullTracer, Tracer, format_table, self_times, span_ms
    from workloads import WORKLOADS, Client
    raise SystemExit(main())
