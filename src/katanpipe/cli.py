"""Command line interface.

Exit codes: 0 on success, 1 for usage errors, 2 for runtime failures.
Runtime failures print one ``error: ...`` line to stderr.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path
from random import Random

from .codec import CIPHER, decrypt_payload, encrypt_payload
from .errors import BadLengthInvariant, EmptyInput, KatanPipeError
from .katan import Key80, format_key, parse_key, random_key
from .transport import (
    DEFAULT_MAX_DECODED,
    BlobStore,
    create_server,
    fetch_remote_blob,
    fetch_remote_meta,
    format_meta,
    parse_meta,
    send_payload,
)

DEFAULT_ADDR = "127.0.0.1:8080"
DEFAULT_DATA_DIR = "./katanpipe-data"


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _addr_type(text: str):
    host, _, port = text.rpartition(":")
    # int() would also take "+80", "8_0" and non-ASCII digits.
    if host and port.isascii() and port.isdigit() and int(port) <= 65535:
        return host, int(port)
    raise argparse.ArgumentTypeError(f"expected HOST:PORT, port 0..65535, got {text!r}")


def _positive_int(text: str) -> int:
    if text.isascii() and text.isdigit() and int(text) > 0:
        return int(text)
    raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")


def _signed_int(text: str) -> int:
    # int() would also take "+3", "1_0", " 3" and non-ASCII digits.
    digits = text[1:] if text.startswith("-") else text
    if digits.isascii() and digits.isdigit():
        return int(text)
    raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")


def _read_key(path: str) -> Key80:
    return parse_key(Path(path).read_text(encoding="ascii"))


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="katanpipe", description="KATAN32 telemetry pipeline tools")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    key = _Parser(add_help=False)
    key.add_argument("--key", required=True, help="path to a 20-hex-digit key file")
    remote = _Parser(add_help=False)
    remote.add_argument("--server", required=True, help="server base URL")
    remote.add_argument("--device", required=True, help="device id")
    report = _Parser(add_help=False)
    report.add_argument("--format", default="table", help="table or csv")
    report.add_argument("--out", help="write the report here instead of stdout")
    reps = _Parser(add_help=False)
    reps.add_argument("--reps", type=_positive_int, default=9,
                      help="number of repetitions")
    chunk = _Parser(add_help=False)
    chunk.add_argument("--chunk-bytes", type=_positive_int, default=250,
                       help="payload bytes per send")

    p = sub.add_parser("keygen", help="generate an 80-bit key")
    p.add_argument("--out", help="write the key here instead of stdout")
    p.add_argument("--seed", type=_signed_int,
                   help="derive the key from a seeded RNG (for reproducibility)")
    p.set_defaults(func=cmd_keygen)

    p = sub.add_parser("encrypt", parents=[key],
                       help="encrypt a file into a ciphertext blob")
    p.add_argument("--in", dest="infile", required=True, help="plaintext input path")
    p.add_argument("--out", required=True, help="ciphertext output path")
    p.set_defaults(func=cmd_encrypt)

    p = sub.add_parser("decrypt", parents=[key], help="decrypt a ciphertext blob")
    p.add_argument("--in", dest="infile", required=True, help="ciphertext input path")
    p.add_argument("--out", required=True, help="plaintext output path")
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--len", type=_positive_int, help="plaintext length in bytes")
    g.add_argument("--meta", help="meta file describing the blob segments")
    p.set_defaults(func=cmd_decrypt)

    # String defaults pass through ``type`` only when serve is parsed.
    env = os.environ.get
    p = sub.add_parser("serve", help="run the ingest server")
    p.add_argument("--addr", type=_addr_type,
                   default=env("KATANPIPE_ADDR", DEFAULT_ADDR),
                   help=f"bind address HOST:PORT (default {DEFAULT_ADDR})")
    p.add_argument("--data", default=env("KATANPIPE_DATA", DEFAULT_DATA_DIR),
                   help=f"storage directory (default {DEFAULT_DATA_DIR})")
    p.add_argument("--max-payload", type=_positive_int,
                   default=env("KATANPIPE_MAX_PAYLOAD", str(DEFAULT_MAX_DECODED)),
                   help="largest accepted decoded payload in bytes")
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser("send", parents=[remote, key],
                       help="encrypt a file and post it to a server")
    p.add_argument("--in", dest="infile", required=True, help="plaintext input path")
    p.add_argument("--per-chunk", action="store_true",
                   help="send each 256-byte chunk as its own envelope")
    p.set_defaults(func=cmd_send)

    p = sub.add_parser("fetch", parents=[remote],
                       help="download a device's stored blob and meta")
    p.add_argument("--blob-out", help="write the ciphertext blob here")
    p.add_argument("--meta-out", help="write the meta records here")
    p.set_defaults(func=cmd_fetch)

    bench = sub.add_parser("bench", help="throughput measurements").add_subparsers(
        dest="bench_command", required=True, parser_class=_Parser)

    p = bench.add_parser("cipher", parents=[reps, report], help="time block encryption")
    p.add_argument("--cipher", default=CIPHER,
                   help="KATAN32, PRESENT or AES-128 (AES-128 needs cryptography)")
    p.add_argument("--bytes", type=_positive_int, default=4096,
                   help="bytes per repetition (multiple of the block size)")
    p.add_argument("--seed", type=_signed_int, help="seed the data/key RNG")
    p.set_defaults(func=cmd_bench_cipher)

    p = bench.add_parser("pipeline", parents=[remote, key, chunk, reps, report],
                         help="time encrypt+post round trips")
    p.add_argument("--seed", type=_signed_int, help="seed the payload RNG")
    p.set_defaults(func=cmd_bench_pipeline)

    p = bench.add_parser("table5", parents=[report],
                         help="recompute rates from bytes,ms rows")
    p.add_argument("--csv", required=True, help="input CSV with a bytes,ms header")
    p.set_defaults(func=cmd_bench_table5)

    p = bench.add_parser("rate", parents=[chunk],
                         help="sends per second for a target bit rate")
    p.add_argument("--target-bps", type=float, required=True,
                   help="target line rate in bits per second")
    p.set_defaults(func=cmd_bench_rate)

    return parser


def _emit(text: str, out_path) -> None:
    if out_path:
        Path(out_path).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def cmd_keygen(args) -> int:
    rng = Random(args.seed) if args.seed is not None else None
    _emit(format_key(random_key(rng)) + "\n", args.out)
    return 0


def cmd_encrypt(args) -> int:
    key = _read_key(args.key)
    data = Path(args.infile).read_bytes()
    ciphertext, plaintext_len = encrypt_payload(data, key)
    Path(args.out).write_bytes(ciphertext)
    print(f"plaintext_len {plaintext_len}")
    return 0


def cmd_decrypt(args) -> int:
    key = _read_key(args.key)
    blob = Path(args.infile).read_bytes()
    if args.meta is not None:
        records = parse_meta(Path(args.meta).read_text(encoding="ascii"))
        if not records:
            raise EmptyInput(f"no records in meta file {args.meta}")
        for r in records:
            if r.offset + r.length > len(blob):
                raise BadLengthInvariant(
                    f"meta record {format_meta([r]).strip()!r} runs past the "
                    f"end of the {len(blob)}-byte blob")
        out = b"".join(
            decrypt_payload(blob[r.offset:r.offset + r.length], r.plaintext_len, key)
            for r in records)
    else:
        out = decrypt_payload(blob, args.len, key)
    Path(args.out).write_bytes(out)
    print(f"wrote {len(out)} bytes")
    return 0


def cmd_serve(args) -> int:
    store = BlobStore(args.data)
    server = create_server(args.addr, store, max_decoded=args.max_payload)
    host, port = server.server_address[:2]
    print(f"serving on http://{host}:{port} data={args.data}", flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
        store.close()
    return 0


def cmd_send(args) -> int:
    key = _read_key(args.key)
    data = Path(args.infile).read_bytes()
    acks = send_payload(args.server, args.device, key, data,
                        per_chunk=args.per_chunk)
    for ack in acks:
        print(f"ack seq {ack.seq} stored {ack.stored}")
    print(f"sent {len(acks)} envelope(s), "
          f"{sum(a.stored for a in acks)} ciphertext bytes")
    return 0


def cmd_fetch(args) -> int:
    if not args.blob_out and not args.meta_out:
        raise _UsageError("fetch needs --blob-out and/or --meta-out")
    # The meta first: a message stored between the two requests then lies
    # past the records in the blob, not in the meta past the blob's end.
    if args.meta_out:
        records = fetch_remote_meta(args.server, args.device)
    if args.blob_out:
        blob = fetch_remote_blob(args.server, args.device)
        Path(args.blob_out).write_bytes(blob)
        print(f"blob {len(blob)} bytes -> {args.blob_out}")
    if args.meta_out:
        Path(args.meta_out).write_text(format_meta(records), encoding="ascii")
        print(f"meta {len(records)} record(s) -> {args.meta_out}")
    return 0


# The bench commands import bench in their handlers: it loads
# cryptography (for its AES-128 baseline) and decimal, which serve, send
# and fetch never use.

def cmd_bench_cipher(args) -> int:
    from .bench import emit_report, measure_cipher
    report = measure_cipher(args.cipher, total_bytes=args.bytes,
                            repetitions=args.reps, rng=Random(args.seed))
    _emit(emit_report(report, args.format), args.out)
    return 0


def cmd_bench_pipeline(args) -> int:
    from .bench import emit_report, measure_pipeline
    key = _read_key(args.key)
    report = measure_pipeline(args.server, args.device, key,
                              chunk_bytes=args.chunk_bytes,
                              repetitions=args.reps, rng=Random(args.seed))
    _emit(emit_report(report, args.format), args.out)
    return 0


def cmd_bench_table5(args) -> int:
    from .bench import BenchReport, emit_report, parse_table5_csv
    samples = parse_table5_csv(Path(args.csv).read_text(encoding="ascii"))
    report = BenchReport(CIPHER, f"replayed from {args.csv}", tuple(samples))
    _emit(emit_report(report, args.format), args.out)
    return 0


def cmd_bench_rate(args) -> int:
    from .bench import sends_per_second
    sends, interval = sends_per_second(args.target_bps, args.chunk_bytes)
    print(f"sends_per_s {sends!r}")
    print(f"interval_s {interval!r}")
    return 0


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (KatanPipeError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
