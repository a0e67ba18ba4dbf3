"""Traced ingest server for the benchmark's traced run.

Does what ``katanpipe serve`` does, but times the server-side layers
from outside the package:

* a timing wrapper around the ``BlobStore`` handed to ``create_server``
  (``transport.append``, ``transport.store_read``);
* wrappers on the module attributes that ``transport`` resolves at call
  time: ``ingest`` and ``decode_envelope``;
* ``os.fsync``, counted and timed, which ``BlobStore.append`` calls.

On SIGINT it stops serving and writes its spans as JSON to
``--spans-out``.  Run as
``python3 perfbench/serve_traced.py --addr 127.0.0.1:0 --data DIR --spans-out FILE``
with the package's ``src`` directory on ``PYTHONPATH``.
"""

from __future__ import annotations

import argparse
import json
import os

from katanpipe import transport
from spans import Tracer


class TimedStore:
    """Delegates to a BlobStore, timing each call the server makes."""

    def __init__(self, store, tracer: Tracer):
        self.append = tracer.wrap("transport.append", store.append)
        self.fetch_blob = tracer.wrap("transport.store_read", store.fetch_blob)
        self.fetch_meta = tracer.wrap("transport.store_read", store.fetch_meta)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--addr", required=True, help="HOST:PORT to bind")
    parser.add_argument("--data", required=True, help="storage directory")
    parser.add_argument("--spans-out", required=True, help="write spans here at exit")
    args = parser.parse_args()
    host, _, port = args.addr.rpartition(":")

    tracer = Tracer("server")
    decode = transport.decode_envelope
    ingest = transport.ingest

    def traced_decode(body):
        with tracer.span("codec.decode_envelope"):
            env = decode(body)
            tracer.set_rid(f"{env.device_id}/{env.seq}/{env.ts_ms}")
        return env

    def traced_ingest(*args, **kwargs):
        tracer.set_rid(None)
        with tracer.span("transport.ingest"):
            return ingest(*args, **kwargs)

    transport.ingest = traced_ingest
    transport.decode_envelope = traced_decode
    os.fsync = tracer.wrap("os.fsync", os.fsync)

    server = transport.create_server(
        (host, int(port)), TimedStore(transport.BlobStore(args.data), tracer))
    bound_host, bound_port = server.server_address[:2]
    print(f"serving on http://{bound_host}:{bound_port} data={args.data}", flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
        with open(args.spans_out, "w", encoding="utf-8") as f:
            json.dump(list(tracer.spans), f)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
