"""The package root is the device library: importing it, or the codec,
loads neither the HTTP stack nor the bench nor `cryptography`.  The
runtime as a whole needs only the standard library, and the CLI loads
the bench only for the bench commands."""

import ast
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from katanpipe import errors

ROOT = Path(__file__).resolve().parent.parent
SRC = Path(errors.__file__).parent

# Modules a device that only encrypts has no use for.
SERVER_SIDE = ["requests", "cryptography", "http.server", "katanpipe.transport",
               "katanpipe.bench", "katanpipe.baselines"]

# Modules `katanpipe serve`, `send` and `fetch` have no use for.
BENCH_SIDE = ["requests", "urllib3", "cryptography", "decimal",
              "katanpipe.bench", "katanpipe.baselines"]


def run_python(code):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_root_and_codec_import_only_the_device_library():
    readme = (ROOT / "README.md").read_text()
    example = re.search(r"## Library use\n.*?```python\n(.*?)```", readme, re.S).group(1)
    code = (f"import sys, json\nimport katanpipe\nimport katanpipe.codec\n{example}"
            f"print(json.dumps([m for m in {SERVER_SIDE!r} if m in sys.modules]))\n")
    assert run_python(code) == []


def test_cli_imports_neither_the_bench_nor_requests():
    code = ("import sys, json\nimport katanpipe.cli\n"
            f"print(json.dumps([m for m in {BENCH_SIDE!r} if m in sys.modules]))\n")
    assert run_python(code) == []


def test_client_round_trip_without_requests():
    code = """
import json, sys, tempfile, threading
sys.modules["requests"] = None  # any import of it now fails
from katanpipe.codec import decrypt_payload
from katanpipe.katan import Key80
from katanpipe.transport import (BlobStore, create_server, fetch_remote_blob,
                                 fetch_remote_meta, send_payload)

with tempfile.TemporaryDirectory() as data:
    store = BlobStore(data)
    server = create_server(("127.0.0.1", 0), store)
    threading.Thread(target=server.serve_forever, daemon=True).start()
    base = f"http://127.0.0.1:{server.server_address[1]}"
    key, payload = Key80(0x1234), bytes(range(256)) * 3
    acks = send_payload(base, "dev", key, payload, per_chunk=True)
    meta = fetch_remote_meta(base, "dev")
    blob = fetch_remote_blob(base, "dev")
    plain = b"".join(decrypt_payload(blob[m.offset:m.offset + m.length],
                                     m.plaintext_len, key) for m in meta)
    server.shutdown()
    server.server_close()
    store.close()
print(json.dumps([len(acks), plain == payload]))
"""
    assert run_python(code) == [3, True]


def third_party_imports(path):
    """Top-level names a module imports from outside the standard library
    and the package."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names - sys.stdlib_module_names - {"katanpipe"}


def test_runtime_needs_only_the_standard_library():
    found = {path.name: third_party_imports(path) for path in SRC.glob("*.py")}
    # The one exception: baselines registers AES-128 only if its guarded
    # import of cryptography succeeds.
    assert {name: mods for name, mods in found.items() if mods} == {
        "baselines.py": {"cryptography"}}
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    assert project.get("dependencies", []) == []
