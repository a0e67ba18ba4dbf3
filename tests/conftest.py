import shutil
import subprocess
import threading
from pathlib import Path

import pytest

from katanpipe.transport import BlobStore, create_server

ORACLE_SRC = Path(__file__).parent / "oracle" / "katan32_ref.c"


@pytest.fixture(scope="session")
def katan_oracle(tmp_path_factory):
    """Compile the independent C implementation and return a line driver.

    The driver answers one line per request: ``enc KEYHEX BLOCKHEX``,
    ``dec KEYHEX BLOCKHEX``, ``ks KEYHEX`` and ``ir``.
    """
    cc = shutil.which("cc") or shutil.which("gcc")
    if cc is None:
        pytest.skip("no C compiler on PATH")
    exe = tmp_path_factory.mktemp("oracle") / "katan32_ref"
    subprocess.run([cc, "-O2", "-o", str(exe), str(ORACLE_SRC)], check=True)

    def run(lines):
        proc = subprocess.run([str(exe)], input="\n".join(lines) + "\n",
                              capture_output=True, text=True, check=True)
        return proc.stdout.split()

    return run


@pytest.fixture
def ingest_server(tmp_path):
    """A live ingest server on an ephemeral port, plus its store."""
    store = BlobStore(tmp_path / "data")
    server = create_server(("127.0.0.1", 0), store)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield f"http://127.0.0.1:{server.server_address[1]}", store
    finally:
        server.shutdown()
        server.server_close()
        store.close()
