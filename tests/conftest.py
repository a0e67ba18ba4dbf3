import shutil
import subprocess
import threading
from pathlib import Path

import pytest

from katanpipe.transport import DEFAULT_MAX_DECODED, BlobStore, create_server

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
def live_server(tmp_path):
    """A factory for live ingest servers on ephemeral ports.

    ``live_server(max_decoded=, handler=)`` starts one, serving with
    ``handler`` in place of the ingest handler if one is given, and
    returns its base URL and store.  Each is shut down, and its store
    closed, when the test ends.
    """
    started = []

    def start(max_decoded=DEFAULT_MAX_DECODED, handler=None):
        store = BlobStore(tmp_path / f"data{len(started)}")
        server = create_server(("127.0.0.1", 0), store, max_decoded)
        if handler is not None:
            server.RequestHandlerClass = handler
        started.append((server, store))
        # shutdown() waits up to one poll interval, 0.5 s by default.
        threading.Thread(target=server.serve_forever, kwargs={"poll_interval": 0.02},
                         daemon=True).start()
        return f"http://127.0.0.1:{server.server_address[1]}", store

    yield start
    for server, store in started:
        server.shutdown()
        server.server_close()
        store.close()


@pytest.fixture
def ingest_server(live_server):
    """A live ingest server on an ephemeral port, plus its store."""
    return live_server()
