"""The package root is the device library: importing it, or the codec,
loads neither the HTTP stack nor the bench nor `cryptography`."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Modules a device that only encrypts has no use for.
SERVER_SIDE = ["requests", "cryptography", "http.server", "katanpipe.transport",
               "katanpipe.bench", "katanpipe.baselines"]


def test_root_and_codec_import_only_the_device_library():
    readme = (ROOT / "README.md").read_text()
    example = re.search(r"## Library use\n.*?```python\n(.*?)```", readme, re.S).group(1)
    code = (f"import sys, json\nimport katanpipe\nimport katanpipe.codec\n{example}"
            f"print(json.dumps([m for m in {SERVER_SIDE!r} if m in sys.modules]))\n")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == []
