"""katanpipe: a KATAN32 telemetry pipeline.

The package root is the device library: the KATAN32 cipher (``katan``)
and the chunking codec and JSON envelope (``codec``).  Importing it
loads neither the HTTP stack nor the bench.  The other layers are
imported by module path: ``katanpipe.transport`` (ingest server and
client), ``katanpipe.bench``, ``katanpipe.baselines`` and
``katanpipe.cli``.
"""

from .codec import (
    CHUNK_BYTES,
    Envelope,
    decode_envelope,
    decrypt_payload,
    encode_envelope,
    encrypt_payload,
)
from .errors import KatanPipeError
from .katan import (
    Key80,
    broadcast_key,
    decrypt_batch,
    decrypt_block,
    encrypt_batch,
    encrypt_block,
    extract_lane,
    format_key,
    insert_lane,
    parse_key,
    random_key,
)

__version__ = "0.1.0"
