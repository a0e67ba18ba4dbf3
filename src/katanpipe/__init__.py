"""katanpipe: a KATAN32 telemetry pipeline.

Encrypt small-device payloads with a bitsliced KATAN32, ship them as
JSON envelopes to an HTTP ingest service that stores ciphertext only,
fetch and decrypt them later, and measure throughput along the way.
"""

from .baselines import CipherDescriptor, get_cipher, list_ciphers, register
from .bench import (
    BenchReport,
    ThroughputSample,
    compute_throughput,
    emit_report,
    measure_cipher,
    measure_pipeline,
    sends_per_second,
    summarize,
)
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
    expand_key,
    extract_lane,
    format_key,
    insert_lane,
    ir_sequence,
    parse_key,
    random_key,
)
from .transport import (
    BlobStore,
    IngestAck,
    MetaRecord,
    create_server,
    fetch_remote_blob,
    fetch_remote_meta,
    ingest,
    send_payload,
)

__version__ = "0.1.0"
