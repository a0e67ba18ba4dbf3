"""Acceptance suite: one test per release criterion.

Each test checks a pinned tolerance and a wall-clock budget, and prints
a single scorecard line on success.  Budgets are asserted after the
correctness checks so a slow pass still reports what failed first.
"""

import random
import time

import numpy as np

from katanpipe.baselines import present_encrypt
from katanpipe.bench import (
    BenchReport,
    ThroughputSample,
    measure_cipher,
    sends_per_second,
)
from katanpipe.codec import decrypt_payload, encrypt_payload
from katanpipe.katan import (
    Key80,
    broadcast_key,
    decrypt_batch,
    decrypt_block,
    encrypt_batch,
    encrypt_block,
    extract_lane,
)
from katanpipe.transport import fetch_remote_blob, fetch_remote_meta, send_payload


def test_c1_scalar_path_matches_compiled_reference(katan_oracle):
    t0 = time.perf_counter()
    rng = random.Random(0xC1)
    pairs = [(rng.getrandbits(80), rng.getrandbits(32)) for _ in range(1000)]

    expected_ct = [int(x, 16) for x in
                   katan_oracle([f"enc {k:020x} {b:08x}" for k, b in pairs])]
    got_ct = [encrypt_block(b, Key80(k)) for k, b in pairs]
    assert got_ct == expected_ct

    expected_pt = [int(x, 16) for x in
                   katan_oracle([f"dec {k:020x} {c:08x}"
                                 for (k, _), c in zip(pairs, expected_ct)])]
    assert expected_pt == [b for _, b in pairs]
    got_pt = [decrypt_block(c, Key80(k)) for (k, _), c in zip(pairs, expected_ct)]
    assert got_pt == [b for _, b in pairs]

    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    print(f"C1: PASS scalar encrypt+decrypt match the compiled reference "
          f"on 1000 key/block pairs ({elapsed:.2f}s)")


def test_c2_bitsliced_lanes_match_scalar():
    t0 = time.perf_counter()
    rng = random.Random(0xC2)
    lanes_checked = 0
    for batch_index in range(1000):
        key = Key80(rng.getrandbits(80))
        key_words = broadcast_key(key)
        batch = tuple(rng.getrandbits(64) for _ in range(32))
        out = encrypt_batch(batch, key_words)

        lanes_in = np.array([extract_lane(batch, j) for j in range(64)],
                            dtype=np.uint64)
        lanes_out = np.array([extract_lane(out, j) for j in range(64)],
                             dtype=np.uint64)
        assert (encrypt_block(lanes_in, key) == lanes_out).all()
        lanes_checked += 64

        assert decrypt_batch(out, key_words) == batch
        if batch_index % 100 == 0:
            lane = rng.randrange(64)
            assert (encrypt_block(int(lanes_in[lane]), key)
                    == int(lanes_out[lane]))

    elapsed = time.perf_counter() - t0
    assert lanes_checked == 64000
    assert elapsed < 30.0
    print(f"C2: PASS all 64 lanes of 1000 random batches equal the scalar "
          f"path ({elapsed:.2f}s)")


def test_c3_codec_round_trip_spanning_lengths():
    t0 = time.perf_counter()
    rng = random.Random(0xC3)
    lengths = [1, 2, 255, 256, 257, 65536]
    lengths += [rng.randrange(1, 65537) for _ in range(200 - len(lengths))]
    for n in lengths:
        key = Key80(rng.getrandbits(80))
        data = rng.randbytes(n)
        ciphertext, plaintext_len = encrypt_payload(data, key)
        assert plaintext_len == n
        assert len(ciphertext) == -(-n // 256) * 256
        assert decrypt_payload(ciphertext, plaintext_len, key) == data

    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    print(f"C3: PASS 200 payloads of 1..65536 bytes survive the codec "
          f"round trip ({elapsed:.2f}s)")


def test_c4_measured_rate_table_replays():
    t0 = time.perf_counter()
    rows = [  # (bytes, ms, published b/s)
        (250, 105, 19047.62),
        (250, 210, 9523.81),
        (250, 176, 11363.64),
        (250, 286, 6993.01),
        (250, 150, 13333.33),
        (250, 182, 10989.01),
        (250, 208, 9615.38),
        (250, 208, 9615.38),
        (250, 208, 9615.38),
    ]
    samples = []
    for n_bytes, ms, published_bps in rows:
        sample = ThroughputSample(n_bytes, ms / 1000.0)
        assert abs(sample.bps - published_bps) <= 0.01
        samples.append(sample)
    report = BenchReport("KATAN32", "replayed", tuple(samples))
    assert report.average_kbps == 11.12

    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    print(f"C4: PASS all nine measured rates replay within 0.01 b/s and "
          f"average exactly 11.12 Kb/s ({elapsed:.2f}s)")


def test_c5_send_rate_arithmetic_is_exact():
    t0 = time.perf_counter()
    sends, interval = sends_per_second(1e9, 250)
    assert sends == 500000.0
    assert interval == 2e-06
    assert sends_per_second(10 ** 9, 250) == (500000.0, 2e-06)

    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    print(f"C5: PASS a 1 Gb/s target is exactly 500000 sends/s at 2 us "
          f"intervals ({elapsed:.2f}s)")


def test_c6_end_to_end_loopback_stores_only_ciphertext(ingest_server):
    t0 = time.perf_counter()
    base, _ = ingest_server
    rng = random.Random(0xC6)
    key = Key80(rng.getrandbits(80))
    data = rng.randbytes(10 * 1024)

    send_payload(base, "dev-c6", key, data)
    blob = fetch_remote_blob(base, "dev-c6")
    records = fetch_remote_meta(base, "dev-c6")
    out = b"".join(
        decrypt_payload(blob[r.offset:r.offset + r.length], r.plaintext_len, key)
        for r in records)
    assert out == data

    assert len(blob) == len(data)  # 10 KiB is a whole number of chunks
    differing = sum(1 for a, b in zip(blob, data) if a != b)
    assert differing >= 0.30 * len(data)

    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    print(f"C6: PASS 10 KiB loopback is bit-exact and the stored blob "
          f"differs from the plaintext in {differing / len(data):.0%} of "
          f"bytes ({elapsed:.2f}s)")


def test_c7_avalanche_behaviour():
    t0 = time.perf_counter()
    rng = random.Random(0xC7)
    flips = 10000
    per_key = 1000
    total_distance = 0
    for _ in range(flips // per_key):
        key = Key80(rng.getrandbits(80))
        blocks = np.array([rng.getrandbits(32) for _ in range(per_key)],
                          dtype=np.uint64)
        masks = np.array([1 << rng.randrange(32) for _ in range(per_key)],
                         dtype=np.uint64)
        delta = encrypt_block(blocks, key) ^ encrypt_block(blocks ^ masks, key)
        total_distance += sum(int(d).bit_count() for d in delta)
    mean = total_distance / flips
    assert 14.5 <= mean <= 17.5

    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    print(f"C7: PASS mean avalanche distance over {flips} single-bit flips "
          f"is {mean:.3f} bits ({elapsed:.2f}s)")


def test_c8_present_published_vectors():
    t0 = time.perf_counter()
    vectors = [
        (0x00000000000000000000, 0x0000000000000000, 0x5579C1387B228445),
        (0xFFFFFFFFFFFFFFFFFFFF, 0x0000000000000000, 0xE72C46C0F5945049),
        (0x00000000000000000000, 0xFFFFFFFFFFFFFFFF, 0xA112FFC72F68417B),
        (0xFFFFFFFFFFFFFFFFFFFF, 0xFFFFFFFFFFFFFFFF, 0x3333DCD3213210D2),
    ]
    for key, plain, cipher in vectors:
        assert present_encrypt(plain, key) == cipher

    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    print(f"C8: PASS PRESENT-80 matches all four published vectors "
          f"({elapsed:.2f}s)")


def test_c9_measured_cipher_rate_clears_the_reported_average():
    t0 = time.perf_counter()
    report = measure_cipher("KATAN32", total_bytes=4096, repetitions=9,
                            rng=random.Random(0xC9))
    assert report.average_kbps >= 11.12

    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    print(f"C9: PASS KATAN32 measures {report.average_kbps:.2f} Kb/s, "
          f"clearing the 11.12 Kb/s reference average ({elapsed:.2f}s)")
