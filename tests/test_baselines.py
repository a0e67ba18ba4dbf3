import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest

from katanpipe import bench
from katanpipe.bench import (
    CIPHERS,
    measure_cipher,
    present_encrypt,
    present_round_keys,
)
from katanpipe.errors import UnknownCipher
from katanpipe.katan import Key80
from reference_impls import present_ref_encrypt, present_ref_round_keys

# Published PRESENT-80 design vectors.
PRESENT_VECTORS = [
    (0x00000000000000000000, 0x0000000000000000, 0x5579C1387B228445),
    (0xFFFFFFFFFFFFFFFFFFFF, 0x0000000000000000, 0xE72C46C0F5945049),
    (0x00000000000000000000, 0xFFFFFFFFFFFFFFFF, 0xA112FFC72F68417B),
    (0xFFFFFFFFFFFFFFFFFFFF, 0xFFFFFFFFFFFFFFFF, 0x3333DCD3213210D2),
]


class TestPresent:
    @pytest.mark.parametrize("key,plain,cipher", PRESENT_VECTORS)
    def test_published_vectors(self, key, plain, cipher):
        assert present_encrypt(plain, key) == cipher

    def test_matches_bit_list_reference(self):
        rng = random.Random(71)
        for _ in range(15):
            key = rng.getrandbits(80)
            block = rng.getrandbits(64)
            assert present_encrypt(block, key) == present_ref_encrypt(block, key)

    def test_round_key_schedule(self):
        rng = random.Random(73)
        for _ in range(10):
            key = rng.getrandbits(80)
            rks = present_round_keys(key)
            assert len(rks) == 32
            assert rks[0] == key >> 16
            assert list(rks) == present_ref_round_keys(key)

    def test_key_range_is_checked(self):
        with pytest.raises(ValueError):
            present_round_keys(1 << 80)
        with pytest.raises(ValueError):
            present_encrypt(0, -1)

    def test_single_bit_flip_changes_ciphertext(self):
        rng = random.Random(79)
        key = rng.getrandbits(80)
        block = rng.getrandbits(64)
        base = present_encrypt(block, key)
        for bit in (0, 17, 63):
            assert present_encrypt(block ^ (1 << bit), key) != base


class TestRegistry:
    def test_names_and_order(self):
        assert list(CIPHERS) == ["KATAN32", "PRESENT", "AES-128"]

    def test_parameter_table(self):
        rng = random.Random(89)
        katan = CIPHERS["KATAN32"]
        assert katan.block_bytes == 4
        assert isinstance(katan.sample_key(rng), Key80)
        present = CIPHERS["PRESENT"]
        assert present.block_bytes == 8
        present_key = present.sample_key(rng)
        assert type(present_key) is int and 0 <= present_key < 1 << 80
        aes = CIPHERS["AES-128"]
        assert aes.block_bytes == 16
        aes_key = aes.sample_key(rng)
        assert type(aes_key) is bytes and len(aes_key) == 16

    def test_unknown_cipher(self):
        with pytest.raises(UnknownCipher, match=re.escape(
                "unknown cipher 'ROT13' (known: AES-128, KATAN32, PRESENT)")):
            measure_cipher("ROT13", total_bytes=16, repetitions=1,
                           rng=random.Random(1))

    def test_aes_fips_vector(self):
        # FIPS-197 appendix C.1
        aes = CIPHERS["AES-128"]
        key = bytes(range(16))
        plain = int("00112233445566778899aabbccddeeff", 16)
        cipher = int("69c4e0d86a7b0430d8cdb78070b4c55a", 16)
        assert aes.encrypt_one(plain, key) == cipher

    def test_without_cryptography_aes_is_not_registered(self):
        # `cryptography` is only in the test extra, so a plain install may
        # lack it: AES-128 is then an unknown cipher, not an import error.
        code = """if True:
            import sys
            sys.modules["cryptography"] = None
            from random import Random
            from katanpipe.bench import CIPHERS, measure_cipher
            from katanpipe.cli import main
            from katanpipe.errors import UnknownCipher
            print(list(CIPHERS))
            try:
                measure_cipher("AES-128", total_bytes=16, repetitions=1,
                               rng=Random(1))
            except UnknownCipher as exc:
                print(exc.reason)
            sys.exit(main(["bench", "cipher", "--cipher", "AES-128"]))
        """
        env = dict(os.environ, PYTHONPATH=str(Path(bench.__file__).parent.parent))
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 2, proc.stderr
        assert proc.stdout == "['KATAN32', 'PRESENT']\nUnknownCipher\n"
        assert proc.stderr == \
            "error: unknown cipher 'AES-128' (known: KATAN32, PRESENT)\n"
