import random
import subprocess
import sys

import pytest
import requests

from katanpipe.cli import build_parser, main
from katanpipe.katan import Key80, parse_key
from katanpipe.transport import send_payload

TABLE5_CSV = "bytes,ms\n" + "".join(
    f"250,{ms}\n" for ms in (105, 210, 176, 286, 150, 182, 208, 208, 208))


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestKeygen:
    def test_writes_20_hex_digits(self, capsys, tmp_path):
        out_file = tmp_path / "key.txt"
        code, out, err = run_cli(capsys, "keygen", "--out", str(out_file))
        assert code == 0 and err == ""
        parse_key(out_file.read_text())

    def test_stdout_mode(self, capsys):
        code, out, _ = run_cli(capsys, "keygen", "--seed", "7")
        assert code == 0
        assert len(out.strip()) == 20

    def test_seed_is_deterministic(self, capsys):
        _, first, _ = run_cli(capsys, "keygen", "--seed", "42")
        _, second, _ = run_cli(capsys, "keygen", "--seed", "42")
        _, other, _ = run_cli(capsys, "keygen", "--seed", "43")
        assert first == second != other


class TestEncryptDecrypt:
    def test_round_trip_with_len(self, capsys, tmp_path):
        key_file = tmp_path / "key.txt"
        run_cli(capsys, "keygen", "--seed", "1", "--out", str(key_file))
        plain = tmp_path / "plain.bin"
        plain.write_bytes(random.Random(2).randbytes(1234))
        code, out, _ = run_cli(capsys, "encrypt", "--key", str(key_file),
                               "--in", str(plain), "--out", str(tmp_path / "ct.bin"))
        assert code == 0
        assert out.strip() == "plaintext_len 1234"
        assert (tmp_path / "ct.bin").stat().st_size == 1280
        code, _, _ = run_cli(capsys, "decrypt", "--key", str(key_file),
                             "--in", str(tmp_path / "ct.bin"),
                             "--out", str(tmp_path / "back.bin"), "--len", "1234")
        assert code == 0
        assert (tmp_path / "back.bin").read_bytes() == plain.read_bytes()

    def test_len_and_meta_are_exclusive(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "decrypt", "--key", "k", "--in", "a",
                               "--out", "b", "--len", "5", "--meta", "m")
        assert code == 1
        assert err.startswith("error:")

    def test_one_of_len_or_meta_required(self, capsys):
        code, _, err = run_cli(capsys, "decrypt", "--key", "k", "--in", "a", "--out", "b")
        assert code == 1 and err.startswith("error:")

    def test_wrong_len_is_runtime_error(self, capsys, tmp_path):
        key_file = tmp_path / "key.txt"
        run_cli(capsys, "keygen", "--seed", "1", "--out", str(key_file))
        plain = tmp_path / "p.bin"
        plain.write_bytes(b"\x01" * 100)
        run_cli(capsys, "encrypt", "--key", str(key_file), "--in", str(plain),
                "--out", str(tmp_path / "ct.bin"))
        code, _, err = run_cli(capsys, "decrypt", "--key", str(key_file),
                               "--in", str(tmp_path / "ct.bin"),
                               "--out", str(tmp_path / "x.bin"), "--len", "9999")
        assert code == 2
        assert err.startswith("error:")

    # int() reads each of the first three lines as a record that slices
    # real ciphertext; the next two run past the end of the 512-byte blob,
    # and the last holds no record at all.
    @pytest.mark.parametrize("meta", ["0 1 256 -512 256", "0 1 256 +0 256", "0 1 256 0 2_5_6",
                                      "0 1 200 256 300", "0 1 1 999 256", " \n\t"])
    def test_meta_fields_must_be_plain_digits(self, capsys, tmp_path, meta):
        key_file = tmp_path / "key.txt"
        run_cli(capsys, "keygen", "--seed", "1", "--out", str(key_file))
        plain = tmp_path / "p.bin"
        plain.write_bytes(b"\x01" * 512)
        run_cli(capsys, "encrypt", "--key", str(key_file), "--in", str(plain),
                "--out", str(tmp_path / "ct.bin"))
        (tmp_path / "meta.txt").write_text(meta + "\n")
        code, _, err = run_cli(capsys, "decrypt", "--key", str(key_file),
                               "--in", str(tmp_path / "ct.bin"),
                               "--out", str(tmp_path / "x.bin"),
                               "--meta", str(tmp_path / "meta.txt"))
        assert code == 2 and err.startswith("error:")

    def test_missing_key_file(self, capsys, tmp_path):
        plain = tmp_path / "p.bin"
        plain.write_bytes(b"\x01")
        code, _, err = run_cli(capsys, "encrypt", "--key", str(tmp_path / "nope"),
                               "--in", str(plain), "--out", str(tmp_path / "c"))
        assert code == 2 and err.startswith("error:")


class TestServerCommands:
    def test_send_fetch_decrypt_loop(self, capsys, tmp_path, ingest_server):
        base, _ = ingest_server
        key_file = tmp_path / "key.txt"
        run_cli(capsys, "keygen", "--seed", "3", "--out", str(key_file))
        plain = tmp_path / "plain.bin"
        plain.write_bytes(random.Random(4).randbytes(5000))

        code, out, _ = run_cli(capsys, "send", "--server", base, "--device",
                               "cli-dev", "--key", str(key_file), "--in", str(plain))
        assert code == 0
        assert "ack seq 0 stored 5120" in out

        code, out, _ = run_cli(capsys, "fetch", "--server", base, "--device",
                               "cli-dev", "--blob-out", str(tmp_path / "blob.bin"),
                               "--meta-out", str(tmp_path / "meta.txt"))
        assert code == 0
        assert (tmp_path / "blob.bin").stat().st_size == 5120

        code, _, _ = run_cli(capsys, "decrypt", "--key", str(key_file),
                             "--in", str(tmp_path / "blob.bin"),
                             "--out", str(tmp_path / "round.bin"),
                             "--meta", str(tmp_path / "meta.txt"))
        assert code == 0
        assert (tmp_path / "round.bin").read_bytes() == plain.read_bytes()

    def test_per_chunk_send_and_meta_decrypt(self, capsys, tmp_path, ingest_server):
        base, _ = ingest_server
        key_file = tmp_path / "key.txt"
        run_cli(capsys, "keygen", "--seed", "5", "--out", str(key_file))
        plain = tmp_path / "plain.bin"
        plain.write_bytes(random.Random(6).randbytes(1000))

        code, out, _ = run_cli(capsys, "send", "--server", base, "--device", "pc",
                               "--key", str(key_file), "--in", str(plain),
                               "--per-chunk")
        assert code == 0
        assert out.count("ack seq") == 4

        run_cli(capsys, "fetch", "--server", base, "--device", "pc",
                "--blob-out", str(tmp_path / "b.bin"),
                "--meta-out", str(tmp_path / "m.txt"))
        code, _, _ = run_cli(capsys, "decrypt", "--key", str(key_file),
                             "--in", str(tmp_path / "b.bin"),
                             "--out", str(tmp_path / "r.bin"),
                             "--meta", str(tmp_path / "m.txt"))
        assert code == 0
        assert (tmp_path / "r.bin").read_bytes() == plain.read_bytes()

    def test_meta_out_is_the_server_meta_body(self, capsys, tmp_path, ingest_server):
        base, _ = ingest_server
        send_payload(base, "mo", Key80(9), bytes(1000), per_chunk=True)
        code, _, _ = run_cli(capsys, "fetch", "--server", base, "--device", "mo",
                             "--meta-out", str(tmp_path / "m.txt"))
        body = requests.get(f"{base}/api/v1/devices/mo/meta", timeout=5).content
        assert code == 0 and (tmp_path / "m.txt").read_bytes() == body

    def test_fetch_requires_an_output(self, capsys, ingest_server):
        base, _ = ingest_server
        code, _, err = run_cli(capsys, "fetch", "--server", base, "--device", "d")
        assert code == 1 and err.startswith("error:")

    def test_fetch_unknown_device(self, capsys, tmp_path, ingest_server):
        base, _ = ingest_server
        code, _, err = run_cli(capsys, "fetch", "--server", base, "--device",
                               "ghost", "--blob-out", str(tmp_path / "b"))
        assert code == 2 and err.startswith("error:")

    def test_server_down_is_runtime_error(self, capsys, tmp_path):
        key_file = tmp_path / "key.txt"
        run_cli(capsys, "keygen", "--seed", "5", "--out", str(key_file))
        plain = tmp_path / "p.bin"
        plain.write_bytes(b"\x01")
        code, _, err = run_cli(capsys, "send", "--server", "http://127.0.0.1:9",
                               "--device", "d", "--key", str(key_file),
                               "--in", str(plain))
        assert code == 2 and err.startswith("error:")

    def test_serve_subprocess_answers_health(self, tmp_path):
        # Leaving the with block closes the pipes.
        with subprocess.Popen(
                [sys.executable, "-m", "katanpipe", "serve", "--addr", "127.0.0.1:0",
                 "--data", str(tmp_path / "data")],
                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True) as proc:
            try:
                line = proc.stdout.readline()
                assert line.startswith("serving on http://")
                base = line.split()[2]
                assert requests.get(f"{base}/health", timeout=5).text == "ok"
            finally:
                proc.terminate()
                proc.wait(timeout=10)


class TestBenchCommands:
    def test_table5_table_output(self, capsys, tmp_path):
        csv_path = tmp_path / "t5.csv"
        csv_path.write_text(TABLE5_CSV)
        code, out, _ = run_cli(capsys, "bench", "table5", "--csv", str(csv_path))
        assert code == 0
        assert "average Kb/s 11.12" in out

    def test_table5_csv_output(self, capsys, tmp_path):
        csv_path = tmp_path / "t5.csv"
        csv_path.write_text(TABLE5_CSV)
        code, out, _ = run_cli(capsys, "bench", "table5", "--csv", str(csv_path),
                               "--format", "csv")
        assert code == 0
        assert out.splitlines()[0] == "bytes,bits,elapsed_s,bps,kbps"
        assert out.splitlines()[-1] == "average,,,,11.12"

    def test_table5_to_file(self, capsys, tmp_path):
        csv_path = tmp_path / "t5.csv"
        csv_path.write_text(TABLE5_CSV)
        out_path = tmp_path / "report.csv"
        code, out, _ = run_cli(capsys, "bench", "table5", "--csv", str(csv_path),
                               "--format", "csv", "--out", str(out_path))
        assert code == 0 and out == ""
        assert out_path.read_text().endswith("average,,,,11.12\n")

    def test_table5_malformed_csv(self, capsys, tmp_path):
        csv_path = tmp_path / "bad.csv"
        csv_path.write_text("wrong,header\n1,2\n")
        code, _, err = run_cli(capsys, "bench", "table5", "--csv", str(csv_path))
        assert code == 2 and err.startswith("error:")

    def test_rate(self, capsys):
        code, out, _ = run_cli(capsys, "bench", "rate", "--target-bps", "1e9",
                               "--chunk-bytes", "250")
        assert code == 0
        assert "sends_per_s 500000.0" in out
        assert "interval_s 2e-06" in out

    def test_rate_rejects_zero(self, capsys):
        for bps in ("0", "inf"):
            code, _, err = run_cli(capsys, "bench", "rate", "--target-bps", bps)
            assert code == 2 and err.startswith("error:")

    def test_cipher_bench(self, capsys):
        code, out, _ = run_cli(capsys, "bench", "cipher", "--cipher", "KATAN32",
                               "--bytes", "512", "--reps", "2", "--seed", "9")
        assert code == 0
        assert "cipher       KATAN32" in out
        assert "average Kb/s" in out

    def test_cipher_bench_unknown_cipher(self, capsys):
        code, _, err = run_cli(capsys, "bench", "cipher", "--cipher", "ROT13",
                               "--bytes", "512")
        assert code == 2 and err.startswith("error:")

    def test_pipeline_bench(self, capsys, tmp_path, ingest_server):
        base, _ = ingest_server
        key_file = tmp_path / "key.txt"
        run_cli(capsys, "keygen", "--seed", "8", "--out", str(key_file))
        code, out, _ = run_cli(capsys, "bench", "pipeline", "--server", base,
                               "--device", "bd", "--key", str(key_file),
                               "--reps", "2", "--seed", "8")
        assert code == 0
        assert "pipeline to" in out


class TestUsageErrors:
    @pytest.mark.parametrize("argv", [
        [],
        ["nosuchcommand"],
        ["encrypt"],
        ["encrypt", "--key", "k", "--in", "a"],
        ["bench"],
        ["bench", "nosuchbench"],
        ["serve", "--addr", "noport"],
        ["bench", "cipher", "--bytes", "notanint"],
        ["serve", "--addr", "h:99999"],
        ["serve", "--addr", "h:+80"],
        ["serve", "--addr", "h:8_0"],
        ["serve", "--addr", "h:\u0668\u0660"],
        ["serve", "--max-payload", "0"],
        ["serve", "--max-payload", "-5"],
        ["bench", "cipher", "--bytes", "+5_12"],
        ["bench", "cipher", "--bytes", "0"],
        ["bench", "cipher", "--bytes", "-1"],
        ["bench", "cipher", "--reps", "\u0662"],
        ["bench", "cipher", "--reps", "0"],
        ["bench", "cipher", "--reps", "-1"],
        ["bench", "rate", "--target-bps", "1e9", "--chunk-bytes", "2_5_0"],
        ["bench", "rate", "--target-bps", "1e9", "--chunk-bytes", "0"],
        ["bench", "rate", "--target-bps", "1e9", "--chunk-bytes", "-1"],
        ["decrypt", "--key", "k", "--in", "a", "--out", "b", "--len", "+5_12"],
        ["decrypt", "--key", "k", "--in", "a", "--out", "b", "--len", "0"],
        ["decrypt", "--key", "k", "--in", "a", "--out", "b", "--len", "-1"],
    ])
    def test_exit_code_1(self, capsys, monkeypatch, tmp_path, argv):
        # A serve case that parses must fail at BlobStore, not bind and
        # serve forever.
        (tmp_path / "data").touch()
        monkeypatch.setenv("KATANPIPE_DATA", str(tmp_path / "data"))
        monkeypatch.setenv("KATANPIPE_ADDR", "127.0.0.1:0")
        code, _, err = run_cli(capsys, *argv)
        assert code == 1
        assert err.startswith("error:")

    def test_help_exits_zero(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["--help"])
        assert excinfo.value.code == 0

    def test_module_entry_point(self):
        proc = subprocess.run([sys.executable, "-m", "katanpipe", "--help"],
                              capture_output=True, text=True, timeout=30)
        assert proc.returncode == 0
        assert "keygen" in proc.stdout

    def test_env_defaults_feed_serve(self, monkeypatch):
        monkeypatch.setenv("KATANPIPE_ADDR", "127.0.0.1:4567")
        monkeypatch.setenv("KATANPIPE_DATA", "/tmp/kp-data")
        monkeypatch.setenv("KATANPIPE_MAX_PAYLOAD", "2048")
        args = build_parser().parse_args(["serve"])
        assert args.addr == ("127.0.0.1", 4567)
        assert args.data == "/tmp/kp-data"
        assert args.max_payload == 2048

    def test_bad_env_setting_fails_only_serve(self, capsys, monkeypatch, tmp_path):
        monkeypatch.setenv("KATANPIPE_MAX_PAYLOAD", "abc")
        monkeypatch.setenv("KATANPIPE_DATA", str(tmp_path / "data"))
        code, out, err = run_cli(capsys, "keygen", "--seed", "1")
        assert code == 0 and len(out.strip()) == 20 and err == ""
        code, _, err = run_cli(capsys, "serve", "--addr", "127.0.0.1:0")
        assert code == 1
        assert err.startswith("error: argument --max-payload")
        assert not (tmp_path / "data").exists()
