import contextlib
import datetime
import ipaddress
import json
import os
import random
import socket
import ssl
import threading
import time
from http.server import BaseHTTPRequestHandler

import pytest
import requests

from katanpipe import errors, transport
from katanpipe.codec import Envelope, decrypt_payload, encode_envelope, encrypt_payload
from katanpipe.katan import Key80
from katanpipe.transport import (
    LOG_NAME,
    BlobStore,
    MetaRecord,
    check_device_id,
    fetch_remote_blob,
    fetch_remote_meta,
    format_meta,
    ingest,
    now_ms,
    parse_meta,
    send_payload,
)


# Past Python's int-string digit limit json.loads raises a plain
# ValueError, not a JSONDecodeError.
OVERLONG_INT_BODY = b'{"seq": 1' + b"0" * 5000 + b"}"
# Nested past the recursion limit json.loads raises RecursionError.
DEEP_NESTED_BODY = b"[" * 100_000


def make_key(seed):
    return Key80(random.Random(seed).getrandbits(80))


def make_body(device_id="dev", seq=0, n=300, key=None, seed=7, cipher="KATAN32"):
    rng = random.Random(seed)
    key = key or Key80(rng.getrandbits(80))
    data = rng.randbytes(n)
    ciphertext, plaintext_len = encrypt_payload(data, key)
    env = Envelope(device_id, seq, now_ms(), plaintext_len, ciphertext)
    # encode_envelope always writes KATAN32, so relabel the encoded body.
    body = json.dumps(dict(json.loads(encode_envelope(env)), cipher=cipher))
    return body, data, key, ciphertext


def self_signed_tls(tmp_path, host="127.0.0.1"):
    """Write a self-signed certificate for the IP address ``host``; return
    its path and a server-side SSLContext that presents it."""
    pytest.importorskip("cryptography")
    from cryptography import x509
    from cryptography.hazmat.primitives import hashes, serialization
    from cryptography.hazmat.primitives.asymmetric import ec
    from cryptography.x509.oid import ExtendedKeyUsageOID, NameOID

    key = ec.generate_private_key(ec.SECP256R1())
    name = x509.Name([x509.NameAttribute(NameOID.COMMON_NAME, host)])
    now = datetime.datetime.now(datetime.timezone.utc)
    cert = (x509.CertificateBuilder()
            .subject_name(name).issuer_name(name)
            .public_key(key.public_key())
            .serial_number(x509.random_serial_number())
            .not_valid_before(now - datetime.timedelta(minutes=5))
            .not_valid_after(now + datetime.timedelta(days=1))
            .add_extension(x509.SubjectAlternativeName(
                [x509.IPAddress(ipaddress.ip_address(host))]), critical=False)
            .add_extension(x509.ExtendedKeyUsage(
                [ExtendedKeyUsageOID.SERVER_AUTH]), critical=False)
            .sign(key, hashes.SHA256()))
    cert_file, key_file = tmp_path / "cert.pem", tmp_path / "key.pem"
    cert_file.write_bytes(cert.public_bytes(serialization.Encoding.PEM))
    key_file.write_bytes(key.private_bytes(
        serialization.Encoding.PEM, serialization.PrivateFormat.PKCS8,
        serialization.NoEncryption()))
    context = ssl.SSLContext(ssl.PROTOCOL_TLS_SERVER)
    context.load_cert_chain(cert_file, key_file)
    return cert_file, context


def requests_response(content):
    resp = requests.Response()
    resp.status_code, resp._content, resp.encoding = 400, content, "utf-8"
    return resp


class TestDeviceId:
    @pytest.mark.parametrize("good", ["a", "dev-1", "A.B_c-9", "x" * 64, "..", "."])
    def test_accepts(self, good):
        assert check_device_id(good) == good

    @pytest.mark.parametrize("bad", ["", "x" * 65, "a/b", "a b", "dev\x00", "dév", 7, None])
    def test_rejects(self, bad):
        with pytest.raises(errors.BadDeviceId):
            check_device_id(bad)


class TestMetaRecord:
    def test_line_format(self):
        rec = MetaRecord(seq=3, ts_ms=1723900000000, plaintext_len=300,
                         offset=512, length=512)
        assert format_meta([rec]) == "3 1723900000000 300 512 512\n"
        assert parse_meta(format_meta([rec])) == [rec]

    def test_blank_lines_skipped(self):
        assert parse_meta("") == []
        assert parse_meta(" \n\n1 2 3 4 5\n\t\n") == [MetaRecord(1, 2, 3, 4, 5)]

    @pytest.mark.parametrize("bad", [
        "1 2 3 4", "1 2 3 4 5 6", "a b c d e",
        pytest.param("1" * 5000 + " 2 3 4 5", id="past the int-string digit limit"),
        # int() reads all of these.
        "0 1 2 -256 256", "+1 2 3 4 5", "1_000 2 3 4 5", "\u0663 2 3 4 5",
    ])
    def test_parse_rejects(self, bad):
        with pytest.raises(ValueError):
            parse_meta(bad)


class TestBlobStore:
    def test_append_and_fetch(self, tmp_path):
        store = BlobStore(tmp_path)
        r1 = store.append("dev", b"\xAA" * 256, seq=0, ts_ms=5, plaintext_len=100)
        r2 = store.append("dev", b"\xBB" * 512, seq=1, ts_ms=6, plaintext_len=500)
        assert (r1.offset, r1.length) == (0, 256)
        assert (r2.offset, r2.length) == (256, 512)
        assert store.fetch_blob("dev") == b"\xAA" * 256 + b"\xBB" * 512
        assert store.fetch_meta("dev") == [r1, r2]

    def test_data_dir_holds_only_the_log(self, tmp_path):
        store = BlobStore(tmp_path)
        store.append("sensor.9", b"\x01" * 16, seq=0, ts_ms=1, plaintext_len=16)
        store.append("sensor.7", b"\x02" * 16, seq=0, ts_ms=2, plaintext_len=16)
        store.close()
        assert os.listdir(tmp_path) == [LOG_NAME]

    def test_reopen_reads_back_every_record(self, tmp_path):
        store = BlobStore(tmp_path)
        records = {"a": [], "b": []}
        for i in range(6):
            device = "ab"[i % 2]
            records[device].append(store.append(
                device, bytes([i]) * 256 * (i + 1), seq=i, ts_ms=1000 + i,
                plaintext_len=200 + i))
        blobs = {d: store.fetch_blob(d) for d in records}
        store.close()
        reopened = BlobStore(tmp_path)
        try:
            for device, expected in records.items():
                assert reopened.fetch_meta(device) == expected
                assert reopened.fetch_blob(device) == blobs[device]
        finally:
            reopened.close()

    def test_torn_last_record_is_cut_on_reopen(self, tmp_path):
        store = BlobStore(tmp_path)
        kept = [store.append("a", b"\x01" * 256, seq=0, ts_ms=1, plaintext_len=256),
                store.append("b", b"\x02" * 512, seq=0, ts_ms=2, plaintext_len=300)]
        log_path = tmp_path / LOG_NAME
        good_end = log_path.stat().st_size
        store.append("a", b"\x03" * 256, seq=1, ts_ms=3, plaintext_len=5)
        store.close()
        whole = log_path.read_bytes()
        for cut in range(good_end, len(whole)):
            # Rewrite in place: truncating a file to zero can force a
            # slow flush on ext4.
            with open(log_path, "r+b") as f:
                f.write(whole[:cut])
                f.truncate()
            store = BlobStore(tmp_path)
            try:
                assert log_path.stat().st_size == good_end, cut
                assert store.fetch_meta("a") == kept[:1]
                assert store.fetch_meta("b") == kept[1:]
                assert store.fetch_blob("a") == b"\x01" * 256
                rec = store.append("a", b"\x04" * 256, seq=2, ts_ms=4, plaintext_len=9)
                assert (rec.offset, rec.length) == (256, 256)
                assert store.fetch_blob("a") == b"\x01" * 256 + b"\x04" * 256
            finally:
                store.close()

    def test_corrupt_last_record_is_cut_on_reopen(self, tmp_path):
        store = BlobStore(tmp_path)
        store.append("a", b"\x01" * 256, seq=0, ts_ms=1, plaintext_len=256)
        store.append("a", b"\x02" * 256, seq=1, ts_ms=2, plaintext_len=256)
        store.close()
        with open(tmp_path / LOG_NAME, "r+b") as f:
            f.seek(-1, os.SEEK_END)
            last = f.read(1)[0]
            f.seek(-1, os.SEEK_END)
            f.write(bytes([last ^ 0xFF]))
        store = BlobStore(tmp_path)
        try:
            assert [r.seq for r in store.fetch_meta("a")] == [0]
            assert store.fetch_blob("a") == b"\x01" * 256
        finally:
            store.close()

    # Each record's crc is valid, so only the meta parse can stop the scan.
    @pytest.mark.parametrize("meta", [b"a 1 2 x", b"a 1 2", b"", b"\xff 1 2 3"])
    def test_record_with_unreadable_meta_is_cut_on_reopen(self, tmp_path, meta):
        store = BlobStore(tmp_path)
        kept = store.append("a", b"\x01" * 256, seq=0, ts_ms=1, plaintext_len=256)
        store.close()
        log_path = tmp_path / LOG_NAME
        good_end = log_path.stat().st_size
        with open(log_path, "ab") as f:
            f.write(transport._record_head(meta, b"\x02" * 256) + b"\x02" * 256)
        store = BlobStore(tmp_path)
        try:
            assert log_path.stat().st_size == good_end
            assert store.fetch_meta("a") == [kept]
        finally:
            store.close()

    @pytest.mark.parametrize("fault, message", [
        pytest.param("fsync", "disk gone", id="fsync"),
        pytest.param("short-write", "short write", id="short-write")])
    def test_failed_append_leaves_no_partial_record(self, tmp_path, monkeypatch,
                                                    fault, message):
        store = BlobStore(tmp_path)
        first = store.append("a", b"\x01" * 256, seq=0, ts_ms=1, plaintext_len=256)
        size = (tmp_path / LOG_NAME).stat().st_size
        pwritev = os.pwritev

        def failing_fsync(fd):
            raise OSError("disk gone")

        def short_pwritev(fd, buffers, offset):
            # Really writes the record, all but its last byte.
            return pwritev(fd, [b"".join(buffers)[:-1]], offset)

        with monkeypatch.context() as m:
            if fault == "fsync":
                m.setattr(os, "fsync", failing_fsync)
            else:
                m.setattr(os, "pwritev", short_pwritev)
            with pytest.raises(OSError, match=message):
                store.append("a", b"\x02" * 256, seq=1, ts_ms=2, plaintext_len=256)
        assert (tmp_path / LOG_NAME).stat().st_size == size
        assert store.fetch_meta("a") == [first]
        second = store.append("a", b"\x03" * 256, seq=2, ts_ms=3, plaintext_len=256)
        store.close()
        store = BlobStore(tmp_path)
        try:
            assert store.fetch_meta("a") == [first, second]
            assert store.fetch_blob("a") == b"\x01" * 256 + b"\x03" * 256
        finally:
            store.close()

    def test_unknown_device(self, tmp_path):
        store = BlobStore(tmp_path)
        with pytest.raises(errors.UnknownDevice):
            store.fetch_blob("ghost")
        with pytest.raises(errors.UnknownDevice):
            store.fetch_meta("ghost")

    def test_bad_device_id(self, tmp_path):
        store = BlobStore(tmp_path)
        with pytest.raises(errors.BadDeviceId):
            store.append("a/b", b"", seq=0, ts_ms=0, plaintext_len=0)
        with pytest.raises(errors.BadDeviceId):
            store.fetch_blob("a/b")

    def test_devices_are_isolated(self, tmp_path):
        store = BlobStore(tmp_path)
        store.append("a", b"\x01" * 256, seq=0, ts_ms=0, plaintext_len=1)
        store.append("b", b"\x02" * 256, seq=0, ts_ms=0, plaintext_len=2)
        assert store.fetch_blob("a") == b"\x01" * 256
        assert store.fetch_blob("b") == b"\x02" * 256


class TestIngestFunction:
    def test_ok(self, tmp_path):
        store = BlobStore(tmp_path)
        body, _, _, ciphertext = make_body(device_id="d1", n=300)
        assert ingest(store, body) == len(ciphertext) == 512
        assert store.fetch_blob("d1") == ciphertext

    def test_stores_exactly_what_arrived(self, tmp_path):
        store = BlobStore(tmp_path)
        body, data, _, ciphertext = make_body(device_id="d2", n=256)
        ingest(store, body)
        blob = store.fetch_blob("d2")
        assert blob == ciphertext
        assert blob != data

    @pytest.mark.parametrize("body,reason", [
        (b"not json", "MalformedJson"),
        pytest.param(OVERLONG_INT_BODY, "MalformedJson", id="overlong int-MalformedJson"),
        pytest.param(DEEP_NESTED_BODY, "MalformedJson", id="deep nesting-MalformedJson"),
        (b"{}", "MissingField"),
        # The store keeps no cipher name, so every reader would take
        # another cipher's ciphertext for KATAN32.
        pytest.param(make_body(cipher="PRESENT")[0], "UnknownCipher",
                     id="PRESENT-UnknownCipher"),
        pytest.param(make_body(cipher="AES-128")[0], "UnknownCipher",
                     id="AES-128-UnknownCipher"),
    ])
    def test_rejects_to_400(self, tmp_path, body, reason):
        with pytest.raises(errors.KatanPipeError) as excinfo:
            ingest(BlobStore(tmp_path), body)
        assert excinfo.value.status == 400 and excinfo.value.reason == reason

    def test_bad_device_id_is_400(self, tmp_path):
        body, _, _, _ = make_body(device_id="x" * 65)
        with pytest.raises(errors.BadDeviceId) as excinfo:
            ingest(BlobStore(tmp_path), body)
        assert excinfo.value.status == 400

    def test_oversize_is_413(self, tmp_path):
        body, _, _, _ = make_body(n=600)
        with pytest.raises(errors.PayloadTooLarge) as excinfo:
            ingest(BlobStore(tmp_path), body, max_decoded=256)
        assert excinfo.value.status == 413

    def test_failed_append_is_500(self, tmp_path, monkeypatch):
        store = BlobStore(tmp_path)

        def failing_fsync(fd):
            raise OSError("disk gone")

        monkeypatch.setattr(os, "fsync", failing_fsync)
        with pytest.raises(errors.StorageFailure) as excinfo:
            ingest(store, make_body()[0])
        assert excinfo.value.status == 500

    def test_meta_records_envelope_fields(self, tmp_path):
        store = BlobStore(tmp_path)
        body, _, _, _ = make_body(device_id="d3", seq=9, n=100)
        ingest(store, body)
        rec = store.fetch_meta("d3")[0]
        assert rec.seq == 9 and rec.plaintext_len == 100
        assert (rec.offset, rec.length) == (0, 256)


class TestHttpServer:
    def test_health(self, ingest_server):
        base, _ = ingest_server
        resp = requests.get(f"{base}/health", timeout=5)
        assert resp.status_code == 200 and resp.text == "ok"

    def test_ingest_blob_meta_loop(self, ingest_server):
        base, _ = ingest_server
        body, data, key, ciphertext = make_body(device_id="loop", n=700)
        resp = requests.post(f"{base}/api/v1/ingest", data=body.encode(), timeout=5)
        assert resp.status_code == 200
        assert resp.json() == {"status": "ok", "stored": 768}
        blob = requests.get(f"{base}/api/v1/devices/loop/blob", timeout=5)
        assert blob.headers["Content-Type"] == "application/octet-stream"
        assert blob.content == ciphertext
        meta = requests.get(f"{base}/api/v1/devices/loop/meta", timeout=5)
        (rec,) = parse_meta(meta.text)
        assert (rec.plaintext_len, rec.offset, rec.length) == (700, 0, 768)
        assert decrypt_payload(blob.content, rec.plaintext_len, key) == data

    def test_unknown_device_404(self, ingest_server):
        base, _ = ingest_server
        for kind in ("blob", "meta"):
            resp = requests.get(f"{base}/api/v1/devices/ghost/{kind}", timeout=5)
            assert resp.status_code == 404
            assert resp.json() == {"status": "rejected", "reason": "UnknownDevice"}

    def test_bad_device_id_400(self, ingest_server):
        base, _ = ingest_server
        for kind in ("blob", "meta"):
            resp = requests.get(f"{base}/api/v1/devices/bad%20id/{kind}", timeout=5)
            assert resp.status_code == 400
            assert resp.json() == {"status": "rejected", "reason": "BadDeviceId"}

    def test_unknown_path_404(self, ingest_server):
        base, _ = ingest_server
        for resp in (requests.get(f"{base}/api/v2/na", timeout=5),
                     requests.post(f"{base}/api/v1/other", data=b"{}", timeout=5)):
            assert resp.status_code == 404
            assert resp.json() == {"status": "rejected", "reason": "NotFound"}

    def test_malformed_envelope_400(self, ingest_server):
        base, _ = ingest_server
        resp = requests.post(f"{base}/api/v1/ingest", data=b"not json", timeout=5)
        assert resp.status_code == 400
        assert resp.json()["reason"] == "MalformedJson"

    def test_overlong_integer_gets_a_reply(self, ingest_server):
        base, _ = ingest_server
        resp = requests.post(f"{base}/api/v1/ingest", data=OVERLONG_INT_BODY, timeout=5)
        assert resp.status_code == 400
        assert resp.json() == {"status": "rejected", "reason": "MalformedJson"}

    def test_deep_nesting_gets_a_reply(self, ingest_server):
        base, _ = ingest_server
        resp = requests.post(f"{base}/api/v1/ingest", data=DEEP_NESTED_BODY, timeout=5)
        assert resp.status_code == 400
        assert resp.json() == {"status": "rejected", "reason": "MalformedJson"}

    def test_non_ascii_payload_is_bad_base64(self, ingest_server):
        base, _ = ingest_server
        obj = json.loads(make_body(n=256)[0])
        obj["payload"] += "é"
        body = json.dumps(obj, ensure_ascii=False).encode("utf-8")
        resp = requests.post(f"{base}/api/v1/ingest", data=body, timeout=5)
        assert resp.status_code == 400
        assert resp.json() == {"status": "rejected", "reason": "BadBase64"}
        assert requests.get(f"{base}/health", timeout=5).text == "ok"

    @pytest.mark.parametrize("method,path", [
        ("POST", "/api/v1/ingest"), ("GET", "/api/v1/devices/dev/blob")])
    def test_unexpected_exception_is_500(self, ingest_server, monkeypatch, method, path):
        base, store = ingest_server

        def broken(*args, **kwargs):
            raise RuntimeError("store bug")

        monkeypatch.setattr(store, "append", broken)
        monkeypatch.setattr(store, "fetch_blob", broken)
        body = make_body()[0].encode() if method == "POST" else None
        resp = requests.request(method, base + path, data=body, timeout=5)
        assert resp.status_code == 500
        assert resp.headers["Connection"] == "close"
        assert resp.json() == {"status": "rejected", "reason": "InternalError"}
        assert requests.get(f"{base}/health", timeout=5).text == "ok"

    @pytest.mark.parametrize("request_head,body,status", [
        ("POST /api/v1/ingest", b"not json", 400),
        ("GET /api/v1/nowhere", b"", 404),
        ("POST /api/v1/ingest", b"", 413),
    ])
    def test_rejection_says_connection_close(self, ingest_server,
                                             request_head, body, status):
        base, _ = ingest_server
        port = int(base.rsplit(":", 1)[1])
        # 413: the declared length is over the cap, so no body is read.
        length = 3 << 20 if status == 413 else len(body)
        with socket.create_connection(("127.0.0.1", port), timeout=3) as sock:
            sock.sendall(f"{request_head} HTTP/1.1\r\nHost: x\r\n"
                         f"Content-Length: {length}\r\n\r\n".encode("ascii") + body)
            with sock.makefile("rb") as reply:
                head = reply.read().split(b"\r\n\r\n", 1)[0]
        lines = head.decode("ascii").split("\r\n")
        assert lines[0].startswith(f"HTTP/1.1 {status} ")
        assert "connection: close" in [line.lower() for line in lines[1:]]

    # Requests http.server turns away before any do_* method runs.
    @pytest.mark.parametrize("request_bytes,status,reason", [
        (b"PUT /api/v1/ingest HTTP/1.1\r\nHost: x\r\n\r\n", 501, "UnsupportedMethod"),
        (b"HEAD /health HTTP/1.1\r\nHost: x\r\n\r\n", 501, "UnsupportedMethod"),
        (b"GET /health HTTP/1.1\r\nX-Long: " + b"a" * 70_000 + b"\r\n\r\n",
         431, "HeaderTooLarge"),
        (b"GET /" + b"a" * 70_000 + b" HTTP/1.1\r\n\r\n", 414, "RequestLineTooLong"),
        (b"GARBAGE\r\n\r\n", 400, "MalformedRequest"),
        (b"GET / HTTP/9.9\r\n\r\n", 505, "UnsupportedVersion"),
    ])
    def test_requests_http_server_refuses_get_typed_replies(
            self, ingest_server, request_bytes, status, reason):
        base, _ = ingest_server
        port = int(base.rsplit(":", 1)[1])
        replies = b""
        with socket.create_connection(("127.0.0.1", port), timeout=3) as sock:
            sock.sendall(request_bytes)
            # The server closes with the rest of an overlong line unread,
            # which may reset the connection after its reply.
            with contextlib.suppress(ConnectionResetError):
                while chunk := sock.recv(65536):
                    replies += chunk
        head, _, body = replies.partition(b"\r\n\r\n")
        lines = head.decode("ascii").split("\r\n")
        assert lines[0].startswith(f"HTTP/1.1 {status} ")
        headers = dict(line.lower().split(": ", 1) for line in lines[1:])
        assert headers["connection"] == "close"
        assert headers["content-type"] == "application/json"
        assert getattr(errors, reason).status == status
        expected = json.dumps({"status": "rejected", "reason": reason}).encode()
        assert int(headers["content-length"]) == len(expected)
        assert body == (b"" if request_bytes.startswith(b"HEAD ") else expected)
        assert requests.get(f"{base}/health", timeout=5).text == "ok"

    @pytest.mark.parametrize("chunked", [False, True])
    def test_get_with_a_body_closes_the_connection(self, ingest_server, chunked):
        base, _ = ingest_server
        port = int(base.rsplit(":", 1)[1])
        smuggled = b"GET /health HTTP/1.1\r\nHost: x\r\n\r\n"
        if chunked:
            framing = b"Transfer-Encoding: chunked"
            body = b"%x\r\n%s\r\n0\r\n\r\n" % (len(smuggled), smuggled)
        else:
            framing, body = b"Content-Length: %d" % len(smuggled), smuggled
        with socket.create_connection(("127.0.0.1", port), timeout=3) as sock:
            sock.sendall(b"GET /health HTTP/1.1\r\nHost: x\r\n%s\r\n\r\n%s"
                         % (framing, body))
            with sock.makefile("rb") as reply:
                replies = reply.read()
        # The unread body is not answered as a second request.
        assert replies.count(b"HTTP/1.1 ") == 1
        assert b"\r\nConnection: close\r\n" in replies

    # RFC 9112 gives Transfer-Encoding precedence over Content-Length, so
    # a valid envelope framed by Content-Length must not be stored.
    @pytest.mark.parametrize("encoding,with_length", [
        ("chunked", True), ("chunked", False), ("identity", True)])
    def test_transfer_encoding_is_rejected_unread(self, ingest_server,
                                                  encoding, with_length):
        base, store = ingest_server
        port = int(base.rsplit(":", 1)[1])
        body = make_body(device_id="te")[0].encode()
        framing = f"Transfer-Encoding: {encoding}\r\n"
        if with_length:
            framing += f"Content-Length: {len(body)}\r\n"
        else:
            body = b"%x\r\n%s\r\n0\r\n\r\n" % (len(body), body)
        with socket.create_connection(("127.0.0.1", port), timeout=3) as sock:
            sock.sendall(f"POST /api/v1/ingest HTTP/1.1\r\nHost: x\r\n"
                         f"{framing}\r\n".encode("ascii") + body)
            with sock.makefile("rb") as reply:
                replies = reply.read()
        head, _, reply_body = replies.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 400 ")
        assert b"\r\nConnection: close" in head
        assert json.loads(reply_body)["reason"] == "MalformedJson"
        assert replies.count(b"HTTP/1.1 ") == 1
        with pytest.raises(errors.UnknownDevice):
            store.fetch_meta("te")

    def test_short_body_times_out_with_408(self, ingest_server, monkeypatch):
        monkeypatch.setattr(transport._Handler, "timeout", 0.5)
        base, _ = ingest_server
        port = int(base.rsplit(":", 1)[1])
        with socket.create_connection(("127.0.0.1", port), timeout=5) as sock:
            # The socket stays open, so only the server's timeout ends the read.
            sock.sendall(b"POST /api/v1/ingest HTTP/1.1\r\nHost: x\r\n"
                         b"Content-Length: 100\r\n\r\n" + b"{" * 10)
            with sock.makefile("rb") as reply:
                replies = reply.read()
        head, _, reply_body = replies.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 408 ")
        assert b"\r\nConnection: close" in head
        assert json.loads(reply_body) == {"status": "rejected",
                                          "reason": "RequestTimeout"}

    # RFC 9110 allows one value of only digits; int() would read +512
    # and 5_1_2 as 512.  "512,512" sends the header twice.
    @pytest.mark.parametrize("length", ["-5", "-1", "+512", "5_1_2", "512,512"])
    def test_negative_content_length_400(self, ingest_server, length):
        base, _ = ingest_server
        port = int(base.rsplit(":", 1)[1])
        # A valid envelope of the length int() reads, so only the header
        # can be at fault.
        body = b"" if length.startswith("-") else make_body(n=1)[0].encode().ljust(512)
        headers = "".join(f"Content-Length: {v}\r\n" for v in length.split(","))
        with socket.create_connection(("127.0.0.1", port), timeout=3) as sock:
            sock.sendall(f"POST /api/v1/ingest HTTP/1.1\r\nHost: x\r\n"
                         f"{headers}\r\n".encode("ascii") + body)
            with sock.makefile("rb") as reply:
                status = reply.readline()
                body = reply.read()  # the server closes after a rejection
        assert status.startswith(b"HTTP/1.1 400 ")
        assert body.endswith(b'{"status": "rejected", "reason": "MalformedJson"}')

    def test_oversize_413(self, live_server):
        base, _ = live_server(max_decoded=256)
        body, _, _, _ = make_body(n=600)
        resp = requests.post(f"{base}/api/v1/ingest", data=body.encode(), timeout=5)
        assert resp.status_code == 413
        assert resp.json()["reason"] == "PayloadTooLarge"

    def test_concurrent_ingest_keeps_blob_consistent(self, ingest_server):
        base, store = ingest_server
        key = make_key(149)

        def worker(worker_id):
            session = requests.Session()
            for j in range(5):
                body, _, _, _ = make_body(device_id="shared", seq=worker_id * 5 + j,
                                          n=100, key=key, seed=worker_id * 100 + j)
                resp = session.post(f"{base}/api/v1/ingest",
                                    data=body.encode(), timeout=10)
                assert resp.status_code == 200
            session.close()

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        records = store.fetch_meta("shared")
        blob = store.fetch_blob("shared")
        assert len(records) == 40
        assert len(blob) == 40 * 256
        # appends never tore: offsets tile the blob exactly
        assert sorted(r.offset for r in records) == [i * 256 for i in range(40)]
        assert all(r.length == 256 for r in records)


class TestClient:
    def test_send_and_fetch(self, ingest_server):
        base, _ = ingest_server
        rng = random.Random(151)
        key = Key80(rng.getrandbits(80))
        data = rng.randbytes(10 * 1024)
        acks = send_payload(base, "dev-a", key, data)
        assert len(acks) == 1
        assert acks[0].seq == 0 and acks[0].stored == 10240
        blob = fetch_remote_blob(base, "dev-a")
        meta = fetch_remote_meta(base, "dev-a")
        assert decrypt_payload(blob, meta[0].plaintext_len, key) == data

    @pytest.mark.parametrize("n,count,last_used", [
        (1, 1, 1), (255, 1, 255), (256, 1, 256), (257, 2, 1),
        (512, 2, 256), (600, 3, 88),
    ])
    def test_per_chunk_send_lengths(self, ingest_server, n, count, last_used):
        self._check_per_chunk_send(ingest_server, n, count, last_used)

    def test_per_chunk_send(self, ingest_server):
        self._check_per_chunk_send(ingest_server, 600, 3, 88)

    @staticmethod
    def _check_per_chunk_send(ingest_server, n, count, last_used):
        base, _ = ingest_server
        rng = random.Random(157)
        key = Key80(rng.getrandbits(80))
        data = rng.randbytes(n)
        acks = send_payload(base, "dev-b", key, data, per_chunk=True)
        assert [a.seq for a in acks] == list(range(count))
        assert [a.stored for a in acks] == [256] * count
        meta = fetch_remote_meta(base, "dev-b")
        assert [m.plaintext_len for m in meta] == [256] * (count - 1) + [last_used]
        assert [m.offset for m in meta] == [256 * i for i in range(count)]
        blob = fetch_remote_blob(base, "dev-b")
        out = b"".join(
            decrypt_payload(blob[m.offset:m.offset + m.length], m.plaintext_len, key)
            for m in meta)
        assert out == data

    def test_empty_payload(self, ingest_server):
        base, _ = ingest_server
        with pytest.raises(errors.EmptyInput):
            send_payload(base, "dev", make_key(1), b"")

    def test_bad_device_id_client_side(self, ingest_server):
        base, _ = ingest_server
        with pytest.raises(errors.BadDeviceId):
            send_payload(base, "a/b", make_key(1), b"x")

    def test_server_rejection_raises(self, live_server):
        base, _ = live_server(max_decoded=256)
        with pytest.raises(errors.ServerRejected) as excinfo:
            send_payload(base, "dev", make_key(2), b"\x01" * 600)
        assert excinfo.value.status == 413
        assert "PayloadTooLarge" in excinfo.value.detail

    # A reply nested past the recursion limit is read as text, not raised;
    # an ack must give the stored byte count of the one 256-byte chunk as
    # a plain int.
    @pytest.mark.parametrize("status,body,detail", [
        pytest.param(400, DEEP_NESTED_BODY, "[" * 200, id="rejection"),
        pytest.param(200, DEEP_NESTED_BODY, "malformed acknowledgement",
                     id="acknowledgement"),
        *(pytest.param(200, json.dumps({"stored": stored}).encode("ascii"),
                       "malformed acknowledgement", id=f"stored {stored!r}")
          for stored in (256.0, "256", True, -5, 255))])
    def test_deeply_nested_reply_is_server_rejected(self, status, body, detail):
        class Replies:
            def post(self, url, data=None, headers=None, timeout=None):
                return transport._Response(status, body)

        with pytest.raises(errors.ServerRejected) as excinfo:
            send_payload("http://127.0.0.1:9", "dev", make_key(3), b"x",
                         session=Replies())
        assert (excinfo.value.status, excinfo.value.detail) == (status, detail)

    def test_connection_failure_backs_off_and_raises(self):
        sleeps = []
        with pytest.raises(errors.ConnectionFailed):
            send_payload("http://127.0.0.1:9", "dev", make_key(3), b"x",
                         sleep=sleeps.append)
        assert sleeps == [0.25, 0.5]

    def test_retry_count_is_configurable(self, monkeypatch):
        monkeypatch.setattr(transport, "DEFAULT_RETRIES", 1)
        sleeps = []
        with pytest.raises(errors.ConnectionFailed):
            send_payload("http://127.0.0.1:9", "dev", make_key(3), b"x",
                         sleep=sleeps.append)
        assert sleeps == []

    @pytest.mark.parametrize("fetch", [fetch_remote_blob, fetch_remote_meta])
    def test_fetch_from_a_closed_port_is_connection_failed(self, fetch):
        with pytest.raises(errors.ConnectionFailed):
            fetch("http://127.0.0.1:9", "dev")

    def test_https_round_trip(self, live_server, tmp_path, monkeypatch):
        cert_file, tls = self_signed_tls(tmp_path)
        # The client verifies against the default CA store, which this
        # variable replaces.
        monkeypatch.setenv("SSL_CERT_FILE", str(cert_file))
        base, _ = live_server(tls=tls)
        assert base.startswith("https://")
        key = make_key(8)
        data = random.Random(8).randbytes(600)
        acks = send_payload(base, "dev-t", key, data, per_chunk=True)
        assert [(a.seq, a.stored) for a in acks] == [(0, 256), (1, 256), (2, 256)]
        meta = fetch_remote_meta(base, "dev-t")
        blob = fetch_remote_blob(base, "dev-t")
        assert b"".join(
            decrypt_payload(blob[m.offset:m.offset + m.length], m.plaintext_len, key)
            for m in meta) == data

    def test_fetch_unknown_device(self, ingest_server):
        base, _ = ingest_server
        with pytest.raises(errors.UnknownDevice):
            fetch_remote_blob(base, "ghost")
        with pytest.raises(errors.UnknownDevice):
            fetch_remote_meta(base, "ghost")

    def test_other_404_is_server_rejected(self, ingest_server):
        base, _ = ingest_server
        with pytest.raises(errors.ServerRejected) as excinfo:
            transport._get(base, "/api/v1/nowhere")
        assert (excinfo.value.status, excinfo.value.detail) == (404, "NotFound")

    def test_own_session_sends_every_chunk_on_one_connection(self, ingest_server,
                                                             monkeypatch):
        base, _ = ingest_server
        clients = []
        do_post = transport._Handler.do_POST

        def recording_post(handler):
            clients.append(handler.client_address)
            do_post(handler)

        monkeypatch.setattr(transport._Handler, "do_POST", recording_post)
        acks = send_payload(base, "dev-k", make_key(4), b"\x05" * 600, per_chunk=True)
        assert [a.seq for a in acks] == [0, 1, 2]
        assert len(clients) == 3
        assert len(set(clients)) == 1

    # The first POST gets no reply: the server hangs up at once, or only
    # after the client has timed out and given the connection up.
    @pytest.mark.parametrize("stall_s", [0.0, 0.6])
    def test_own_session_reconnects_after_a_failed_post(self, ingest_server,
                                                        monkeypatch, stall_s):
        base, _ = ingest_server
        clients = []
        do_post = transport._Handler.do_POST

        def drop_first_post(handler):
            clients.append(handler.client_address)
            if len(clients) > 1:
                return do_post(handler)
            handler.rfile.read(int(handler.headers["Content-Length"]))
            time.sleep(stall_s)
            handler.close_connection = True

        monkeypatch.setattr(transport._Handler, "do_POST", drop_first_post)
        monkeypatch.setattr(transport, "CLIENT_TIMEOUT_S", 0.3)
        sleeps = []
        acks = send_payload(base, "dev-d", make_key(6), b"\x07" * 300,
                            per_chunk=True, sleep=sleeps.append)
        assert [(a.seq, a.stored) for a in acks] == [(0, 256), (1, 256)]
        assert sleeps == [0.25]
        assert len(clients) == 3 and clients[1] == clients[2] != clients[0]

    def test_passed_in_requests_session(self, ingest_server):
        base, _ = ingest_server
        key = make_key(5)
        data = b"\x06" * 300
        with requests.Session() as session:
            acks = send_payload(base, "dev-r", key, data, per_chunk=True,
                                session=session)
        assert [(a.seq, a.stored) for a in acks] == [(0, 256), (1, 256)]
        meta = fetch_remote_meta(base, "dev-r")
        blob = fetch_remote_blob(base, "dev-r")
        assert b"".join(
            decrypt_payload(blob[m.offset:m.offset + m.length], m.plaintext_len, key)
            for m in meta) == data

    def test_requests_error_from_a_passed_in_session_is_retried(self):
        class Unreachable:
            def post(self, url, data=None, headers=None, timeout=None):
                raise requests.ConnectionError("refused")

        sleeps = []
        with pytest.raises(errors.ConnectionFailed):
            send_payload("http://127.0.0.1:9", "dev", make_key(3), b"x",
                         sleep=sleeps.append, session=Unreachable())
        assert sleeps == [0.25, 0.5]

    @pytest.mark.parametrize("url", ["127.0.0.1:9", "ftp://127.0.0.1:9", "http://h:port"])
    def test_unusable_url_fails_without_retrying(self, url):
        sleeps = []
        with pytest.raises(errors.ConnectionFailed):
            send_payload(url, "dev", make_key(3), b"x", sleep=sleeps.append)
        assert sleeps == []

    @pytest.mark.parametrize("body", [
        b"0 1 2 0 256\n\xff\n",
        b"0 1 2 0\n",
        b"0 1 2 0 256 7\n",
        b"0 1 2 0 x\n",
        # int() reads all of these.
        b"0 1 2 -256 256\n",
        b"+1 1 2 0 256\n",
        b"0 1_000 2 0 256\n",
        "\u0663 1 2 0 256\n".encode(),
    ])
    def test_malformed_meta_is_server_rejected(self, live_server, body):
        class MetaOnly(BaseHTTPRequestHandler):
            protocol_version = "HTTP/1.1"

            def do_GET(self):
                self.send_response(200)
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def log_message(self, *args):
                pass

        base, _ = live_server(handler=MetaOnly)
        with pytest.raises(errors.ServerRejected) as excinfo:
            fetch_remote_meta(base, "dev")
        assert (excinfo.value.status, excinfo.value.detail) == (200, "malformed meta")

    # Ids are ``content-reason``, or a name where the body is too long to
    # show; the _Response cases add ``-stdlib``.
    @pytest.mark.parametrize("content,reason,make_response", [
        pytest.param(content, reason, make,
                     id=f"{name or content.decode() + '-' + reason}{suffix}")
        for make, suffix in [(requests_response, ""),
                             (lambda content: transport._Response(400, content), "-stdlib")]
        for content, reason, name in [
            (b'{"status": "rejected", "reason": "BadBase64"}', "BadBase64", None),
            (b"[1]", "[1]", None),
            (b'{"reason": 5}', '{"reason": 5}', None),
            (b"{}", "{}", None),
            (b"oops", "oops", None),
            (DEEP_NESTED_BODY, "[" * 200, "deep nesting"),
        ]])
    def test_reason_falls_back_to_the_body(self, content, reason, make_response):
        assert transport._reason(make_response(content)) == reason
