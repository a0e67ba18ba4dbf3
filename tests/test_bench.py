import math
import random

import pytest

from katanpipe import errors
from katanpipe.bench import (
    BenchReport,
    ThroughputSample,
    emit_report,
    measure_cipher,
    measure_pipeline,
    parse_table5_csv,
    round2,
    sends_per_second,
)
from katanpipe.katan import Key80

# Nine measured sends of 250 bytes each, with their published rates.
MEASURED_ROWS = [
    (250, 105, 19047.62, 19.05),
    (250, 210, 9523.81, 9.52),
    (250, 176, 11363.64, 11.36),
    (250, 286, 6993.01, 6.99),
    (250, 150, 13333.33, 13.33),
    (250, 182, 10989.01, 10.99),
    (250, 208, 9615.38, 9.62),
    (250, 208, 9615.38, 9.62),
    (250, 208, 9615.38, 9.62),
]
AVERAGE_KBPS = 11.12

TABLE5_CSV = "bytes,ms\n" + "".join(f"{b},{ms}\n" for b, ms, _, _ in MEASURED_ROWS)


class TestRounding:
    @pytest.mark.parametrize("value,expected", [
        (2.675, 2.68), (2.674999, 2.67), (-2.675, -2.68),
        (9615.384615384615, 9615.38), (0.005, 0.01), (1.0, 1.0),
    ])
    def test_half_away_from_zero(self, value, expected):
        assert round2(value) == expected


class TestComputeThroughput:
    @pytest.mark.parametrize("n_bytes,ms,bps,kbps", MEASURED_ROWS)
    def test_measured_rows(self, n_bytes, ms, bps, kbps):
        sample = ThroughputSample(n_bytes, ms / 1000.0)
        assert sample.bits == 8 * n_bytes == 2000
        assert abs(sample.bps - bps) <= 0.01
        assert round2(sample.bps) == bps
        assert round2(sample.kbps) == kbps

    def test_zero_bytes_is_zero_rate(self):
        assert ThroughputSample(0, 1.0).bps == 0.0

    def test_negative_bytes(self):
        with pytest.raises(ValueError):
            ThroughputSample(-1, 1.0)

    @pytest.mark.parametrize("elapsed", [0.0, -1.0, math.inf, math.nan])
    def test_bad_elapsed(self, elapsed):
        with pytest.raises(errors.NonPositiveElapsed):
            ThroughputSample(100, elapsed)


class TestSummarize:
    def samples(self):
        return tuple(ThroughputSample(b, ms / 1000.0) for b, ms, _, _ in MEASURED_ROWS)

    def test_average(self):
        report = BenchReport("KATAN32", "here", self.samples())
        assert report.average_kbps == AVERAGE_KBPS

    def test_single_sample(self):
        report = BenchReport("KATAN32", "here", (ThroughputSample(250, 0.105),))
        assert report.average_kbps == 19.05

    def test_empty(self):
        with pytest.raises(errors.EmptySamples):
            BenchReport("KATAN32", "here", ())

    def test_report_fields(self):
        report = BenchReport("KATAN32", "here", self.samples())
        assert isinstance(report, BenchReport)
        assert report.cipher == "KATAN32" and report.environment == "here"
        assert len(report.samples) == 9
        assert all(isinstance(s, ThroughputSample) for s in report.samples)


class TestSendRate:
    def test_gigabit_line(self):
        sends, interval = sends_per_second(1e9, 250)
        assert sends == 500000.0
        assert interval == 2e-06

    def test_integer_inputs(self):
        assert sends_per_second(10 ** 9, 250) == (500000.0, 2e-06)

    def test_small_case(self):
        assert sends_per_second(2000.0, 250) == (1.0, 1.0)

    @pytest.mark.parametrize("bps,chunk", [(0, 250), (-1, 250), (math.inf, 250),
                                           (1e9, 0), (1e9, -8)])
    def test_rejects_non_positive(self, bps, chunk):
        with pytest.raises(errors.NonPositiveInput):
            sends_per_second(bps, chunk)


class TestTable5Csv:
    def test_parse_and_average(self):
        samples = parse_table5_csv(TABLE5_CSV)
        assert len(samples) == 9
        assert all(s.n_bytes == 250 for s in samples)
        report = BenchReport("KATAN32", "here", tuple(samples))
        assert report.average_kbps == AVERAGE_KBPS

    def test_whitespace_tolerated(self):
        samples = parse_table5_csv("bytes, ms\n 250 , 105 \n")
        assert samples[0].elapsed_s == 0.105

    @pytest.mark.parametrize("text", ["", "b,ms\n250,105\n", "bytes,ms\n250\n",
                                      "bytes,ms\n250,105,9\n",
                                      "bytes,ms\n2_50,1_05\n", "bytes,ms\n+250,1e2\n",
                                      "bytes,ms\n250,-105\n", "bytes,ms\n250,105.\n",
                                      "bytes,ms\n\uff12\uff15\uff10,105\n",
                                      "by tes,ms\n250,105\n"])
    def test_rejects_malformed(self, text):
        with pytest.raises(ValueError):
            parse_table5_csv(text)


class TestEmitReport:
    def report(self):
        return BenchReport("KATAN32", "replayed", tuple(parse_table5_csv(TABLE5_CSV)))

    def test_csv_golden(self):
        out = emit_report(self.report(), "csv")
        lines = out.splitlines()
        assert lines[0] == "bytes,bits,elapsed_s,bps,kbps"
        assert lines[1] == "250,2000,0.105,19047.62,19.05"
        assert lines[4] == "250,2000,0.286,6993.01,6.99"
        assert lines[-1] == "average,,,,11.12"
        assert len(lines) == 11

    def test_csv_round_trips(self):
        rows = [line.split(",") for line in
                emit_report(self.report(), "csv").splitlines()[1:-1]]
        back = [ThroughputSample(int(row[0]), float(row[2])) for row in rows]
        assert [(s.n_bytes, s.elapsed_s) for s in back] \
            == [(s.n_bytes, s.elapsed_s) for s in self.report().samples]
        report = BenchReport("KATAN32", "replayed", tuple(back))
        assert report.average_kbps == AVERAGE_KBPS

    def test_table_contains_summary(self):
        out = emit_report(self.report(), "table")
        assert "cipher       KATAN32" in out
        assert "average Kb/s 11.12" in out
        assert "19047.62" in out

    def test_unknown_format(self):
        for fmt in ("yaml", ""):
            with pytest.raises(ValueError, match="unknown report format"):
                emit_report(self.report(), fmt)


class TestMeasureCipher:
    def test_katan_report(self):
        report = measure_cipher("KATAN32", total_bytes=256, repetitions=3,
                                rng=random.Random(163))
        assert report.cipher == "KATAN32"
        assert len(report.samples) == 3
        assert all(s.n_bytes == 256 and s.elapsed_s > 0 for s in report.samples)
        assert report.average_kbps > 0

    def test_descriptor_object_accepted(self):
        report = measure_cipher("PRESENT", total_bytes=64,
                                repetitions=2, rng=random.Random(167))
        assert report.cipher == "PRESENT"

    def test_bad_length(self):
        with pytest.raises(errors.BadLength):
            measure_cipher("KATAN32", total_bytes=257, repetitions=1,
                           rng=random.Random(1))
        with pytest.raises(errors.BadLength):
            measure_cipher("KATAN32", total_bytes=0, repetitions=1,
                           rng=random.Random(1))

    def test_bad_repetitions(self):
        with pytest.raises(ValueError):
            measure_cipher("KATAN32", total_bytes=256, repetitions=0,
                           rng=random.Random(1))

    def test_unknown_name(self):
        with pytest.raises(errors.UnknownCipher):
            measure_cipher("ROT13", total_bytes=256, repetitions=1,
                           rng=random.Random(1))


class TestMeasurePipeline:
    def test_round_trips_against_live_server(self, ingest_server):
        base, store = ingest_server
        report = measure_pipeline(base, "bench-dev", Key80(7),
                                  chunk_bytes=250, repetitions=3,
                                  rng=random.Random(173))
        assert len(report.samples) == 3
        assert all(s.n_bytes == 250 for s in report.samples)
        assert base in report.environment
        # three sends of 250 bytes -> three stored chunks
        assert len(store.fetch_blob("bench-dev")) == 3 * 256

    def test_rejects_non_positive_chunk(self, ingest_server):
        base, _ = ingest_server
        with pytest.raises(errors.NonPositiveInput):
            measure_pipeline(base, "d", Key80(1), chunk_bytes=0, repetitions=1,
                             rng=random.Random(1))

    def test_rejects_no_repetitions(self):
        with pytest.raises(ValueError, match="repetitions"):
            measure_pipeline("http://127.0.0.1:9", "d", Key80(1), chunk_bytes=250,
                             repetitions=0, rng=random.Random(1))
