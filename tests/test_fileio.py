import dataclasses
import json

import numpy as np
import pytest

import tomopack.fileio
from tomopack.fileio import (
    TRACE_COLUMNS,
    ChartFileError,
    chart_document,
    read_chart,
    report_document,
    write_chart,
    write_report,
    write_trace_csv,
)
from tomopack.hilbert import quorum_from_chart
from tomopack.metrics import evaluate_quorum, gram_matrix
from tomopack.schedule import TraceRecord


class TestChartRoundTrip:
    def test_full_precision_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        angles = rng.uniform(-np.pi, np.pi, 612)
        path = tmp_path / "chart.json"
        write_chart(path, angles, 6, 3, seed=42)
        loaded, n, l, meta = read_chart(path)
        assert np.array_equal(loaded, angles)  # bit-exact
        assert (n, l) == (6, 3)
        assert meta["seed"] == 42
        assert "created" in meta and "tool_version" in meta

    def test_document_fields(self):
        doc = chart_document(np.zeros(4), 2, 1, seed=3)
        assert doc["format_version"] == 1
        assert doc["fixed_first"] is True
        assert len(doc["angles"]) == 4

    def test_rejects_wrong_length(self, tmp_path):
        path = tmp_path / "bad.json"
        doc = chart_document(np.zeros(10), 6, 3)
        path.write_text(json.dumps(doc))
        with pytest.raises(ChartFileError, match="612"):
            read_chart(path)

    def test_rejects_non_finite(self, tmp_path):
        path = tmp_path / "nan.json"
        doc = chart_document(np.zeros(4), 2, 1)
        doc["angles"][2] = float("nan")
        path.write_text(json.dumps(doc, allow_nan=True))
        with pytest.raises(ChartFileError, match="non-finite"):
            read_chart(path)

    def test_rejects_non_numeric_angle(self, tmp_path):
        for bad in ("x", True, None, [1.0]):
            path = tmp_path / "str.json"
            doc = chart_document(np.zeros(4), 2, 1)
            doc["angles"][1] = bad
            path.write_text(json.dumps(doc))
            with pytest.raises(ChartFileError, match="'angles'.*index 1"):
                read_chart(path)

    def test_rejects_angle_beyond_float_range(self, tmp_path):
        path = tmp_path / "big.json"
        doc = chart_document(np.zeros(4), 2, 1)
        doc["angles"][0] = 10**400
        path.write_text(json.dumps(doc))
        with pytest.raises(ChartFileError, match="non-finite"):
            read_chart(path)

    @pytest.mark.parametrize("n,l", [(True, 1), (2, True), (2.0, 1)])
    def test_rejects_non_integer_dimensions(self, tmp_path, n, l):
        path = tmp_path / "dims.json"
        doc = chart_document(np.zeros(4), 2, 1)
        doc["n"], doc["l"] = n, l
        path.write_text(json.dumps(doc))
        with pytest.raises(ChartFileError, match="'n'/'l'"):
            read_chart(path)

    def test_rejects_missing_fixed_first(self, tmp_path):
        path = tmp_path / "ff.json"
        doc = chart_document(np.zeros(4), 2, 1)
        doc["fixed_first"] = False
        path.write_text(json.dumps(doc))
        with pytest.raises(ChartFileError, match="fixed_first"):
            read_chart(path)


class TestReportDocument:
    def test_embeds_metrics_and_worst_pairs(self):
        rng = np.random.default_rng(1)
        quorum = quorum_from_chart(rng.uniform(0, 2 * np.pi, 612), 6, 3)
        report = evaluate_quorum(quorum)
        doc = report_document(report, gram_matrix(quorum), 6, 3)
        assert doc["format_version"] == 1
        assert doc["quality"] == report.quality
        assert len(doc["worst_pairs"]) == 10
        top = doc["worst_pairs"][0]
        assert set(top) == {"i", "j", "abs_gram"}
        # serialization is lossless through json
        again = json.loads(json.dumps(doc))
        assert again["quality"] == report.quality


class TestTraceCsv:
    def test_columns_and_values(self, tmp_path):
        trace = [
            TraceRecord(1, 1, "neg_log_quality", -1.5, 0.25, 2.0, 100, 0.1),
            TraceRecord(1, 2, "neg_log_quality", -1.75, 0.3, 1.9, 220, 0.2),
            TraceRecord(2, 1, "log_l", 1.9, 0.3, 1.9, 320, 0.3),
        ]
        path = tmp_path / "trace.csv"
        write_trace_csv(path, trace)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "phase,iteration,objective_kind,objective,quality,ln_L,evaluations,elapsed_s"
        assert len(lines) == 4
        assert [int(line.split(",")[6]) for line in lines[1:]] == [100, 220, 320]
        first = lines[1].split(",")
        assert first[0] == "1" and first[2] == "neg_log_quality"
        assert float(first[3]) == -1.5

    def test_columns_are_the_record_fields(self):
        # each row is the record's fields in order; only ln_l is spelled ln_L
        fields = [f.name for f in dataclasses.fields(TraceRecord)]
        assert [c.replace("ln_L", "ln_l") for c in TRACE_COLUMNS] == fields

    def test_floats_round_trip(self, tmp_path):
        values = [0.1, 1 / 3, -1e-300, float("-inf")]
        path = tmp_path / "trace.csv"
        write_trace_csv(path, [TraceRecord(1, 1, "log_l", v, v, v, 1, v) for v in values])
        rows = [line.split(",") for line in path.read_text().splitlines()[1:]]
        assert [float(row[3]) for row in rows] == values
        assert [row[5] for row in rows] == [repr(v) for v in values]


class TestCrashSafeWrites:
    def test_failed_dump_keeps_old_chart(self, tmp_path, monkeypatch):
        path = tmp_path / "chart.json"
        write_chart(path, np.linspace(0.0, 1.0, 4), 2, 1, seed=1)
        before = path.read_bytes()

        def half_writing_open(file, mode="r", **kwargs):
            """``open`` whose file stores half of the first text written, then fails."""
            fh = open(file, mode, **kwargs)
            write = fh.write

            def half_write(text):
                write(text[: len(text) // 2])
                fh.flush()
                raise RuntimeError("interrupted mid-write")

            fh.write = half_write
            return fh

        monkeypatch.setattr(tomopack.fileio, "open", half_writing_open, raising=False)
        with pytest.raises(RuntimeError):
            write_chart(path, np.zeros(4), 2, 1)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["chart.json"]

    def test_writers_leave_only_their_target(self, tmp_path):
        quorum = quorum_from_chart(np.linspace(0.0, 1.0, 4), 2, 1)
        gram = gram_matrix(quorum)
        write_chart(tmp_path / "chart.json", np.linspace(0.0, 1.0, 4), 2, 1)
        write_report(tmp_path / "report.json", evaluate_quorum(quorum), gram, 2, 1)
        write_trace_csv(tmp_path / "trace.csv", [TraceRecord(1, 1, "log_l", 1.0, 0.3, 1.0, 10, 0.1)])
        assert sorted(p.name for p in tmp_path.iterdir()) == ["chart.json", "report.json", "trace.csv"]
        assert json.loads((tmp_path / "report.json").read_text())["n"] == 2
