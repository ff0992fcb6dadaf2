import csv
import json
import os

import numpy as np
import pytest

import tomopack.cli
from tomopack.cli import main
from tomopack.fileio import read_chart, write_chart
from tomopack.hilbert import chart_length, quorum_from_chart
from tomopack.metrics import upper_bound
from tomopack.reference import mub_family

from oracles import CHART_N2_ORACLE


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture(scope="module")
def n2_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("n2run")
    code = main(
        [
            "optimize", "--n", "2", "--l", "1", "--restarts", "4", "--seed", "7",
            "--phases", "4", "--sweeps-per-phase", "50", "--out", str(out),
        ]
    )
    assert code == 0
    return out


class TestOptimize:
    def test_missing_out_dir_exits_3_without_files(self, capsys, tmp_path):
        missing = tmp_path / "does-not-exist"
        code, _out, err = run_cli(
            capsys, "optimize", "--n", "2", "--l", "1", "--out", str(missing)
        )
        assert code == 3
        assert "output directory" in err
        assert not missing.exists()

    @pytest.mark.parametrize(
        "flags",
        [
            ["--restarts", "0"],
            ["--phases", "0"],
            ["--sweeps-per-phase", "0"],
            ["--l-sweeps-per-phase", "0"],
            ["--f-tol", "0"],
            ["--x-tol", "0"],
            ["--x-tol", "nan"],
            ["--seed", "-1"],
            ["--n", "3", "--l", "3"],
            ["--n", "1", "--l", "1"],
            ["--workers", "0"],
            ["--workers", "-3"],
        ],
    )
    def test_bad_flags_exit_2_without_files(self, capsys, tmp_path, flags):
        code, _out, err = run_cli(capsys, "optimize", *flags, "--out", str(tmp_path))
        assert code == 2
        assert err.startswith("error: invalid flags")
        assert list(tmp_path.iterdir()) == []

    def test_unparseable_flag_returns_2(self, capsys, tmp_path):
        # argparse's own errors come back as main's exit code, not SystemExit
        code, _out, err = run_cli(capsys, "optimize", "--n", "x", "--out", str(tmp_path))
        assert code == 2
        assert "invalid int value" in err
        assert list(tmp_path.iterdir()) == []

    def test_unwritable_output_exits_3_without_temporary_files(self, capsys, tmp_path, monkeypatch):
        (tmp_path / "chart.json").mkdir()
        searches = []
        monkeypatch.setattr(tomopack.cli, "multi_restart", lambda *a, **k: searches.append(a))
        code, out, err = run_cli(
            capsys, "optimize", "--n", "2", "--l", "1", "--restarts", "1", "--phases", "1",
            "--sweeps-per-phase", "2", "--out", str(tmp_path),
        )
        assert code == 3
        assert err.startswith(f"error: cannot write to output directory {tmp_path}")
        assert out == ""
        assert [p.name for p in tmp_path.iterdir()] == ["chart.json"]
        assert searches == []  # refused before the search, not after it

    @pytest.mark.parametrize("flags", [["--restarts", "8"], ["--seed", "5"], ["--workers", "2"]])
    def test_resume_rejects_flags_it_ignores(self, capsys, n2_run, tmp_path, flags):
        code, _out, err = run_cli(
            capsys,
            "optimize", "--n", "2", "--l", "1", "--resume", str(n2_run / "chart.json"),
            *flags, "--out", str(tmp_path),
        )
        assert code == 2
        assert err.startswith("error: invalid flags") and "--resume" in err
        assert list(tmp_path.iterdir()) == []

    def test_n2_reaches_analytic_optimum(self, n2_run, capsys):
        code, out, _ = run_cli(capsys, "evaluate", str(n2_run / "chart.json"))
        assert code == 0
        doc = json.loads(out)
        ub = upper_bound(2, 1)  # = 0.353553390...
        assert abs(doc["quality"] - ub) < 1e-6 * ub
        assert doc["n"] == 2 and doc["l"] == 1

    def test_outputs_exist(self, n2_run):
        for name in ("chart.json", "report.json", "trace.csv"):
            assert (n2_run / name).exists()

    def test_stdout_summary(self, capsys, tmp_path):
        code, out, _ = run_cli(
            capsys,
            "optimize", "--n", "2", "--l", "1", "--restarts", "1", "--seed", "1",
            "--phases", "2", "--sweeps-per-phase", "20", "--out", str(tmp_path),
        )
        assert code == 0
        assert "quality = " in out
        assert "relative_deviation = " in out
        assert "ln_L = " in out

    def test_deterministic_under_seed(self, capsys, tmp_path):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        out_a.mkdir()
        out_b.mkdir()
        args = [
            "optimize", "--n", "2", "--l", "1", "--restarts", "2", "--seed", "5",
            "--phases", "2", "--sweeps-per-phase", "25",
        ]
        assert main(args + ["--out", str(out_a)]) == 0
        assert main(args + ["--out", str(out_b)]) == 0
        angles_a, *_ = read_chart(out_a / "chart.json")
        angles_b, *_ = read_chart(out_b / "chart.json")
        assert np.array_equal(angles_a, angles_b)

    def test_n6_short_run_completes(self, capsys, tmp_path):
        code, out, _ = run_cli(
            capsys,
            "optimize", "--n", "6", "--l", "3", "--seed", "1", "--restarts", "1",
            "--phases", "2", "--sweeps-per-phase", "1", "--x-tol", "1e-6",
            "--out", str(tmp_path),
        )
        assert code == 0
        doc = json.loads((tmp_path / "report.json").read_text())
        assert 0.0 < doc["quality"] <= upper_bound(6, 3) * (1 + 1e-9)

    def test_resume_from_chart(self, capsys, n2_run, tmp_path):
        code, out, _ = run_cli(
            capsys,
            "optimize", "--n", "2", "--l", "1", "--resume", str(n2_run / "chart.json"),
            "--phases", "2", "--sweeps-per-phase", "20", "--out", str(tmp_path),
        )
        assert code == 0
        doc = json.loads((tmp_path / "report.json").read_text())
        assert abs(doc["quality"] - upper_bound(2, 1)) < 1e-6

    def test_resume_records_no_seed(self, capsys, n2_run, tmp_path):
        # no seed drew a resumed chart; --seed (default 0) must not be recorded
        source = json.loads((n2_run / "chart.json").read_text())
        assert source["metadata"]["seed"] is not None
        code, _out, _ = run_cli(
            capsys,
            "optimize", "--n", "2", "--l", "1", "--resume", str(n2_run / "chart.json"),
            "--phases", "1", "--sweeps-per-phase", "2", "--out", str(tmp_path),
        )
        assert code == 0
        doc = json.loads((tmp_path / "chart.json").read_text())
        assert doc["metadata"]["seed"] is None

    def test_resume_dim_mismatch(self, capsys, n2_run, tmp_path):
        code, _out, err = run_cli(
            capsys,
            "optimize", "--n", "6", "--l", "3", "--resume", str(n2_run / "chart.json"),
            "--out", str(tmp_path),
        )
        assert code == 2
        assert "resume" in err

    def test_trace_csv_monotone_within_phase(self, n2_run):
        with open(n2_run / "trace.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert rows, "trace must not be empty"
        by_phase = {}
        for row in rows:
            by_phase.setdefault(row["phase"], []).append(float(row["objective"]))
        for values in by_phase.values():
            assert all(values[i + 1] <= values[i] + 1e-12 for i in range(len(values) - 1))

    def test_round_trip_quality_matches_report(self, n2_run, capsys):
        report = json.loads((n2_run / "report.json").read_text())
        code, out, _ = run_cli(capsys, "evaluate", str(n2_run / "chart.json"))
        assert code == 0
        evaluated = json.loads(out)
        assert evaluated["quality"] == report["quality"]


class TestEvaluate:
    def test_zero_chart_is_degenerate(self, capsys, tmp_path):
        path = tmp_path / "zero.json"
        write_chart(path, np.zeros(612), 6, 3)
        code, out, _ = run_cli(capsys, "evaluate", str(path))
        assert code == 0
        doc = json.loads(out)
        assert doc["degenerate"] is True
        assert doc["quality"] == 0.0

    def test_invalid_json(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        code, _out, err = run_cli(capsys, "evaluate", str(path))
        assert code == 2
        assert "line" in err

    def test_wrong_angle_count(self, capsys, tmp_path):
        path = tmp_path / "short.json"
        doc = {"format_version": 1, "n": 6, "l": 3, "fixed_first": True, "angles": [0.0] * 611}
        path.write_text(json.dumps(doc))
        code, _out, err = run_cli(capsys, "evaluate", str(path))
        assert code == 2
        assert "612" in err

    def test_bad_version(self, capsys, tmp_path):
        path = tmp_path / "vers.json"
        doc = {"format_version": 9, "n": 2, "l": 1, "fixed_first": True, "angles": [0.0] * 4}
        path.write_text(json.dumps(doc))
        code, _out, err = run_cli(capsys, "evaluate", str(path))
        assert code == 2
        assert "format_version" in err

    @pytest.mark.parametrize(
        "command",
        [
            ["evaluate", "{chart}"],
            ["extend", "{chart}", "--out", "{out}/maximal.json"],
            ["optimize", "--n", "2", "--l", "1", "--resume", "{chart}", "--out", "{out}"],
        ],
    )
    @pytest.mark.parametrize(
        "fields,named",
        [({"angles": ["x", 0, 0, 0]}, "'angles'"), ({"n": True, "l": True}, "'n'/'l'"), ({"l": True}, "'n'/'l'")],
    )
    def test_malformed_chart_exits_2(self, capsys, tmp_path, command, fields, named):
        chart = tmp_path / "malformed.json"
        doc = {"format_version": 1, "n": 2, "l": 1, "fixed_first": True, "angles": [0.0] * 4}
        doc.update(fields)
        chart.write_text(json.dumps(doc))
        out = tmp_path / "out"
        out.mkdir()
        argv = [arg.format(chart=chart, out=out) for arg in command]
        code, _out, err = run_cli(capsys, *argv)
        assert code == 2
        assert named in err
        assert list(out.iterdir()) == []

    def test_missing_file(self, capsys, tmp_path):
        code, _out, err = run_cli(capsys, "evaluate", str(tmp_path / "nope.json"))
        assert code == 2

    def test_n2_oracle_chart_deviation(self, capsys, tmp_path):
        path = tmp_path / "oracle.json"
        write_chart(path, CHART_N2_ORACLE, 2, 1)
        code, out, _ = run_cli(capsys, "evaluate", str(path))
        assert code == 0
        doc = json.loads(out)
        assert abs(doc["relative_deviation"]) <= 1e-10


def _decode_matrices(doc):
    n = doc["n"]
    out = []
    for flat in doc["projectors"]:
        arr = np.asarray(flat, dtype=float)
        out.append((arr[0::2] + 1j * arr[1::2]).reshape(n, n))
    return np.stack(out)


class TestExtend:
    def test_n6_chart_gives_70_matrices(self, capsys, tmp_path):
        path = tmp_path / "chart.json"
        rng = np.random.default_rng(2)
        angles = rng.uniform(0, 2 * np.pi, 612)
        write_chart(path, angles, 6, 3)
        code, out, _ = run_cli(capsys, "extend", str(path))
        assert code == 0
        doc = json.loads(out)
        assert doc["count"] == 70
        matrices = _decode_matrices(doc)
        quorum = quorum_from_chart(angles, 6, 3)
        # complements are serialized losslessly: bit-exact against 1 - P
        assert np.array_equal(matrices[35:], np.eye(6) - quorum.projectors)
        assert np.array_equal(matrices[:35], quorum.projectors)

    def test_reference_n4(self, capsys):
        code, out, _ = run_cli(capsys, "extend", "--reference", "n4")
        assert code == 0
        doc = json.loads(out)
        assert doc["count"] == 30
        # the 15 complement pairs sit at d^2 = 2 by construction and are not
        # scored; the other 420 are the exact n = 4 oracle's, all at 1
        ortho = doc["orthoplex"]
        assert ortho["pairs_total"] == 420
        assert ortho["at_bound"] == 420
        assert abs(ortho["min_d2"] - 1.0) < 1e-10
        assert ortho["max_d2"] == 1.0
        assert ortho["all_unbiased"] is True
        assert "at_bound_strict" not in ortho

    def test_non_half_dimensional_chart_rejected(self, capsys, tmp_path):
        path = tmp_path / "c62.json"
        write_chart(path, np.zeros(chart_length(6, 2)), 6, 2)
        code, _out, err = run_cli(capsys, "extend", str(path))
        assert code == 2
        assert "n/2" in err

    def test_missing_argument(self, capsys):
        code, _out, err = run_cli(capsys, "extend")
        assert code == 2

    def test_unknown_reference(self, capsys):
        code, _out, err = run_cli(capsys, "extend", "--reference", "n8")
        assert code == 2

    def test_chart_and_reference_together_rejected(self, capsys, tmp_path):
        path = tmp_path / "chart.json"
        write_chart(path, np.zeros(chart_length(4, 2)), 4, 2)
        out = tmp_path / "maximal.json"
        code, stdout, err = run_cli(
            capsys, "extend", str(path), "--reference", "n4", "--out", str(out)
        )
        assert code == 2
        assert "not allowed" in err
        assert stdout == ""
        assert sorted(p.name for p in tmp_path.iterdir()) == ["chart.json"]

    @pytest.mark.parametrize("tol", ["0", "-1e-6", "nan"])
    def test_bad_tol_exits_2_without_files(self, capsys, tmp_path, tol):
        out = tmp_path / "maximal.json"
        code, _out, err = run_cli(
            capsys, "extend", "--reference", "n4", f"--tol={tol}", "--out", str(out)
        )
        assert code == 2
        assert "tolerance" in err
        assert list(tmp_path.iterdir()) == []


class TestReference:
    @pytest.mark.parametrize("name,n", [("mub2", 2), ("mub3", 3), ("mub4", 4)])
    def test_mub_outputs(self, capsys, name, n):
        code, out, _ = run_cli(capsys, "reference", name)
        assert code == 0
        doc = json.loads(out)
        assert doc["bases_count"] == n + 1
        assert doc["max_cross_overlap_sq_deviation"] <= 1e-12

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_mub_bases_decode_to_family(self, capsys, n):
        # row-major, re/im interleaved, as projector documents are
        code, out, _ = run_cli(capsys, "reference", f"mub{n}")
        assert code == 0
        doc = json.loads(out)
        assert doc["layout"] == "row-major, re/im interleaved"
        decoded = np.asarray(doc["bases"], dtype=float).view(complex).reshape(n + 1, n, n)
        assert np.array_equal(decoded, np.asarray(mub_family(n)))

    def test_n2_rank1(self, capsys):
        code, out, _ = run_cli(capsys, "reference", "n2-rank1")
        assert code == 0
        doc = json.loads(out)
        assert abs(doc["report"]["quality"] - 0.353553) < 1e-6

    def test_n4_rank2(self, capsys):
        code, out, _ = run_cli(capsys, "reference", "n4-rank2")
        assert code == 0
        doc = json.loads(out)
        assert abs(doc["report"]["quality"] - 1.0) <= 1e-10
        assert doc["count"] == 15

    def test_unknown_name(self, capsys):
        code, _out, err = run_cli(capsys, "reference", "bogus")
        assert code == 2

    def test_broken_construction_exits_1(self, capsys, tmp_path, monkeypatch):
        import tomopack.reference

        # three copies of the standard basis: orthonormal, but not unbiased
        monkeypatch.setattr(
            tomopack.reference, "_mubs_dim2", lambda: [np.eye(2, dtype=complex)] * 3
        )
        target = tmp_path / "fam.json"
        code, _out, err = run_cli(capsys, "reference", "mub2", "--out", str(target))
        assert code == 1
        assert err.startswith("error: verification failed")
        assert list(tmp_path.iterdir()) == []

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "fam.json"
        code, out, _ = run_cli(capsys, "reference", "mub2", "--out", str(target))
        assert code == 0
        doc = json.loads(target.read_text())
        assert doc["bases_count"] == 3

    def test_unwritable_out_exits_3(self, capsys, tmp_path):
        target = tmp_path / "nodir" / "fam.json"
        code, _out, err = run_cli(capsys, "reference", "mub2", "--out", str(target))
        assert code == 3

    def test_out_file_replaced_whole(self, capsys, tmp_path):
        target = tmp_path / "fam.json"
        target.write_text("stale")
        code, _out, _ = run_cli(capsys, "reference", "mub3", "--out", str(target))
        assert code == 0
        assert json.loads(target.read_text())["bases_count"] == 4
        assert [p.name for p in tmp_path.iterdir()] == ["fam.json"]


class TestOneGramPerReport:
    """Each reported quorum gets one Gram matrix, shared by its figures and
    its worst-pair list."""

    @pytest.fixture
    def gram_calls(self, monkeypatch):
        import tomopack.cli
        import tomopack.metrics
        import tomopack.schedule

        calls = []
        original = tomopack.metrics.gram_matrix

        def counted(q):
            calls.append((q.n, q.l))
            return original(q)

        monkeypatch.setattr(tomopack.metrics, "gram_matrix", counted)
        monkeypatch.setattr(tomopack.cli, "gram_matrix", counted)
        monkeypatch.setattr(tomopack.schedule, "gram_matrix", counted)
        return calls

    def test_evaluate_builds_gram_once(self, capsys, tmp_path, gram_calls):
        path = tmp_path / "chart.json"
        write_chart(path, np.random.default_rng(3).uniform(0, 2 * np.pi, 612), 6, 3)
        code, _out, _ = run_cli(capsys, "evaluate", str(path))
        assert code == 0
        assert len(gram_calls) == 1

    def test_reference_n2_builds_gram_once(self, capsys, gram_calls):
        code, _out, _ = run_cli(capsys, "reference", "n2-rank1")
        assert code == 0
        assert len(gram_calls) == 1

    def test_reference_n4_builds_gram_once_after_construction(self, capsys, gram_calls):
        code, _out, _ = run_cli(capsys, "reference", "n4-rank2")
        assert code == 0
        # the report's; the construction does not check itself
        assert len(gram_calls) == 1

    def test_optimize_builds_no_gram_beyond_search(self, capsys, tmp_path, monkeypatch, gram_calls):
        # one build per objective call and one per chart the schedule ranks
        # (one per sweep and the volume phase's x_best);
        # the report and report.json reuse the winner's Gram matrix
        import tomopack.schedule

        nfev = []
        original = tomopack.schedule.powell_minimize

        def counted_powell(*args, **kwargs):
            result = original(*args, **kwargs)
            nfev.append(result.nfev)
            return result

        monkeypatch.setattr(tomopack.schedule, "powell_minimize", counted_powell)
        code, _out, _ = run_cli(
            capsys, "optimize", "--n", "2", "--l", "1", "--restarts", "1", "--phases", "1",
            "--sweeps-per-phase", "1", "--out", str(tmp_path),
        )
        assert code == 0
        assert len(nfev) == 1
        assert len(gram_calls) == nfev[0] + 2
