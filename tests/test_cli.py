import json
import tracemalloc

import pytest

from qclone.cli import build_parser, main, run_concat
from qclone.estimator import MAX_SHOTS


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestBoundsCommand:
    def test_table_row(self, capsys):
        code, out, _ = run_cli(capsys, "bounds", "--n", "1", "--m", "2")
        assert code == 0
        assert "2/3" in out and "5/6" in out

    def test_json(self, capsys):
        code, out, _ = run_cli(capsys, "bounds", "--n", "3", "--m", "7", "--format", "json")
        assert code == 0
        report = json.loads(out)
        assert report["results"]["eta_opt"] == "27/35"
        assert all(c["pass"] for c in report["checks"])

    def test_bad_order(self, capsys):
        code, _, err = run_cli(capsys, "bounds", "--n", "3", "--m", "2")
        assert code == 2
        assert "error" in err


class TestCloneCommand:
    def test_json_payload(self, capsys):
        code, out, _ = run_cli(capsys, "clone", "--n", "1", "--m", "2",
                               "--samples", "50", "--seed", "7")
        assert code == 0
        report = json.loads(out)
        assert report["results"]["eta_predicted"] == "2/3"
        assert abs(report["results"]["eta_measured"] - 2 / 3) < 1e-9
        assert report["results"]["universality_spread"] < 1e-9

    def test_csv_format(self, capsys):
        code, out, _ = run_cli(capsys, "clone", "--n", "2", "--m", "3",
                               "--samples", "5", "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "n,m,l,quantity,expected,actual,abs_error,pass"
        assert all(line.endswith("true") for line in lines[1:])

    def test_invalid_args_exit_2(self, capsys):
        code, _, _ = run_cli(capsys, "clone", "--n", "3", "--m", "2")
        assert code == 2

    def test_failed_check_exit_1(self, capsys):
        # an unattainable tolerance must be reported as a failure, not hidden
        code, _, err = run_cli(capsys, "clone", "--n", "2", "--m", "5",
                               "--samples", "5", "--tol", "1e-18")
        assert code == 1
        assert "FAIL" in err


class TestEstimateCommand:
    def test_exact_and_mc(self, capsys):
        code, out, _ = run_cli(capsys, "estimate", "--m", "2", "--shots", "5000")
        assert code == 0
        report = json.loads(out)
        assert report["results"]["fidelity_predicted"] == "3/4"
        assert abs(report["results"]["fidelity_exact"] - 0.75) < 1e-9

    def test_skip_mc(self, capsys):
        code, out, _ = run_cli(capsys, "estimate", "--m", "4", "--shots", "0")
        assert code == 0
        assert "fidelity_mc" not in json.loads(out)["results"]


class TestConcatCommand:
    def test_chain(self, capsys):
        code, out, _ = run_cli(capsys, "concat", "--n", "1", "--m", "2", "--l", "4")
        assert code == 0
        report = json.loads(out)
        assert report["results"]["eta_exact"] == "1/2"
        assert abs(report["results"]["eta_chain"] - 0.5) < 1e-9

    def test_memory_is_bounded(self):
        # Dicke coordinates only; one 2^12 x 2^12 operator alone is 268 MB
        tracemalloc.start()
        try:
            _, checks = run_concat(1, 3, 12, 5, 1e-9)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert all(c["pass"] for c in checks)
        assert peak < 4e6


class TestVerifyAll:
    def test_deterministic_reports(self, tmp_path, capsys):
        # small sample count to keep the suite quick; byte-identity is the point
        paths = [tmp_path / "a.json", tmp_path / "b.json"]
        for p in paths:
            code, _, _ = run_cli(capsys, "verify-all", "--seed", "1",
                                 "--samples", "3", "--output", str(p))
            assert code == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_report_schema(self, tmp_path, capsys):
        p = tmp_path / "r.json"
        code, _, _ = run_cli(capsys, "verify-all", "--seed", "2",
                             "--samples", "2", "--output", str(p))
        assert code == 0
        report = json.loads(p.read_text())
        assert set(report) == {"config", "results", "checks"}
        assert report["results"]["n_failed"] == 0
        for c in report["checks"]:
            assert set(c) >= {"name", "expected", "actual", "tolerance", "pass"}


CLONE = ["clone", "--n", "1", "--m", "2", "--samples", "2"]


@pytest.mark.parametrize("argv,code", [
    (CLONE + ["--seed", "-1"], 2),
    (CLONE + ["--seed", str(2 ** 64)], 2),
    (CLONE + ["--seed", "one"], 2),
    (CLONE + ["--tol", "nan"], 2),
    (CLONE + ["--tol", "inf"], 2),
    (CLONE + ["--tol", "-1"], 2),
    (CLONE + ["--tol", "0"], 2),
    (["clone", "--n", "1", "--m", "2", "--samples", "1"], 2),
    (["verify-all", "--samples", "0"], 2),
    (CLONE + ["--seed", "0"], 0),
    (CLONE + ["--seed", str(2 ** 64 - 1)], 0),
    (["clone", "--n", "14", "--m", "20", "--samples", "2"], 0),
    (["clone", "--n", "60", "--m", "60", "--samples", "2"], 0),
    (["clone", "--n", "61", "--m", "61", "--samples", "2"], 2),
    (["clone", "--n", "2000", "--m", "2000", "--samples", "2"], 2),
    (["clone", "--n", "6", "--m", "60", "--samples", "5000"], 0),
    (["concat", "--n", "1", "--m", "13", "--l", "20"], 0),
    (["concat", "--n", "6", "--m", "30", "--l", "60"], 0),
    (["concat", "--n", "1", "--m", "2", "--l", "61"], 2),
    (["clone", "--n", "3", "--m", "12", "--samples", "50"], 0),
    (["estimate", "--m", "2", "--shots", "1"], 2),
    (["estimate", "--m", "2", "--shots", "-5"], 2),
    (["estimate", "--m", "2", "--shots", "0"], 0),
    (["estimate", "--m", "2", "--shots", "2"], 0),
    (["estimate", "--m", "13"], 0),
    (["estimate", "--m", "20", "--shots", "10000"], 0),
    (["estimate", "--m", "21"], 2),
    (["bounds", "--n", "1", "--m", "1001"], 0),
    (["concat", "--n", "61", "--m", "61", "--l", "61"], 2),
    (["concat", "--n", "1", "--m", "61", "--l", "61"], 2),
    (["concat", "--n", "2000", "--m", "2000", "--l", "2000"], 2),
    (["bounds", "--n", "1", "--m", "2", "--seed", "1"], 2),
    (["bounds", "--n", "1", "--m", "2", "--samples", "5"], 2),
    (["bounds", "--n", "1", "--m", "2", "--tol", "1e-9"], 2),
    (["estimate", "--m", "2", "--samples", "5"], 2),
    (["concat", "--n", "1", "--m", "2", "--l", "4", "--samples", "5"], 2),
])
def test_argument_contract(capsys, argv, code):
    try:
        got = main(argv)
    except SystemExit as exc:
        got = exc.code
    assert got == code
    if code == 2:
        assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["estimate", "--m", "2", "--shots", str(MAX_SHOTS + 1)],
    ["verify-all", "--samples", str(MAX_SHOTS // 200 + 1)],
])
def test_shot_limit_refused_before_drawing(capsys, argv):
    # refused before any shot is drawn or any cell runs: only parsing allocates
    tracemalloc.start()
    try:
        try:
            got = main(argv)
        except SystemExit as exc:
            got = exc.code
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == 2
    assert "error:" in capsys.readouterr().err
    assert peak < 1e6


def test_parser_reused_after_refusal(capsys):
    argv = ["estimate", "--m", "3", "--shots", "1000", "--seed", "4"]
    code, first, _ = run_cli(capsys, *argv)
    assert code == 0
    with pytest.raises(SystemExit) as exc:
        main(["estimate", "--m", "3", "--shots", "1"])
    assert exc.value.code == 2
    assert run_cli(capsys, "bounds", "--n", "3", "--m", "2")[0] == 2
    assert build_parser() is build_parser()
    assert run_cli(capsys, *argv)[:2] == (0, first)


def test_unwritable_output_exit_3(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["bounds", "--n", "1", "--m", "2", "--output", "/nonexistent/dir/x.json"])
    assert exc.value.code == 3


def test_missing_subcommand_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_no_color_table(capsys, monkeypatch):
    monkeypatch.setenv("NO_COLOR", "1")
    code, out, _ = run_cli(capsys, "bounds", "--n", "1", "--m", "2", "--format", "table")
    assert code == 0
    assert "\x1b[" not in out
