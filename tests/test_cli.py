import json
import tracemalloc

import numpy as np
import pytest

from qclone import cli, cloner, linalg
from qclone.cli import build_parser, main, run_concat
from qclone.cloner import CloneChannel, apply_cloner, tensor_power_input
from qclone.estimator import MAX_SHOTS
from qclone.linalg import haar_random_pure, min_eigenvalue, rng_from_seed
from qclone.symspace import embed_dicke, symmetric_floor


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


def counted_min_eigenvalue(monkeypatch):
    """Count the dense eigensolves of `linalg.min_eigenvalue`, under every
    name it is bound to."""
    calls = []

    def counting(op):
        calls.append(np.shape(op))
        return min_eigenvalue(op)

    for module in (cli, linalg):
        monkeypatch.setattr(module, "min_eigenvalue", counting)
    return calls


def positivity_row(checks):
    (row,) = [c for c in checks if c["name"] == "sanity-min-eigenvalue"]
    return row


class TestSanityPositivity:
    def test_floor_agrees_with_dense_over_seeds(self, monkeypatch):
        # every _sanity_checks cell of verify-all at seeds 1-20: the Weyl floor
        # is below the dense least eigenvalue and the row has the dense verdict
        cells = {(n, m, seed + 997 + 31 * n + m)
                 for seed in range(1, 21) for n in range(1, 5) for m in range(n, 9)}
        assert len(cells) == 520
        seen = []
        monkeypatch.setattr(cli, "symmetric_floor", lambda op: seen.append(op) or symmetric_floor(op))
        for n, m, cell_seed in sorted(cells):
            checks = cli._sanity_checks(n, m, cell_seed)
            (out,) = seen
            seen.clear()
            resid, floor = symmetric_floor(out)
            dense = min_eigenvalue(out)
            assert floor <= dense + 1e-13, (n, m, cell_seed)
            assert positivity_row(checks)["pass"] == (dense >= -1e-10) == (floor >= -1e-10)
            (row,) = [c for c in checks if c["name"] == "sanity-symmetric-residual"]
            assert row["actual"] == resid

    @pytest.mark.parametrize("lam,verdict", [(-1e-9, False), (-1e-11, True)])
    def test_embedded_eigenvalue_decides(self, monkeypatch, lam, verdict):
        # a symmetric output with least eigenvalue lam: -1e-9 fails and -1e-11
        # passes; the floor is within rounding of lam, so only the failing
        # one is inconclusive and goes to the dense route
        rng = rng_from_seed(910)
        q, _ = np.linalg.qr(rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5)))
        out = embed_dicke((q * [lam, 0.1, 0.2, 0.3, 0.4 - lam]) @ q.conj().T)
        monkeypatch.setattr(cli, "apply_cloner", lambda ch, rho: out)
        calls = counted_min_eigenvalue(monkeypatch)
        assert positivity_row(cli._sanity_checks(2, 4, 1))["pass"] is verdict
        assert calls == ([] if verdict else [(16, 16)])

    @pytest.mark.parametrize("sign", [1, -1])
    def test_off_subspace_weight_goes_dense(self, monkeypatch, sign):
        # weight 1e-6 outside the symmetric subspace makes the bound
        # inconclusive; the dense eigensolve then decides both ways
        singlet = np.kron([0, 1, -1, 0], [1, 0, 0, 0]) / np.sqrt(2)
        psi = haar_random_pure(rng_from_seed(920))
        out = apply_cloner(CloneChannel(1, 4), tensor_power_input(psi, 1))
        out = out + sign * 1e-6 * np.outer(singlet, singlet)
        assert symmetric_floor(out)[1] < -1e-10
        monkeypatch.setattr(cli, "apply_cloner", lambda ch, rho: out)
        calls = counted_min_eigenvalue(monkeypatch)
        assert positivity_row(cli._sanity_checks(1, 4, 1))["pass"] is (sign > 0)
        assert calls == [(16, 16)]
        assert (min_eigenvalue(out) >= -1e-10) is (sign > 0)

    def test_verify_all_runs_no_dense_eigensolve(self, monkeypatch):
        calls = counted_min_eigenvalue(monkeypatch)
        results, _ = cli.run_verify_all(1, 50, 1e-9)
        assert results["n_failed"] == 0
        assert calls == []


def test_physics_guard_exits_1_without_traceback(capsys, monkeypatch):
    # a table coefficient off by 1e-6 at (2, 16) trips the trace guard
    # inside certification; the run stops with one error line and exit 1
    amplitudes = cloner._amplitudes

    def perturbed(n, m):
        left, amp = amplitudes(n, m)
        left = left.copy()
        left[0, 1] += 1e-6
        return left, amp

    cloner._transfer.cache_clear()
    monkeypatch.setattr(cloner, "_amplitudes", perturbed)
    try:
        code, out, err = run_cli(capsys, "clone", "--n", "2", "--m", "16", "--samples", "2")
    finally:
        cloner._transfer.cache_clear()
    assert code == 1 and out == ""
    assert err.startswith("error: channel output trace differs")
    assert "Traceback" not in err


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
