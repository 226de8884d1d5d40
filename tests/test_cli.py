import ast
import json
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from qclone import bounds, cli, cloner, estimator, linalg, symspace
from qclone.cli import build_parser, main, run_concat
from qclone.cloner import CloneChannel, apply_cloner, measure_shrinking_dicke, tensor_power_input
from qclone.linalg import LIMITS, haar_random_pure, min_eigenvalue, partial_trace, rng_from_seed
from qclone.symspace import _band, _band_qubit, _reduction, _support_pass, tensor_power_dicke


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


def single_input_etas(n, m, l, seed):
    """Stage-1, stage-2 and direct shrinking factors of one chain, one
    single-input core call each, stage 2 on the stage-1 output band: the
    reference for the batched runner."""
    v = tensor_power_dicke(haar_random_pure(rng_from_seed(seed)), n)
    coords = np.outer(v, v.conj())
    first = CloneChannel(n, m)
    mid = cloner._output_band(first, _band(coords))
    second = cloner._shrinking(_band_qubit(mid, _reduction(m)),
                               cloner._output_qubit(CloneChannel(m, l), mid))
    return (float(measure_shrinking_dicke(first, coords)[0]), float(second[0]),
            float(measure_shrinking_dicke(CloneChannel(n, l), coords)[0]))


class TestConcatBatch:
    @pytest.mark.parametrize("n,m,l,seed", [(1, 1, 1, 1), (6, 30, 60, 1), (1, 2, 4, 5),
                                            (3, 5, 9, 2), (4, 12, 12, 7), (60, 60, 60, 3)])
    def test_batch_of_one_is_single_input_path(self, n, m, l, seed):
        # bit-identical, so concat reports keep their bytes
        results, _ = run_concat(n, m, l, seed, 1e-9)
        e1, e2, direct = single_input_etas(n, m, l, seed)
        assert (results["eta_stage1"], results["eta_stage2"], results["eta_direct"]) == (e1, e2, direct)
        assert results["eta_chain"] == e1 * e2

    @pytest.mark.parametrize("seed", [1, 2])
    def test_batched_rows_match_per_chain_rows(self, seed):
        chains = cli.concat_chains(seed)
        assert len(chains) == 100
        batched = cli.run_concat_chains(chains, 1e-9)
        keys = ("name", "n", "m", "l", "expected", "tolerance", "pass")
        for (n, m, l, chain_seed), (_, rows) in zip(chains, batched, strict=True):
            _, single = run_concat(n, m, l, chain_seed, 1e-9)
            assert [[c[k] for k in keys] for c in rows] == [[c[k] for k in keys] for c in single]
            for b, s in zip(rows, single):
                assert abs(b["actual"] - s["actual"]) <= 1e-14, (b["name"], n, m, l)

    def test_verify_all_makes_one_core_call_per_channel(self, monkeypatch):
        # products: the 26 clone cells (one chunk each), 26 stage-1 groups (n, m),
        # 26 direct groups (n, l) and 36 stage-2 groups (m, l), then the three
        # mixed-input cells; tails: one each for the clone, concat and mixed rows;
        # reductions (band kernel calls with a reduction's map): 26 cell chunks,
        # 4 input batches, 26 stage-1 output bands, 3 mixed inputs and 3 draws of
        # random_symmetric_dicke; engine calls: only the 26 sanity cells (cli), as
        # stage 2 and statement B read output bands
        products, tails, reductions, engine = [], [], [], []
        output_qubit, shrinking = cloner._output_qubit, cloner._shrinking
        band_qubit, apply_dicke = symspace._band_qubit, cloner.apply_cloner_dicke

        def product(ch, band):
            products.append(((ch.n_in, ch.m_out), len(band[0]) if band[0].ndim == 2 else None))
            return output_qubit(ch, band)

        def tail(q_in, q_out):
            tails.append(len(q_in))
            return shrinking(q_in, q_out)

        def kernel(band, band_map):
            if band_map is symspace._reduction(len(band_map[0]) - 1):
                reductions.append(None)
            return band_qubit(band, band_map)

        monkeypatch.setattr(cloner, "_output_qubit", product)
        monkeypatch.setattr(cloner, "_shrinking", tail)
        for module in (cloner, symspace):
            monkeypatch.setattr(module, "_band_qubit", kernel)

        def engine_call(caller):
            def call(ch, coords):
                engine.append(caller)
                return apply_dicke(ch, coords)
            return call

        for module in (cloner, cli):
            monkeypatch.setattr(module, "apply_cloner_dicke", engine_call(module.__name__))
        samples = 3
        cli.run_verify_all(1, samples, 1e-9)
        cells, chains = cli.clone_cells(1), cli.concat_chains(1)
        assert products[:26] == [((n, m), samples) for n, m, _, _ in cells]
        assert products[114:] == [((1, 3), None), ((2, 4), None), ((3, 5), None)]
        for (start, stop), (a, b) in zip([(26, 52), (52, 78), (78, 114)], [(0, 1), (0, 2), (1, 2)]):
            stage = products[start:stop]
            assert [key for key, _ in stage] == list(dict.fromkeys((c[a], c[b]) for c in chains))
            assert sum(size for _, size in stage) == 100
        assert tails == [26 * samples, 300, 3]
        assert len(reductions) == 62
        assert [engine.count(f"qclone.{name}") for name in ("cloner", "cli", "estimator")] == \
            [0, 26, 0]

    def test_band_paths_never_call_the_engine(self, monkeypatch):
        # concatenation's stage 2 and statement B read output bands: no module's
        # whole-output engine runs, under any name it is bound to
        def engine(*args):
            raise AssertionError("a band path formed a whole output")

        for name, module in list(sys.modules.items()):
            if (name == "qclone" or name.startswith("qclone.")) and \
                    hasattr(module, "apply_cloner_dicke"):
                monkeypatch.setattr(module, "apply_cloner_dicke", engine)
        chains = cli.concat_chains(1) + [(4, 20, 60, 1), (60, 60, 60, 3)]
        for (n, m, l, _), (e1, direct, e2) in zip(chains, cloner.measure_chains(chains)):
            assert abs(e1 * e2 - float(bounds.eta_opt(n, l))) < 1e-9
            assert abs(direct - float(bounds.eta_opt(n, l))) < 1e-9
        for m, l in [(1, 3), (2, 6), (5, 40), (60, 60)]:
            composed = estimator.verify_statement_b(m, l, haar_random_pure(rng_from_seed(m + l)))
            assert abs(composed - float(bounds.fidelity_meas_opt(m))) < 1e-8

    def test_concat_builds_one_channel_per_key(self, monkeypatch):
        built = []
        channel = cli.CloneChannel

        def counting(n, m):
            built.append((n, m))
            return channel(n, m)

        monkeypatch.setattr(cloner, "CloneChannel", counting)
        chains = cli.concat_chains(1)
        cli.run_concat_chains(chains, 1e-9)
        assert sorted(built) == sorted({k for n, m, l, _ in chains for k in ((n, m), (m, l), (n, l))})


def test_cli_imports_no_private_cloner_name():
    # the CLI draws the grid and formats rows; cloner owns the products and tails
    tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
    imported = [alias.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.module in ("cloner", "qclone.cloner")
                for alias in node.names]
    assert imported and [name for name in imported if name.startswith("_")] == []


class TestLedgerGrid:
    def test_flags_hold(self):
        chain, mono = cli._ledger_grid_checks()
        assert chain["name"] == "ledger-chain-identity-grid-50 (22100 triples)"
        assert chain["pass"] and mono["pass"]

    def test_perturbed_value_breaks_chain(self, monkeypatch):
        eta_opt = bounds.eta_opt

        def perturbed(n, m):
            eta = eta_opt(n, m)
            return Fraction(eta.numerator + 1, eta.denominator) if (n, m) == (7, 19) else eta

        monkeypatch.setattr(bounds, "eta_opt", perturbed)
        assert cli._ledger_grid_checks()[0]["pass"] is False

    @pytest.mark.parametrize("source", [
        lambda n, m: (n, m - 1) if (n, m) == (12, 30) else (n, m),   # eta(12, 30) = eta(12, 29)
        lambda n, m: (12, m) if n == 13 else (n, m),                 # row 13 = row 12
    ], ids=["m-step", "n-step"])
    def test_flat_step_breaks_monotonicity(self, monkeypatch, source):
        # each patch leaves every step of the other kind increasing
        eta_opt = bounds.eta_opt
        monkeypatch.setattr(bounds, "eta_opt", lambda n, m: eta_opt(*source(n, m)))
        assert cli._ledger_grid_checks()[1]["pass"] is False

    def test_products_beyond_int64_refused(self, monkeypatch):
        eta_opt = bounds.eta_opt
        big = Fraction(2 ** 21 + 1, 2 ** 21 + 2)
        monkeypatch.setattr(bounds, "eta_opt", lambda n, m: big if (n, m) == (7, 19) else eta_opt(n, m))
        with pytest.raises(OverflowError):
            cli._ledger_grid_checks()


LEDGER_ROWS = {   # verify-all row name -> its expected value from qclone.bounds, given (n, m, l)
    "clone-eta": lambda n, m, l: bounds.eta_opt(n, m),
    "clone-fidelity": lambda n, m, l: bounds.fidelity_opt(n, m),
    "concat-chain-eta": lambda n, m, l: bounds.eta_opt(n, l),
    "concat-direct-eta": lambda n, m, l: bounds.eta_opt(n, l),
    "mixed-input-clone-eta": lambda n, m, l: bounds.eta_opt(n, m),
    "mixed-input-measurement-eta": lambda n, m, l: bounds.eta_meas_opt(m),
    "estimate-fidelity-exact": lambda n, m, l: bounds.fidelity_meas_opt(m),
    "estimate-fidelity-mc": lambda n, m, l: bounds.fidelity_meas_opt(m),
    "composition-fidelity":
        lambda n, m, l: (1 + bounds.eta_opt(m, l) * bounds.eta_meas_opt(l)) / 2,
    "composition-l-independence": lambda n, m, l: bounds.fidelity_meas_opt(m),
}


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
        for seed in ("2", "1"):
            code, _, _ = run_cli(capsys, "verify-all", "--seed", seed,
                                 "--samples", "2", "--output", str(p))
            assert code == 0
            report = json.loads(p.read_text())
            assert set(report) == {"config", "results", "checks"}
            assert report["results"]["n_failed"] == 0
            for c in report["checks"]:
                assert set(c) >= {"name", "expected", "actual", "tolerance", "pass"}
            # every predicted value is the ledger's, as "p/q" or as a float at 12 digits
            rows = [c for c in report["checks"] if c["name"] in LEDGER_ROWS]
            assert len(rows) == 2 * 26 + 2 * 100 + 2 * 3 + 5 + 3 + 2 * 11
            for c in rows:
                value = LEDGER_ROWS[c["name"]](c["n"], c["m"], c["l"])
                assert c["expected"] in (f"{value.numerator}/{value.denominator}",
                                         f"{float(value):.12g}"), (seed, c)


def positivity_row(checks):
    (row,) = [c for c in checks if c["name"] == "sanity-min-eigenvalue"]
    return row


class TestSanityPositivity:
    def test_floor_agrees_with_dense_over_seeds(self):
        # every _sanity_checks cell of verify-all at seeds 1-20 against the
        # dense oracle, apply_cloner's 2^M embedding of the same output: the
        # positivity verdict at the -1e-10 floor, the symmetric support and
        # identical reductions the two constant rows stand for, and the trace
        cells = {(n, m, sanity_seed)
                 for seed in range(1, 21) for n, m, _, sanity_seed in cli.clone_cells(seed)}
        assert len(cells) == 520
        for n, m, cell_seed in sorted(cells):
            checks = {c["name"]: c for c in cli._sanity_checks(n, m, cell_seed)}
            psi = haar_random_pure(rng_from_seed(cell_seed))
            out = apply_cloner(CloneChannel(n, m), tensor_power_input(psi, n))
            assert checks["sanity-min-eigenvalue"]["pass"] == (min_eigenvalue(out) >= -1e-10)
            assert _support_pass(out)[0] < 1e-11, (n, m, cell_seed)
            reductions = [partial_trace(out, {q}, m) for q in range(m)]
            assert max(np.max(np.abs(r - reductions[0])) for r in reductions) < 1e-11
            assert abs(checks["sanity-trace"]["actual"] - out.trace().real) <= 1e-15
            for name in ("sanity-symmetric-residual", "sanity-reductions-identical"):
                assert checks[name]["actual"] == 0.0 and checks[name]["pass"]

    @pytest.mark.parametrize("lam,verdict", [(-1e-9, False), (-1e-11, True)])
    def test_embedded_eigenvalue_decides(self, monkeypatch, lam, verdict):
        # an engine output with least eigenvalue lam: -1e-9 fails and -1e-11
        # passes, read from the (M+1)x(M+1) output itself
        rng = rng_from_seed(910)
        q, _ = np.linalg.qr(rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5)))
        out = (q * [lam, 0.1, 0.2, 0.3, 0.4 - lam]) @ q.conj().T
        monkeypatch.setattr(cli, "apply_cloner_dicke", lambda ch, coords: out)
        assert positivity_row(cli._sanity_checks(2, 4, 1))["pass"] is verdict

    def test_verify_all_runs_no_dense_eigensolve(self, monkeypatch):
        # verify-all stays in Dicke coordinates: no isometry, support pass,
        # dense partial trace or dense eigensolve, under any name they are bound to
        def forbidden(*args, **kwargs):
            raise AssertionError("verify-all left Dicke coordinates")

        names = ("dicke_basis", "_support_pass", "partial_trace", "min_eigenvalue")
        for module in (cli, cloner, estimator, linalg, symspace):
            for name in names:
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, forbidden)
        results, checks = cli.run_verify_all(1, 50, 1e-9)
        assert (results["n_checks"], results["n_failed"]) == (554, 0)
        assert all(c["pass"] for c in checks)


def test_physics_guard_exits_1_without_traceback(capsys, monkeypatch):
    # the channel factor off by 1e-6 at (2, 16) trips the trace guard
    # inside certification; the run stops with one error line and exit 1
    amplitudes = cloner._amplitudes

    def perturbed(n, m):
        f = amplitudes(n, m)
        f[0, 1] += 1e-6
        return f

    cloner._transfer.cache_clear()
    monkeypatch.setattr(cloner, "_amplitudes", perturbed)
    try:
        code, out, err = run_cli(capsys, "clone", "--n", "2", "--m", "16", "--samples", "2")
    finally:
        cloner._transfer.cache_clear()
    assert code == 1 and out == ""
    assert err.startswith("error: channel output trace differs")
    assert "Traceback" not in err


def test_guard_in_a_concat_group_exits_1(capsys, monkeypatch):
    # (5, 8) is only a stage-2 channel of verify-all's concatenation chains:
    # its group trips the trace guard, and the whole run stops with exit 1
    amplitudes = cloner._amplitudes

    def perturbed(n, m):
        f = amplitudes(n, m)
        if (n, m) == (5, 8):
            f[0, 1] += 1e-6
        return f

    cloner._transfer.cache_clear()
    monkeypatch.setattr(cloner, "_amplitudes", perturbed)
    try:
        code, out, err = run_cli(capsys, "verify-all", "--samples", "2")
    finally:
        cloner._transfer.cache_clear()
    assert code == 1 and out == ""
    assert err.startswith("error: channel output trace differs") and err.count("\n") == 1


def test_guard_in_a_clone_cell_exits_1(capsys, monkeypatch):
    # (2, 7) trips the trace guard in its clone cell, whose tail it would
    # share with the other cells: the whole run stops with exit 1
    amplitudes = cloner._amplitudes

    def perturbed(n, m):
        f = amplitudes(n, m)
        if (n, m) == (2, 7):
            f[0, 1] += 1e-6
        return f

    cloner._transfer.cache_clear()
    monkeypatch.setattr(cloner, "_amplitudes", perturbed)
    try:
        code, out, err = run_cli(capsys, "verify-all", "--samples", "2")
    finally:
        cloner._transfer.cache_clear()
    assert code == 1 and out == ""
    assert err.startswith("error: channel output trace differs") and err.count("\n") == 1


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
    (["estimate", "--m", "61"], 2),
    (["bounds", "--n", "1", "--m", "1001"], 0),
    (["concat", "--n", "61", "--m", "61", "--l", "61"], 2),
    (["concat", "--n", "1", "--m", "61", "--l", "61"], 2),
    (["concat", "--n", "2000", "--m", "2000", "--l", "2000"], 2),
    (["bounds", "--n", "1", "--m", "2", "--seed", "1"], 2),
    (["bounds", "--n", "1", "--m", "2", "--samples", "5"], 2),
    (["bounds", "--n", "1", "--m", "2", "--tol", "1e-9"], 2),
    (["estimate", "--m", "2", "--samples", "5"], 2),
    (["concat", "--n", "1", "--m", "2", "--l", "4", "--samples", "5"], 2),
    (["concat", "--n", "3", "--m", "2", "--l", "4"], 2),
    (["concat", "--n", "2", "--m", "4", "--l", "3"], 2),
    (["concat", "--n", "0", "--m", "2", "--l", "4"], 2),
    (["concat", "--n", "1", "--m", "1", "--l", "1"], 0),
    (["concat", "--n", "60", "--m", "60", "--l", "60"], 0),
    (["concat", "--n", "1", "--m", "1", "--l", "1000000"], 2),
    (["estimate", "--m", "21"], 0),
    (["estimate", "--m", "60", "--shots", "10000"], 0),
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
    ["concat", "--n", "2000", "--m", "2000", "--l", "2000"],
    ["concat", "--n", "1", "--m", "1", "--l", "1000000"],
    ["concat", "--n", "1", "--m", "60", "--l", "61"],   # only stage 2 and direct are past it
])
def test_concat_checks_dicke_limit_before_drawing(monkeypatch, capsys, argv):
    # every channel is checked as it is built, so no input is drawn and no stage runs
    calls = []
    for name in ("tensor_power_dicke", "_output_qubit"):
        monkeypatch.setattr(cloner, name, lambda *a, _name=name: calls.append(_name))
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert (out, err) == ("", "error: dicke path limited to m_out <= 60\n")
    assert calls == []


@pytest.mark.parametrize("argv", [
    ["estimate", "--m", "2", "--shots", str(LIMITS["shots"][0] + 1)],
    ["verify-all", "--samples", str(LIMITS["shots"][0] // 200 + 1)],
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
