"""Command-line interface: file round-trips, subcommands, exit codes."""
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import darlington.cli
import darlington.extension
import darlington.realization
from darlington.cli import main, read_problem, write_realization
from darlington.extension import innerness_residual
from darlington.realization import Realization, evaluate

DATA = Path(__file__).resolve().parent / "data"


def write_coupled_pair(path, zeta=2.0, flags=None):
    z = float(zeta)
    doc = {
        "A": [[[-z, 0.0], [0.0, 0.0]], [[0.0, 0.0], [-z, 0.0]]],
        "B": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]],
        "C": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]],
        "D": [[[0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]],
        "flags": flags or {"symmetric": True, "real": True},
    }
    path.write_text(json.dumps(doc))
    return path


def _bits(M):
    """M's entries as raw 64-bit words, so that -0.0 differs from 0.0."""
    return np.ascontiguousarray(M).view(np.uint64)


_HUGE = 1.7976931348623157e308
_RNG = np.random.default_rng(3)


class TestIO:
    @pytest.mark.parametrize("matrices", [
        (_RNG.normal(size=(3, 3)) + 1j * _RNG.normal(size=(3, 3)),
         _RNG.normal(size=(3, 2)), _RNG.normal(size=(2, 3)), _RNG.normal(size=(2, 2))),
        ([[complex(-0.0, -0.0), 5e-324], [_HUGE, -_HUGE * 1j]],
         [[-0.0, 5e-324j], [-5e-324, complex(_HUGE, -0.0)]],
         [[complex(0.0, -0.0), -_HUGE], [1.0, -5e-324j]],
         [[-0.0, 0.0], [complex(-_HUGE, _HUGE), 5e-324]]),
        (np.array([[-3, 1], [0, -2]]), np.array([[1, 0, 2], [0, -1, 0]]),
         np.array([[4, 0], [0, 7]]), np.array([[0, 1, 0], [-1, 0, 0]])),
        (np.zeros((0, 0)), np.zeros((0, 3)), np.zeros((2, 0)),
         [[0.25, -0.0, 0.5j], [0.1, 0.2, complex(-0.3, 0.4)]]),
        (-np.eye(2), _RNG.normal(size=(2, 3)), _RNG.normal(size=(1, 2)),
         _RNG.normal(size=(1, 3)) + 1j * _RNG.normal(size=(1, 3))),
    ], ids=["random", "extremes", "integers", "degree-0", "non-square-d"])
    def test_round_trip_bit_exact(self, tmp_path, matrices):
        # a realization file is one single-line JSON document: every
        # entry, the sign of each zero included, reads back bit for bit,
        # and so does the meta object
        R = Realization(*matrices)
        meta = {"mode": "inner", "degree": R.n, "kappa": 0, "inner": True,
                "innerness_residual": 5e-324, "block_match": -0.0}
        out = tmp_path / "r.json"
        write_realization(str(out), R, meta=meta)
        text = out.read_text(encoding="utf-8")
        assert text.endswith("\n") and text.count("\n") == 1
        assert json.dumps(json.loads(text)["meta"]) == json.dumps(meta)
        back = read_problem(str(out))["realization"]
        for got, want in zip((back.a, back.b, back.c, back.d), (R.a, R.b, R.c, R.d)):
            assert got.shape == want.shape
            assert np.array_equal(_bits(got), _bits(want))

    def test_bare_reals_accepted(self, tmp_path):
        doc = {"A": [[-1.0]], "B": [[1.0]], "C": [[1.0]], "D": [[0.0]]}
        f = tmp_path / "p.json"
        f.write_text(json.dumps(doc))
        R = read_problem(str(f))["realization"]
        assert R.n == 1 and R.a[0, 0] == -1.0

    def test_rejects_empty(self, tmp_path):
        f = tmp_path / "bad.json"
        f.write_text("{}")
        with pytest.raises(ValueError):
            read_problem(str(f))

    @pytest.mark.parametrize("command", ["check", "synthesize", "scalar"])
    @pytest.mark.parametrize("edit, named", [
        (lambda doc: [doc], "JSON object, not list"),
        (lambda doc: {"p1": 3, "q": [1.0, 1.0]}, "field 'p1'"),
        (lambda doc: {**doc, "flags": []}, "field 'flags'"),
        (lambda doc: {**doc, "flags": "yes"}, "field 'flags'"),
        (lambda doc: {**doc, "flags": {"symmetric": "no"}}, "flag 'symmetric'"),
    ], ids=["top-level-list", "scalar-p1", "list-flags", "string-flags",
            "string-flag-value"])
    def test_malformed_file_is_an_error_naming_the_field(self, tmp_path, capsys,
                                                         command, edit, named):
        f = write_coupled_pair(tmp_path / "z2.json")
        f.write_text(json.dumps(edit(json.loads(f.read_text()))))
        with pytest.raises(ValueError, match=named):
            read_problem(str(f))
        assert main([command, str(f)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and named in captured.err


class TestCheck:
    def test_valid_file_exits_zero(self, tmp_path, capsys):
        f = write_coupled_pair(tmp_path / "z2.json")
        assert main(["check", str(f)]) == 0
        out = capsys.readouterr().out
        assert "schur_on_grid: True" in out

    def test_contractivity_failure_suggests_mobius(self, tmp_path, capsys):
        # S(s) = s/(s+2): unit norm at infinity
        doc = {"A": [[-2.0]], "B": [[1.0]], "C": [[-2.0]], "D": [[1.0]]}
        f = tmp_path / "edge.json"
        f.write_text(json.dumps(doc))
        rc = main(["check", str(f)])
        out = capsys.readouterr().out
        assert rc == 2
        assert "--mobius" in out

    def test_mobius_flag_fixes_it(self, tmp_path, capsys):
        doc = {"A": [[-2.0]], "B": [[1.0]], "C": [[-2.0]], "D": [[1.0]]}
        f = tmp_path / "edge.json"
        f.write_text(json.dumps(doc))
        assert main(["check", str(f), "--mobius", "0"]) == 0

    def test_flag_mismatch_fails(self, tmp_path, capsys):
        doc = {"A": [[-1.0, 0.0], [0.0, -2.0]],
               "B": [[0.3, 0.0], [0.0, 0.3]],
               "C": [[0.0, 0.3], [0.3, 0.0]],
               "D": [[0.0, 0.1], [0.2, 0.0]],
               "flags": {"symmetric": True}}
        f = tmp_path / "asym.json"
        f.write_text(json.dumps(doc))
        assert main(["check", str(f)]) == 1

    def test_nonsquare_d_with_symmetric_flag_fails(self, tmp_path, capsys):
        doc = {"A": [[-1.0]], "B": [[0.2, 0.1]], "C": [[1.0]],
               "D": [[0.0, 0.0]], "flags": {"symmetric": True}}
        f = tmp_path / "wide.json"
        f.write_text(json.dumps(doc))
        assert main(["check", str(f)]) == 1

    def test_json_report(self, tmp_path, capsys):
        f = write_coupled_pair(tmp_path / "z2.json")
        assert main(["check", str(f), "--json"]) == 0
        rep = json.loads(capsys.readouterr().out)
        assert rep["mcmillan_degree"] == 2


class TestSynthesize:
    def test_minimal_symmetric_report(self, tmp_path, capsys):
        f = write_coupled_pair(tmp_path / "z2.json")
        out = tmp_path / "ext.json"
        rc = main(["synthesize", str(f), "--mode", "minimal-symmetric",
                   "--out", str(out), "--json"])
        assert rc == 0
        rep = json.loads(capsys.readouterr().out)
        assert rep["degree"] == 2 and rep["kappa"] == 0
        saved = read_problem(str(out))["realization"]
        assert saved.outputs == 4

    def test_inner_mode_outer_certificate(self, tmp_path, capsys):
        f = write_coupled_pair(tmp_path / "z2.json")
        rc = main(["synthesize", str(f), "--mode", "inner",
                   "--solution", "min", "--json"])
        assert rc == 0
        rep = json.loads(capsys.readouterr().out)
        assert rep["outer_lower_left"] is True
        assert rep["degree"] == 2
        assert rep["innerness_residual"] < 1e-8

    @pytest.mark.parametrize("index", [0, 23])
    def test_inner_max_on_a_badly_scaled_realization(self, capsys, index):
        # main s8g #0 and #23 of perfbench/inputs/main.npz: ||H|| is 2-3e5
        # but about 100 once diagonally balanced, and a cluster tolerance
        # scaled by the unbalanced norm merged all 16 eigenvalues of H
        # (none within 0.4 of the axis) into one axis cluster
        f = DATA / f"inner_max_s8g_{index}.json"
        rc = main(["synthesize", str(f), "--mode", "inner",
                   "--solution", "max", "--json"])
        assert rc == 0
        rep = json.loads(capsys.readouterr().out)
        assert rep["degree"] == 8 and rep["kappa"] == 8 and rep["n0"] == 0
        assert rep["innerness_residual"] <= 1e-8 and rep["block_match"] <= 1e-10

    def test_symmetric_mode(self, tmp_path, capsys):
        f = write_coupled_pair(tmp_path / "z2.json")
        rc = main(["synthesize", str(f), "--mode", "symmetric", "--json"])
        assert rc == 0
        rep = json.loads(capsys.readouterr().out)
        assert rep["degree"] == 4  # 2n - n0
        assert rep["q_inner"] is True

    def test_scalar_file_kappa(self, tmp_path, capsys):
        doc = {"p1": [[0.5, 0.0]], "q": [[1.0, 0.0], [1.0, 0.0]]}
        f = tmp_path / "frac.json"
        f.write_text(json.dumps(doc))
        rc = main(["scalar", str(f), "--json"])
        assert rc == 0
        rep = json.loads(capsys.readouterr().out)
        assert rep["kappa"] == 1 and rep["extension_degree"] == 2

    def test_scalar_certifies_main_s8g_9(self, tmp_path, capsys):
        # main s8g #9 of perfbench/inputs/main.npz: with one companion
        # block per entry its extension missed the 1e-8 symmetry bound
        # (1.01e-8); one block for the second column certifies it
        out = tmp_path / "ext.json"
        rc = main(["scalar", str(DATA / "scalar_s8g_9.json"), "--json", "--out", str(out)])
        assert rc == 0
        rep = json.loads(capsys.readouterr().out)
        assert rep["kappa"] == 8 and rep["extension_degree"] == 16
        assert rep["innerness_residual"] <= 1e-8 and rep["symmetry_residual"] <= 1e-8
        assert read_problem(out)["realization"].n == 16

    def test_reports_certificates_without_sampling(self, tmp_path, capsys,
                                                   count_calls):
        # scalar, inner and symmetric report the lossless certificates
        # their extensions were built under, not a grid innerness check,
        # and scalar the symmetry residual its extension was checked by
        seen = count_calls(darlington.extension.innerness_residual,
                           darlington.realization.symmetry_residual)
        frac = tmp_path / "frac.json"
        frac.write_text(json.dumps({"p1": [[0.5, 0.0]], "q": [[1.0, 0.0], [1.0, 0.0]]}))
        assert main(["scalar", str(frac), "--json"]) == 0
        rep = json.loads(capsys.readouterr().out)
        assert rep["innerness_residual"] < 1e-8 and rep["symmetry_residual"] < 1e-8
        assert seen["symmetry_residual"] == []
        f = write_coupled_pair(tmp_path / "z2.json")
        for solution in ("min", "max"):
            assert main(["synthesize", str(f), "--mode", "inner", "--solution",
                         solution, "--json"]) == 0
            assert json.loads(capsys.readouterr().out)["innerness_residual"] < 1e-8
        assert main(["synthesize", str(f), "--mode", "symmetric", "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["unitary_axis_residual"] < 1e-8
        assert seen["innerness_residual"] == []

    @pytest.mark.parametrize("mode", ["inner", "symmetric", "minimal-symmetric"])
    def test_degree_zero_result_round_trips(self, tmp_path, capsys, mode,
                                            count_calls):
        # the state is unreachable and unobservable, so every extension
        # is constant; it is written as A = B = [] and C = [[], ...]
        doc = {"A": [[-1]], "B": [[0, 0]], "C": [[0], [0]],
               "D": [[0.3, 0.1], [0.1, 0.2]]}
        f = tmp_path / "const.json"
        f.write_text(json.dumps(doc))
        out = tmp_path / "r.json"
        seen = count_calls(darlington.realization.transfer_distance)
        assert main(["synthesize", str(f), "--mode", mode, "--out", str(out)]) == 0
        assert len(seen["transfer_distance"]) == 1  # the staircase cut is verified
        back = read_problem(str(out))["realization"]
        assert (back.a.shape, back.b.shape, back.c.shape) == ((0, 0), (0, 4), (4, 0))
        assert np.linalg.norm(back.d[2:, 2:] - np.array(doc["D"]), 2) <= 1e-12
        capsys.readouterr()
        assert main(["check", str(out), "--json"]) == 2  # inner: |D| = 1
        assert json.loads(capsys.readouterr().out)["state_dim"] == 0

    @pytest.mark.parametrize("degree", [0, 2])
    def test_check_calls_a_synthesis_result_unitary(self, tmp_path, capsys,
                                                     degree):
        # an inner function has norm 1 at every axis point, so the hint
        # must not suggest a --mobius point
        f = tmp_path / "in.json"
        if degree:
            write_coupled_pair(f)
        else:  # the state is unreachable and unobservable
            f.write_text(json.dumps({"A": [[-1]], "B": [[0, 0]], "C": [[0], [0]],
                                     "D": [[0.3, 0.1], [0.1, 0.2]]}))
        out = tmp_path / "r.json"
        assert main(["synthesize", str(f), "--out", str(out)]) == 0
        assert read_problem(str(out))["realization"].n == degree
        capsys.readouterr()
        assert main(["check", str(out), "--json"]) == 2
        hint = json.loads(capsys.readouterr().out)["hint"]
        assert "unitary on the imaginary axis" in hint
        assert "rerun" not in hint and "<w0>" not in hint

    def test_check_on_norm_one_non_unitary_function(self, tmp_path, capsys):
        # diag((s - 1)/(s + 1), 0.5): norm 1 on the whole axis, not unitary
        doc = {"A": [[-1.0]], "B": [[1.0, 0.0]], "C": [[-2.0], [0.0]],
               "D": [[1.0, 0.0], [0.0, 0.5]]}
        f = tmp_path / "f.json"
        f.write_text(json.dumps(doc))
        assert main(["check", str(f), "--json"]) == 2
        hint = json.loads(capsys.readouterr().out)["hint"]
        assert "no point of the axis grid is strictly contractive" in hint
        assert "unitary" not in hint and "rerun" not in hint

    @pytest.mark.parametrize("mode", ["inner", "symmetric", "minimal-symmetric"])
    def test_mobius_writes_an_extension_of_the_files_s(self, tmp_path, capsys, mode):
        # S = (s + 0.5)/(s + 1) has |S(inf)| = 1 and S(0) = 0.5: the
        # extension built on S(1/s) is mapped back to one of S itself
        f = tmp_path / "s.json"
        f.write_text(json.dumps({"A": [[-1.0]], "B": [[1.0]], "C": [[-0.5]], "D": [[1.0]]}))
        out = tmp_path / "r.json"
        assert main(["synthesize", str(f), "--mode", mode, "--mobius", "0",
                     "--out", str(out), "--json"]) == 0
        rep = json.loads(capsys.readouterr().out)
        assert rep["block_match"] <= 1e-12
        T = read_problem(str(out))["realization"]
        assert abs(evaluate(T, 2.0)[1, 1] - 2.5 / 3.0) <= 1e-12
        assert innerness_residual(T) <= 1e-10

    @pytest.mark.parametrize("mobius", [None, "0.5"])
    def test_symmetric_mode_on_the_maximal_solution(self, tmp_path, capsys, mobius):
        # Sigma on P_max is unitary but not inner; it is certified on its
        # signature Gramian diag(J_Q, I), also mapped back from --mobius
        f = write_coupled_pair(tmp_path / "z2.json")
        extra = [] if mobius is None else ["--mobius", mobius]
        assert main(["synthesize", str(f), "--mode", "symmetric", "--solution",
                     "max", "--json", *extra]) == 0
        rep = json.loads(capsys.readouterr().out)
        assert rep["q_inner"] is False and rep["degree"] == 4
        assert rep["unitary_axis_residual"] <= 1e-8
        assert rep["symmetry_residual"] <= 1e-8

    @pytest.mark.parametrize("mode", ["inner", "symmetric", "minimal-symmetric"])
    def test_mobius_report_has_the_plain_report_keys(self, tmp_path, capsys, mode):
        # one certification tail: with or without --mobius the report
        # carries the same keys, block_match among them
        f = write_coupled_pair(tmp_path / "z2.json")
        reports = []
        for extra in ([], ["--mobius", "0.5"]):
            assert main(["synthesize", str(f), "--mode", mode, "--json", *extra]) == 0
            reports.append(json.loads(capsys.readouterr().out))
        plain, mapped = reports
        assert list(plain) == list(mapped)
        assert plain["block_match"] <= 1e-12 and mapped["block_match"] <= 1e-12

    @pytest.mark.parametrize("mobius", [None, "0.5"])
    @pytest.mark.parametrize("mode, cert", [
        ("inner", "innerness_residual"),
        ("symmetric", "unitary_axis_residual"),
        ("minimal-symmetric", "innerness_residual"),
    ])
    def test_nan_certificate_fails_every_mode(self, tmp_path, capsys, monkeypatch,
                                              mode, cert, mobius):
        monkeypatch.setattr(darlington.cli, "_lossless_residual",
                            lambda R, X: float("nan"))
        f = write_coupled_pair(tmp_path / "z2.json")
        extra = [] if mobius is None else ["--mobius", mobius]
        assert main(["synthesize", str(f), "--mode", mode, *extra]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"{cert} nan" in captured.err

    @pytest.mark.parametrize("command", ["check", "synthesize"])
    @pytest.mark.parametrize("w0", ["nan", "inf"])
    def test_non_finite_mobius_point_is_named(self, tmp_path, capsys, command, w0):
        f = write_coupled_pair(tmp_path / "z2.json")
        assert main([command, str(f), "--mobius", w0]) == 1
        err = capsys.readouterr().err
        assert "omega0 must be finite" in err and "SVD" not in err

    def test_missing_file_exits_one(self, capsys):
        assert main(["check", "/nonexistent/problem.json"]) == 1


def test_reused_parser_gives_the_fresh_parsers_results(tmp_path, capsys):
    # main builds its parser once per process; no default or value of an
    # earlier call, accepted or rejected, may reach a later one
    f = write_coupled_pair(tmp_path / "z2.json")
    frac = tmp_path / "frac.json"
    frac.write_text(json.dumps({"p1": [[0.5, 0.0]], "q": [[1.0, 0.0], [1.0, 0.0]]}))
    first = ["synthesize", str(f), "--mode", "inner", "--solution", "max",
             "--tol", "1e-6", "--json"]
    calls = [first, ["synthesize", str(f), "--json"], ["scalar", str(frac)],
             ["synthesize", str(f), "--mode", "bogus"], first]

    def run(argv):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        out = capsys.readouterr().out
        return code, json.loads(out) if "--json" in argv else out

    darlington.cli._build_parser.cache_clear()
    reused = [run(argv) for argv in calls]
    assert darlington.cli._build_parser.cache_info().misses == 1
    fresh = []
    for argv in calls:
        darlington.cli._build_parser.cache_clear()
        fresh.append(run(argv))
    assert reused == fresh
    assert [code for code, _ in reused] == [0, 0, 0, 2, 0]
    assert reused[1][1]["mode"] == "minimal-symmetric"
    assert reused[1][1]["solution"] == "min"


def test_console_entry_point(tmp_path):
    f = write_coupled_pair(tmp_path / "z2.json")
    proc = subprocess.run([sys.executable, "-m", "darlington", "check", str(f)],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "schur_on_grid: True" in proc.stdout
