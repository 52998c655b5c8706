"""Command-line interface: file round-trips, subcommands, exit codes."""
import dataclasses
import json
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

import darlington.cli
import darlington.extension
import darlington.realization
import darlington.reduction
from darlington.cli import main, read_problem, write_realization
from darlington.extension import (
    build_extension,
    innerness_residual,
    symmetric_unitary_extension,
)
from darlington.realization import (
    Realization,
    evaluate,
    minimal_realization,
    mobius_precondition,
    symmetrize,
)
from darlington.reduction import minimize_symmetric
from darlington.riccati import _extremal, build_hat

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


def write_notch_pair(path):
    """diag((s^2 + 0.5 s + 0.25)/(s^2 + s + 0.25), 0.5/(s + 1)): ||D|| = 1,
    and ||S(iw)|| is smallest, 0.5, at the notch w = 0.5, a grid point."""
    doc = {"A": [[0.0, 1.0, 0.0], [-0.25, -1.0, 0.0], [0.0, 0.0, -1.0]],
           "B": [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]],
           "C": [[0.0, -0.5, 0.0], [0.0, 0.0, 0.5]],
           "D": [[1.0, 0.0], [0.0, 0.0]]}
    path.write_text(json.dumps(doc))
    return path


def write_pair_at(path, omega0):
    """The coupled pair, strictly contractive at infinity, for omega0 None;
    else the notch pair, which the CLI moves to infinity at omega0 = 0.5."""
    return write_coupled_pair(path) if omega0 is None else write_notch_pair(path)


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


    @pytest.mark.parametrize("command, doc, named", [
        ("synthesize", {"A": [[-1.0]], "B": [[1.0]], "C": [[1.0]], "D": [[False]]},
         "field 'D': cannot parse complex entry False"),
        ("synthesize", {"A": [[[-1.0, True]]], "B": [[1.0]], "C": [[1.0]], "D": [[0.0]]},
         "field 'A': cannot parse complex entry [-1.0, True]"),
        ("scalar", {"p1": [True], "q": [1.0, 1.0]},
         "field 'p1': cannot parse complex entry True"),
        ("synthesize", {"A": [[-1.0]], "B": [[1.0]], "C": [[1.0]], "D": [[["0.5", "0"]]]},
         "field 'D': cannot parse complex entry ['0.5', '0']"),
    ], ids=["entry", "pair-part", "coefficient", "string-pair"])
    def test_booleans_are_not_numbers(self, tmp_path, capsys, command, doc, named):
        # bool subclasses int in Python, but true and false are no entries,
        # and float() reads a string, which is none either
        f = tmp_path / "p.json"
        f.write_text(json.dumps(doc))
        with pytest.raises(ValueError) as excinfo:
            read_problem(str(f))
        assert str(excinfo.value) == named
        assert main([command, str(f)]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == f"error: {named}\n"


class TestCheck:
    def test_valid_file_exits_zero(self, tmp_path, capsys):
        f = write_coupled_pair(tmp_path / "z2.json")
        assert main(["check", str(f)]) == 0
        out = capsys.readouterr().out
        assert "schur: True" in out

    def test_norm_one_at_infinity_is_checked_at_a_grid_point(self, tmp_path, capsys):
        # ||D|| = 1: check and synthesize both take omega0 from the library's
        # one entry, the grid point of least ||S(iw)||: 0 for S(s) = s/(s+2),
        # 0.5 for the notch pair
        edge = tmp_path / "edge.json"
        edge.write_text(json.dumps({"A": [[-2.0]], "B": [[1.0]], "C": [[-2.0]], "D": [[1.0]]}))
        for f, omega0 in ((edge, 0.0), (write_notch_pair(tmp_path / "notch.json"), 0.5)):
            assert main(["check", str(f), "--json"]) == 0
            rep = json.loads(capsys.readouterr().out)
            assert rep["strictly_contractive_at_inf"] is False and "hint" not in rep
            assert rep["omega0"] == omega0 and rep["schur"] is rep["symmetric"] is True
            assert main(["synthesize", str(f), "--json"]) == 0
            assert json.loads(capsys.readouterr().out)["trace"][0]["omega0"] == omega0

    def test_no_option_moves_the_point(self, tmp_path, capsys):
        f = write_coupled_pair(tmp_path / "z2.json")
        for command in ("check", "synthesize"):
            with pytest.raises(SystemExit):
                main([command, str(f), "--mobius", "0"])
            assert "unrecognized arguments: --mobius" in capsys.readouterr().err

    def test_flag_mismatch_fails(self, tmp_path, capsys):
        doc = {"A": [[-1.0, 0.0], [0.0, -2.0]],
               "B": [[0.3, 0.0], [0.0, 0.3]],
               "C": [[0.0, 0.3], [0.3, 0.0]],
               "D": [[0.0, 0.1], [0.2, 0.0]],
               "flags": {"symmetric": True}}
        f = tmp_path / "asym.json"
        f.write_text(json.dumps(doc))
        assert main(["check", str(f), "--json"]) == 1
        rep = json.loads(capsys.readouterr().out)
        assert rep["symmetric"] is False
        assert rep["flag_mismatch"] == ("file claims symmetric but intertwining residual 1: "
                                        "S is not symmetric")

    def test_real_flag_on_a_complex_realization_fails(self, tmp_path, capsys):
        # 0.25 / (s + 2 - 0.5i) passes every other check
        doc = {"A": [[[-2.0, 0.5]]], "B": [[0.5]], "C": [[0.5]], "D": [[0.0]]}
        f = tmp_path / "complex.json"
        f.write_text(json.dumps(doc))
        assert main(["check", str(f), "--json"]) == 0
        assert "flag_mismatch" not in json.loads(capsys.readouterr().out)
        f.write_text(json.dumps({**doc, "flags": {"real": True}}))
        assert main(["check", str(f), "--json"]) == 1
        rep = json.loads(capsys.readouterr().out)
        assert rep["flag_mismatch"] == ("file claims real but A is not real; "
                                        "realcase needs a real realization")

    @pytest.mark.parametrize("eps", [2e-9, 1e-11, 1e-13])
    def test_small_pole_keeps_its_degree(self, tmp_path, capsys, eps):
        # 0.5 eps / (s + eps), whose pole lies within the absolute pole
        # guard of its mirror, is minimal of degree 1
        f = tmp_path / "lag.json"
        f.write_text(json.dumps({"A": [[-eps]], "B": [[1.0]], "C": [[0.5 * eps]],
                                 "D": [[0.0]]}))
        main(["check", str(f), "--json"])
        rep = json.loads(capsys.readouterr().out)
        assert rep["mcmillan_degree"] == 1 and rep["minimal"] is True

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

    def test_gain_peak_between_grid_points_is_not_schur(self, tmp_path, capsys):
        # S = 0.432/(s^2 + 0.08 s + 16) peaks at 1.35 near w = 4, between
        # the grid points 3 and 5, where it stays below 0.07
        doc = {"A": [[0.0, 1.0], [-16.0, -0.08]], "B": [[0.0], [1.0]],
               "C": [[0.432, 0.0]], "D": [[0.0]]}
        f = tmp_path / "peak.json"
        f.write_text(json.dumps(doc))
        assert main(["check", str(f), "--json"]) == 1
        rep = json.loads(capsys.readouterr().out)
        assert rep["schur"] is False
        assert "imaginary-axis point" in rep["not_schur"]
        assert "odd multiplicity" in rep["not_schur"]

    def test_nonsquare_file_is_refused(self, tmp_path, capsys):
        doc = {"A": [[-1.0]], "B": [[0.2, 0.1]], "C": [[1.0]], "D": [[0.0, 0.0]]}
        f = tmp_path / "wide.json"
        f.write_text(json.dumps(doc))
        assert main(["check", str(f)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "requires a square transfer function" in captured.err

    def test_b_that_does_not_fit_n_is_named(self, tmp_path, capsys):
        doc = {"A": [[-1.0, 0.0], [0.0, -1.0]], "B": [[0.0], [0.0], [0.0]],
               "C": [[0.0, 0.0]], "D": [[0.0]]}
        f = tmp_path / "misfit.json"
        f.write_text(json.dumps(doc))
        assert main(["check", str(f)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: B must be 2x1 and C 1x2, got (3, 1) and (1, 2)\n"

    @pytest.mark.parametrize("command, doc, named", [
        ("check", {"p1": [0.5], "q": [1.0, 1.0]}, "check needs a realization"),
        ("synthesize", {"p1": [0.5], "q": [1.0, 1.0]}, "synthesize needs a realization"),
        ("scalar", {"A": [[-1.0]], "B": [[1.0]], "C": [[0.5]], "D": [[0.0]]},
         "scalar needs coefficient arrays p1 and q"),
    ])
    def test_command_refuses_a_file_without_its_input(self, tmp_path, capsys,
                                                      command, doc, named):
        f = tmp_path / "p.json"
        f.write_text(json.dumps(doc))
        assert main([command, str(f)]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and named in captured.err


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

    def test_minimal_symmetric_trace_in_report_and_file(self, tmp_path, capsys):
        # the API's trace less its wall seconds, in plain JSON with each xi
        # as an [re, im] pair, in the report and the written file alike
        f = write_coupled_pair(tmp_path / "z2.json")
        out = tmp_path / "ext.json"
        assert main(["synthesize", str(f), "--json", "--out", str(out)]) == 0

        def strict(text):
            return json.loads(text, parse_constant=lambda c: pytest.fail(f"{c} in JSON"))

        rep = strict(capsys.readouterr().out)
        assert strict(out.read_text())["meta"]["trace"] == rep["trace"]

        def plain(v):
            if isinstance(v, dict):
                return {k: plain(x) for k, x in v.items() if k != "seconds"}
            if isinstance(v, (list, tuple)):
                return [plain(x) for x in v]
            return [v.real, v.imag] if isinstance(v, complex) else v

        R = minimal_realization(read_problem(str(f))["realization"])[0]
        assert rep["trace"] == plain(minimize_symmetric(R).trace)
        assert [rec["stage"] for rec in rep["trace"]] == [
            "symmetrize", "riccati", "symmetric-extension", "finalize"]
        assert rep["trace"][2]["degree"] == 2  # n + kappa, with no division

    def test_minimal_symmetric_refuses_the_maximal_solution(self, tmp_path, capsys):
        # the minimal extension is built on its own Riccati solution, so "max"
        # would be misreported
        out = tmp_path / "ext.json"
        assert main(["synthesize", str(DATA / "inner_max_s8g_0.json"), "--mode",
                     "minimal-symmetric", "--solution", "max", "--json",
                     "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and not out.exists()
        assert captured.err == ("error: --solution max applies to the inner and "
                                "symmetric modes\n")

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

    @pytest.mark.parametrize("rung, alpha", [("ax1n7", 1e6), ("ax1n9", 1e8)])
    def test_inner_mode_at_a_large_frequency_scale(self, tmp_path, capsys, rung, alpha):
        # main #0 of the rung as (a A, sqrt(a) B, sqrt(a) C, D): the axis
        # half-chains need a tolerance in units of ||N||, and the closed
        # loop's spectrum, of norm about 4e8 at ax1n9, a bound relative to
        # ||Z|| (its largest real part is 1.4e-6 there)
        with np.load(Path(__file__).parents[1] / "perfbench/inputs/main.npz") as z:
            A, B, C, D = (z[f"{rung}.{k}"][0] for k in "abcd")
        R = Realization(alpha * A, np.sqrt(alpha) * B, np.sqrt(alpha) * C, D)
        f = tmp_path / "scaled.json"
        write_realization(str(f), R)
        rc = main(["synthesize", str(f), "--mode", "inner", "--json"])
        captured = capsys.readouterr()
        assert rc == 0, captured.err
        rep = json.loads(captured.out)
        assert rep["outer_lower_left"] is True
        assert rep["innerness_residual"] <= 1e-8

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

    @pytest.mark.parametrize("q", [[1.0, 1.0, "NaN"], [1.0, "NaN", 1.0]])
    def test_scalar_refuses_a_non_finite_coefficient(self, tmp_path, capsys, q):
        # JSON's NaN parses as a float; a trailing one is no zero of q
        f = tmp_path / "frac.json"
        f.write_text(json.dumps({"p1": [0.5], "q": q}).replace('"NaN"', "NaN"))
        assert main(["scalar", str(f), "--json"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: q has non-finite coefficients\n"

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

    def test_scalar_certificate_miss_exits_one(self, tmp_path, capsys):
        # the fraction of test_scalar.py's test_certificate_miss_raises:
        # its balanced truncation misses the 1e-8 certificate (2.4e-8), so
        # the scalar command refuses it and writes nothing
        out = tmp_path / "ext.json"
        rc = main(["scalar", str(DATA / "scalar_s7g_101_65.json"), "--out", str(out)])
        assert rc == 1
        assert "scalar extension failed certification (lossless" in capsys.readouterr().err
        assert not out.exists()

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
        assert main(["check", str(out), "--json"]) == 1  # inner: |D| = 1
        rep = json.loads(capsys.readouterr().out)
        assert rep["state_dim"] == 0 and rep["schur"] is None

    @pytest.mark.parametrize("degree", [0, 2])
    def test_check_refuses_a_synthesis_result(self, tmp_path, capsys, degree):
        # an inner function has norm 1 at every axis point, so no point of
        # the grid is strictly contractive
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
        assert main(["check", str(out), "--json"]) == 1
        rep = json.loads(capsys.readouterr().out)
        assert rep["schur"] is None and rep["omega0"] is None and "hint" not in rep
        assert "not strictly contractive at any point of the frequency grid" in rep["not_schur"]

    def test_check_on_norm_one_non_unitary_function(self, tmp_path, capsys):
        # diag((s - 1)/(s + 1), 0.5): norm 1 on the whole axis, not unitary
        doc = {"A": [[-1.0]], "B": [[1.0, 0.0]], "C": [[-2.0], [0.0]],
               "D": [[1.0, 0.0], [0.0, 0.5]]}
        f = tmp_path / "f.json"
        f.write_text(json.dumps(doc))
        assert main(["check", str(f), "--json"]) == 1
        rep = json.loads(capsys.readouterr().out)
        assert rep["schur"] is None
        assert "not strictly contractive at any point of the frequency grid" in rep["not_schur"]

    @pytest.mark.parametrize("mode", ["inner", "symmetric", "minimal-symmetric"])
    def test_mobius_writes_an_extension_of_the_files_s(self, tmp_path, capsys, mode):
        # S = (s + 0.5)/(s + 1) has |S(inf)| = 1 and S(0) = 0.5, its
        # smallest: the extension built on S(1/s) is mapped back to one of S
        f = tmp_path / "s.json"
        f.write_text(json.dumps({"A": [[-1.0]], "B": [[1.0]], "C": [[-0.5]], "D": [[1.0]]}))
        out = tmp_path / "r.json"
        assert main(["synthesize", str(f), "--mode", mode, "--out", str(out),
                     "--json"]) == 0
        rep = json.loads(capsys.readouterr().out)
        omega0 = rep["trace"][0]["omega0"] if mode == "minimal-symmetric" else rep["omega0"]
        assert omega0 == 0.0 and rep["block_match"] <= 1e-12
        T = read_problem(str(out))["realization"]
        assert abs(evaluate(T, 2.0)[1, 1] - 2.5 / 3.0) <= 1e-12
        assert innerness_residual(T) <= 1e-10

    @pytest.mark.parametrize("omega0", [None, 0.5])
    def test_symmetric_mode_on_the_maximal_solution(self, tmp_path, capsys, omega0):
        # Sigma on P_max is unitary but not inner; it is certified on its
        # signature Gramian diag(J_Q, I), also mapped back from omega0
        f = write_pair_at(tmp_path / "pair.json", omega0)
        assert main(["synthesize", str(f), "--mode", "symmetric", "--solution",
                     "max", "--json"]) == 0
        rep = json.loads(capsys.readouterr().out)
        assert rep["omega0"] == omega0
        assert rep["q_inner"] is False and rep["degree"] == 4
        assert rep["unitary_axis_residual"] <= 1e-8
        assert rep["symmetry_residual"] <= 1e-8

    @pytest.mark.parametrize("mode", ["inner", "symmetric", "minimal-symmetric"])
    def test_mobius_report_has_the_plain_report_keys(self, tmp_path, capsys, mode):
        # one certification tail: strictly contractive at infinity or
        # mapped back from omega0, the report carries the same keys,
        # block_match among them
        reports = []
        for omega0 in (None, 0.5):
            f = write_pair_at(tmp_path / "pair.json", omega0)
            assert main(["synthesize", str(f), "--mode", mode, "--json"]) == 0
            reports.append(json.loads(capsys.readouterr().out))
        plain, mapped = reports
        assert list(plain) == list(mapped)
        assert plain["block_match"] <= 1e-12 and mapped["block_match"] <= 1e-12

    @pytest.mark.parametrize("mode", ["inner", "symmetric", "minimal-symmetric"])
    def test_nan_block_match_fails_every_mode(self, tmp_path, capsys, monkeypatch, mode):
        # every mode gates the S block of its extension in the library's
        # final stage, each at its bound
        nan = float("nan")
        # the final stage reads nothing else of linalg
        monkeypatch.setattr(darlington.reduction, "linalg",
                            types.SimpleNamespace(max_norm=lambda M: nan))
        f = write_coupled_pair(tmp_path / "z2.json")
        out = tmp_path / "r.json"
        assert main(["synthesize", str(f), "--mode", mode, "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and not out.exists()
        assert "stage 'finalize'" in captured.err and "block_match nan" in captured.err

    @pytest.mark.parametrize("mode, code", [("inner", 1), ("symmetric", 1),
                                            ("minimal-symmetric", 0)])
    def test_each_mode_gates_at_its_final_bound(self, tmp_path, capsys, monkeypatch,
                                                mode, code):
        # a block match of 5e-8 is under the symmetric solution's 1e-7 and
        # over the extremal solutions' 1e-8
        monkeypatch.setattr(darlington.reduction, "linalg",
                            types.SimpleNamespace(max_norm=lambda M: 5e-8))
        f = write_coupled_pair(tmp_path / "z2.json")
        assert main(["synthesize", str(f), "--mode", mode]) == code
        err = capsys.readouterr().err
        if code:
            assert "stage 'finalize'" in err and "block_match 5e-08" in err
        else:
            assert err == ""

    @pytest.mark.parametrize("mode", ["inner", "symmetric", "minimal-symmetric"])
    def test_nan_response_of_s_fails_every_mode(self, tmp_path, capsys, monkeypatch, mode):
        # a non-finite response reaches the final gate as a nan block match
        response = darlington.reduction.freqresp
        monkeypatch.setattr(darlington.reduction, "freqresp", lambda R, pts:
                            np.full(response(R, pts).shape, np.nan))
        f = write_coupled_pair(tmp_path / "z2.json")
        out = tmp_path / "r.json"
        assert main(["synthesize", str(f), "--mode", mode, "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and not out.exists()
        assert "stage 'finalize': certification failed (" in captured.err
        assert "block_match nan)" in captured.err

    @pytest.mark.parametrize("mode", ["inner", "symmetric", "minimal-symmetric"])
    def test_nan_block_match_of_a_cut_file_fails(self, tmp_path, capsys, monkeypatch, mode):
        # when the staircase cut a state of the file, the library matched the
        # cut realization, and the CLI gates the S block once more against
        # the file's S: the coupled pair with an unreachable, unobservable state
        f = tmp_path / "cut.json"
        f.write_text(json.dumps({"A": [[-2, 0, 0], [0, -2, 0], [0, 0, -3]],
                                 "B": [[1, 0], [0, 1], [0, 0]],
                                 "C": [[1, 0, 0], [0, 1, 0]], "D": [[0, 0], [0, 0]]}))
        monkeypatch.setattr(darlington.cli, "max_norm", lambda M: float("nan"))
        out = tmp_path / "r.json"
        assert main(["synthesize", str(f), "--mode", mode, "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and not out.exists()
        assert f"the {mode} extension failed certification (block_match nan)" in captured.err

    @pytest.mark.parametrize("mode, solution", [
        ("symmetric", "min"), ("symmetric", "max"), ("minimal-symmetric", "min")])
    def test_nan_mapped_back_symmetry_fails(self, tmp_path, capsys, monkeypatch,
                                            mode, solution):
        # the symmetric modes gate the symmetry of the extension mapped back
        # from omega0, read off its one cached probe response
        mapped_back = darlington.reduction._mobius_inverse

        def nan_symmetry(T, omega0):
            out = mapped_back(T, omega0)
            pts, F, _ = out._probe
            vars(out)["_probe"] = (pts, F, float("nan"))
            return out

        monkeypatch.setattr(darlington.reduction, "_mobius_inverse", nan_symmetry)
        f = write_notch_pair(tmp_path / "notch.json")
        out = tmp_path / "r.json"
        assert main(["synthesize", str(f), "--mode", mode, "--solution", solution,
                     "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and not out.exists()
        assert "stage 'finalize'" in captured.err and "symmetry_residual nan" in captured.err

    @pytest.mark.parametrize("omega0", [None, 0.5])
    @pytest.mark.parametrize("mode, cert", [
        ("inner", "innerness_residual"),
        ("symmetric", "unitary_axis_residual"),
        ("minimal-symmetric", "innerness_residual"),
    ])
    def test_nan_certificate_fails_every_mode(self, tmp_path, capsys, monkeypatch,
                                              mode, cert, omega0):
        # strictly contractive at infinity, the nan goes into the certificate
        # that the mode's library stage computed; mapped back from omega0,
        # into that of the mapped-back extension.  The library's final gate
        # refuses either
        nan = float("nan")
        if omega0 is not None:
            monkeypatch.setattr(darlington.reduction, "_lossless_residual",
                                lambda R, X: nan)
        elif mode == "inner":
            build = darlington.reduction.build_extension
            monkeypatch.setattr(darlington.reduction, "build_extension", lambda R, P:
                                dataclasses.replace(build(R, P), certificate=nan))
        else:
            extend = darlington.reduction.symmetric_unitary_extension
            monkeypatch.setattr(darlington.reduction, "symmetric_unitary_extension",
                                lambda E, degree: (*extend(E, degree)[:3], nan))
        f = write_pair_at(tmp_path / "pair.json", omega0)
        out = tmp_path / "r.json"
        assert main(["synthesize", str(f), "--mode", mode, "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and not out.exists()
        assert f"stage 'finalize': certification failed ({cert} nan" in captured.err

    @pytest.mark.parametrize("mode, solution", [
        ("inner", "min"), ("inner", "max"), ("symmetric", "min"), ("symmetric", "max")])
    def test_mapped_back_certificate_is_at_least_the_factors(self, tmp_path, capsys,
                                                             mode, solution):
        # mapped back from omega0, the report keeps the larger of the factor
        # certificate, taken on the Moebius frame before the projection, and
        # that of the mapped-back extension: the map back hides neither
        f = write_notch_pair(tmp_path / "notch.json")
        R, _ = minimal_realization(read_problem(str(f))["realization"])
        base = mobius_precondition(R, 0.5)
        base = symmetrize(base) if mode == "symmetric" else base
        (sol,) = _extremal(build_hat(base), ("minimal" if solution == "min" else "maximal",))
        E = build_extension(base, sol)
        if mode == "symmetric":
            cert = "unitary_axis_residual"
            factors = symmetric_unitary_extension(E, base.n - sol.spectrum.n0)[3]
        else:
            cert, factors = "innerness_residual", E.certificate
        assert main(["synthesize", str(f), "--mode", mode, "--solution", solution,
                     "--json"]) == 0
        rep = json.loads(capsys.readouterr().out)
        assert rep["omega0"] == 0.5
        assert factors <= rep[cert] <= 1e-8

    @pytest.mark.parametrize("omega0", [None, 0.5])
    @pytest.mark.parametrize("mode", ["inner", "symmetric", "minimal-symmetric"])
    def test_reports_the_library_certificates(self, tmp_path, capsys, count_calls,
                                              mode, omega0):
        # strictly contractive at infinity, each mode reports the lossless
        # certificate its library stage computed on the same realization and
        # Gramian, and computes none of its own; mapped back from omega0, the
        # mapped-back extension is certified once more, by the CLI's tail or
        # by the library
        if omega0 is None:
            f = DATA / "inner_max_s8g_0.json"
        else:
            f = write_notch_pair(tmp_path / "notch.json")
        S = read_problem(str(f))["realization"]
        seen = count_calls(darlington.extension._lossless_residual)
        R, _ = minimal_realization(S if omega0 is None else mobius_precondition(S, omega0))
        if mode == "minimal-symmetric":
            res = minimize_symmetric(R)
            library = {"innerness_residual": res.innerness, "symmetry_residual": res.symmetry,
                       "block_match": res.block_match}
        else:
            base = symmetrize(R) if mode == "symmetric" else R
            (pmin,) = _extremal(build_hat(base), ("minimal",))
            E = build_extension(base, pmin)
            if mode == "symmetric":
                _, _, sres, cert = symmetric_unitary_extension(E, base.n - pmin.spectrum.n0)
                library = {"unitary_axis_residual": cert, "symmetry_residual": sres}
            else:
                library = {"innerness_residual": E.certificate}
        calls = len(seen["_lossless_residual"])
        assert calls > 0
        assert main(["synthesize", str(f), "--mode", mode, "--json"]) == 0
        rep = json.loads(capsys.readouterr().out)
        assert len(seen["_lossless_residual"]) == 2 * calls + (omega0 is not None)
        if omega0 is None:
            assert {k: rep[k] for k in library} == library

    @pytest.mark.parametrize("mode", ["inner", "symmetric", "minimal-symmetric"])
    def test_each_mode_solves_the_gramian_once(self, monkeypatch, mode):
        # the file's realization keeps the Gramian P that minimal_realization
        # solved, and the symmetrizer reads it from there
        f = DATA / "inner_max_s8g_0.json"
        S = read_problem(str(f))["realization"]
        rhs = -S.b @ S.b.conj().T
        solves = []
        original = darlington.linalg._schur_solve

        def counting(form, Q, *args, **kwargs):
            solves.append(np.array_equal(Q, rhs))
            return original(form, Q, *args, **kwargs)

        monkeypatch.setattr(darlington.linalg, "_schur_solve", counting)
        assert main(["synthesize", str(f), "--mode", mode]) == 0
        assert sum(solves) == 1

    @pytest.mark.parametrize("command", ["check", "synthesize"])
    def test_inner_file_exits_one(self, tmp_path, capsys, command):
        # S(s) = (s - 1)/(s + 1) is inner: strictly contractive nowhere on
        # the axis, so synthesize refuses it and check reports schur null
        f = tmp_path / "inner.json"
        f.write_text(json.dumps({"A": [[-1.0]], "B": [[1.0]], "C": [[-2.0]],
                                 "D": [[1.0]]}))
        assert main([command, str(f), "--json"]) == 1
        captured = capsys.readouterr()
        refusal = "not strictly contractive at any point of the frequency grid"
        if command == "check":
            assert json.loads(captured.out)["schur"] is None
            assert refusal in json.loads(captured.out)["not_schur"]
        else:
            assert captured.out == "" and refusal in captured.err

    def test_missing_file_exits_one(self, capsys):
        assert main(["check", "/nonexistent/problem.json"]) == 1

    @pytest.mark.parametrize("command, stage", [
        (["check"], ""), (["synthesize", "--mode", "inner"], "stage 'precondition': "),
        (["synthesize", "--mode", "symmetric"], "stage 'symmetrize': "),
        (["synthesize", "--mode", "minimal-symmetric"], "stage 'symmetrize': ")],
        ids=["check", "inner", "symmetric", "minimal-symmetric"])
    def test_non_finite_grid_response_is_named(self, tmp_path, capsys, nan_response,
                                               command, stage):
        # ||D|| = 1, so omega0 is read off the grid response
        f = write_notch_pair(tmp_path / "notch.json")
        assert main([command[0], str(f), *command[1:]]) == 1
        err = capsys.readouterr().err
        assert err == f"error: {stage}S has a non-finite response on the frequency grid\n"


def test_reused_parser_gives_the_fresh_parsers_results(tmp_path, capsys):
    # main builds its parser once per process; no default or value of an
    # earlier call, accepted or rejected, may reach a later one
    f = write_coupled_pair(tmp_path / "z2.json")
    frac = tmp_path / "frac.json"
    frac.write_text(json.dumps({"p1": [[0.5, 0.0]], "q": [[1.0, 0.0], [1.0, 0.0]]}))
    first = ["synthesize", str(f), "--mode", "inner", "--solution", "max", "--json"]
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
    assert "schur: True" in proc.stdout
