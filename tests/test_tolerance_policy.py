"""Fixed tolerance policy: the optional parameters each public function
takes, and the CLI tolerance inputs that reach a check."""
import importlib
import inspect
import json

import numpy as np
import pytest

import darlington.realization
from darlington.cli import main, read_problem
from darlington.errors import ValidationError
from darlington.realization import Realization, minimal_realization
from test_cli import write_coupled_pair

MODULES = ("linalg", "realization", "riccati", "extension", "reduction",
           "scalar", "realcase", "cli")

# Every optional parameter here has a caller in the package, the CLI or
# the tests that passes it; a new one should come with its caller.
OPTIONAL = {
    "linalg.half_chain_basis": {"tol": 1e-8},
    "reduction.find_reduction_vector": {"support": None},
    "reduction.minimize_symmetric": {"residual_tol": 1e-7},
    "cli.main": {"argv": None},
}


def test_optional_parameters_are_exactly_the_used_ones():
    found = {}
    for name in MODULES:
        module = importlib.import_module(f"darlington.{name}")
        for attr in module.__all__:
            fn = getattr(module, attr)
            if not inspect.isfunction(fn):
                continue
            opts = {p.name: p.default
                    for p in inspect.signature(fn).parameters.values()
                    if p.default is not inspect.Parameter.empty}
            if opts:
                found[f"{name}.{attr}"] = opts
    assert found == OPTIONAL


class TestCliTolerance:
    def test_tol_tightens_minimal_symmetric_certification(self, tmp_path, capsys):
        # the coupled pair certifies with residuals near 3e-15
        f = write_coupled_pair(tmp_path / "z2.json")
        assert main(["synthesize", str(f), "--mode", "minimal-symmetric"]) == 0
        rc = main(["synthesize", str(f), "--mode", "minimal-symmetric",
                   "--tol", "1e-16"])
        assert rc == 1
        assert "certification failed" in capsys.readouterr().err

    def test_tol_tightens_check_symmetry_test(self, tmp_path, capsys):
        # C = B^T off by 1e-8 in one entry: grid symmetry residual ~1e-9,
        # inside the default 1e-7 and outside --tol 1e-10
        B = 0.3 * np.array([[1.0, 0.2], [0.3, 1.0]])
        C = B.T + np.array([[0.0, 1e-8], [0.0, 0.0]])
        doc = {"A": [[-1.0, 0.0], [0.0, -3.0]], "B": B.tolist(), "C": C.tolist(),
               "D": [[0.0, 0.0], [0.0, 0.0]]}
        f = tmp_path / "near.json"
        f.write_text(json.dumps(doc))
        for argv, symmetric in (([], True), (["--tol", "1e-10"], False)):
            main(["check", str(f), "--json", *argv])
            assert json.loads(capsys.readouterr().out)["symmetric_on_grid"] is symmetric

    @pytest.mark.parametrize("command", ["check", "synthesize"])
    @pytest.mark.parametrize("tol", ["nan", "inf", "-1", "0"])
    def test_refuses_a_tol_that_is_not_finite_and_positive(self, tmp_path, capsys,
                                                           command, tol):
        # a nan bound would pass every comparison-based gate it reaches
        f = write_coupled_pair(tmp_path / "z2.json")
        assert main([command, str(f), "--tol", tol]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--tol must be finite and positive" in captured.err

    def test_scalar_has_no_tol_option(self, tmp_path):
        f = tmp_path / "frac.json"
        f.write_text(json.dumps({"p1": [[0.5, 0.0]], "q": [[1.0, 0.0], [1.0, 0.0]]}))
        with pytest.raises(SystemExit) as info:
            main(["scalar", str(f), "--tol", "1e-6"])
        assert info.value.code == 2

    def test_file_with_tolerances_key_still_loads(self, tmp_path):
        f = write_coupled_pair(tmp_path / "z2.json")
        doc = json.loads(f.read_text())
        doc["tolerances"] = {}
        f.write_text(json.dumps(doc))
        prob = read_problem(str(f))
        assert prob["realization"].n == 2
        assert set(prob) == {"flags", "realization"}
        assert main(["check", str(f)]) == 0


def test_staircase_failure_names_distance_and_rank_tolerance(count_calls):
    # the second state is reachable only to 5e-10 relative, under the
    # rank tolerance, yet the output weight 1e4 makes it carry 2.5e-5 of
    # the transfer function: the cut is verified and refused
    seen = count_calls(darlington.realization.kalman_check,
                       darlington.realization.transfer_distance)
    R = Realization(np.diag([-1.0, -1e-3]), np.array([[1.0], [5e-10]]),
                    np.array([[1.0, 1e4]]), np.zeros((1, 1)))
    with pytest.raises(ValidationError,
                       match=r"transfer distance 2\.49\d*e-05 exceeds 1e-8 at rank "
                             r"tolerance 1e-09"):
        minimal_realization(R)
    assert [len(calls) for calls in seen.values()] == [1, 1]


def test_staircase_refuses_a_non_finite_transfer_distance(nan_response):
    # the input above, whose transfer distance on a nan response is nan
    R = Realization(np.diag([-1.0, -1e-3]), np.array([[1.0], [5e-10]]),
                    np.array([[1.0, 1e4]]), np.zeros((1, 1)))
    assert np.isnan(darlington.realization.transfer_distance(R, R))
    with pytest.raises(ValidationError, match="transfer distance nan exceeds 1e-8"):
        minimal_realization(R)
