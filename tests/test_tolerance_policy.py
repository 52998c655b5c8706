"""Fixed tolerance policy: the optional parameters each public function
takes, and a CLI that takes no tolerance."""
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
    @pytest.mark.parametrize("eps", [1e-10, 1e-9, 1e-8, 1e-7, 1e-6])
    def test_check_symmetry_is_synthesize_verdict(self, tmp_path, capsys, eps):
        # C = B^T off by eps in one entry: check runs symmetrize, as every
        # symmetric synthesis does, so it calls S symmetric exactly when the
        # synthesis gets past 'symmetrize', and names the same refusal
        B = 0.3 * np.array([[1.0, 0.2], [0.3, 1.0]])
        C = B.T + np.array([[0.0, eps], [0.0, 0.0]])
        doc = {"A": [[-1.0, 0.0], [0.0, -3.0]], "B": B.tolist(), "C": C.tolist(),
               "D": [[0.0, 0.0], [0.0, 0.0]]}
        f = tmp_path / "near.json"
        f.write_text(json.dumps(doc))
        main(["check", str(f), "--json"])
        rep = json.loads(capsys.readouterr().out)
        main(["synthesize", str(f)])
        err = capsys.readouterr().err
        refused = err.startswith("error: stage 'symmetrize': ")
        assert refused is (eps >= 1e-8) and rep["symmetric"] is not refused
        if refused:
            assert err == f"error: stage 'symmetrize': {rep['not_symmetric']}\n"
        else:
            assert "not_symmetric" not in rep

    @pytest.mark.parametrize("command", ["check", "synthesize", "scalar"])
    def test_no_command_has_a_tol_option(self, tmp_path, command):
        # every verdict is the library's certificate, at its own fixed bound;
        # argparse refuses the option before the file is read
        f = write_coupled_pair(tmp_path / "z2.json")
        with pytest.raises(SystemExit) as info:
            main([command, str(f), "--tol", "1e-6"])
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
