"""The benchmark's checker must accept the package's certified outputs
and reject damaged ones, or its passes mean nothing.

    PYTHONPATH=src:perfbench python3 -m pytest -q perfbench/test_checker.py
"""
from pathlib import Path

import numpy as np
import pytest

import darlington
from checker import CheckFailed, check_inner_extension, check_real_witness
from workloads import Pool

POOL = Pool(Path(__file__).resolve().parent / "inputs" / "main.npz", ["k1n5", "zeta1"])


@pytest.fixture(scope="module")
def synthesis():
    inst = POOL.instance("k1n5", 0)
    T = darlington.minimize_symmetric(inst.realization).extension
    return inst, (T.a, T.b, T.c, T.d), inst.meta["n"] + inst.meta["kappa"]


def test_accepts_certified_extension(synthesis):
    inst, T, degree = synthesis
    assert check_inner_extension(T, inst.sys, degree, symmetric=True) < 1e-9


@pytest.mark.parametrize("damage", ["B", "D", "state"])
def test_rejects_damaged_extension(synthesis, damage):
    inst, (A, B, C, D), degree = synthesis
    if damage == "B":  # innerness and the S block break by about 1e-3
        T = (A, B + 1e-3, C, D)
    elif damage == "D":  # unitary at infinity no more
        T = (A, B, C, D + 1e-3)
    else:  # one unobservable, unreachable state: degree no longer matches
        n = A.shape[0]
        A2 = np.zeros((n + 1, n + 1), dtype=complex)
        A2[:n, :n], A2[n, n] = A, -1.0
        T = (A2, np.vstack([B, np.zeros((1, B.shape[1]))]),
             np.hstack([C, np.zeros((C.shape[0], 1))]), D)
        degree += 1
    with pytest.raises(CheckFailed):
        check_inner_extension(T, inst.sys, degree, symmetric=True)


def test_rejects_wrong_degree(synthesis):
    inst, T, degree = synthesis
    with pytest.raises(CheckFailed):
        check_inner_extension(T, inst.sys, degree - 2, symmetric=True)


def test_real_witness_of_the_worked_example():
    inst = POOL.instance("zeta1", 0)
    SR = darlington.signature_realization(inst.realization)
    rep = darlington.real_symmetric_feasibility(SR)
    R = SR.realization
    sig = (R.a, R.b, R.c, R.d)
    assert rep.feasible
    assert check_real_witness(rep.witness, sig, SR.j) < 1e-9
    with pytest.raises(CheckFailed):
        check_real_witness(rep.witness * 1.001, sig, SR.j)
