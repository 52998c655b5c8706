"""The "certified or raise" contract of minimize_symmetric on seeded
draws that the well-conditioned filter never saw.

Every run either raises a DarlingtonError or returns an extension that
passes an independent re-check: its McMillan degree (from Hankel
singular values) is n + kappa, and on a dense 801-point axis grid it is
unitary, symmetric and carries S in its lower-right block.

The draws are read from tests/data/contract.npz, which
tests/data/freeze_contract.py wrote from conftest's generators.  Those
run the package's own spectral_factor_poly and minimal_realization, so
drawing at test time would let a rounding change in the code under test
choose the inputs that its refusal bars count.
"""
import functools
from pathlib import Path

import numpy as np
import numpy.polynomial.polynomial as npp
import pytest
import scipy.linalg as sla

from conftest import assemble_congruence, random_unitary, unpack_instance
from darlington import DarlingtonError, Realization, minimize_symmetric
from darlington.scalar import siso_realization

SPECS = [
    ("scalar", 2, 0, 0),
    ("scalar", 3, 1, 0),
    ("scalar", 3, 0, 1),
    ("scalar", 4, None, 0),
    ("congruence", [(2, 0, 0), (2, 0, 0)]),
    ("congruence", [(3, 1, 0), (1, None, 0)]),
    ("congruence", [(2, 0, 0), (2, None, 0), (3, 0, 1)]),
]

# 0 and +-10^k for 400 exponents k evenly spaced in [-3, 3]
GRID = np.concatenate([[0.0], np.logspace(-3, 3, 400), -np.logspace(-3, 3, 400)])


def transfer_on_axis(R: Realization) -> np.ndarray:
    """(k, p, m) stack of C (iw I - A)^{-1} B + D over GRID."""
    pencil = 1j * GRID[:, None, None] * np.eye(R.n) - R.a
    rhs = np.broadcast_to(R.b, (GRID.size,) + R.b.shape)
    return R.c @ np.linalg.solve(pencil, rhs) + R.d


def hankel_degree(R: Realization) -> int:
    """Number of Hankel singular values above 1/2; every one of them is
    1 for a minimal realization of a stable inner function."""
    if R.n == 0:
        return 0
    Wc = sla.solve_continuous_lyapunov(R.a, -R.b @ R.b.conj().T)
    Wo = sla.solve_continuous_lyapunov(R.a.conj().T, -R.c.conj().T @ R.c)
    hsv = np.sqrt(np.abs(np.linalg.eigvals(Wc @ Wo)))
    return int(np.sum(hsv > 0.5))


def worst(M: np.ndarray) -> float:
    return float(np.max(np.linalg.norm(M, 2, axis=(1, 2))))


def assert_certified_or_raises(R: Realization, degree: int) -> None:
    try:
        res = minimize_symmetric(R)
    except DarlingtonError:
        return
    assert_certified(R, res, degree)


def assert_certified(R: Realization, res, degree: int) -> None:
    T = res.extension
    p = R.outputs
    assert res.degree == T.n == degree
    assert T.n == 0 or np.max(np.linalg.eigvals(T.a).real) < 0
    assert hankel_degree(T) == degree
    V, S = transfer_on_axis(T), transfer_on_axis(R)
    assert worst(V @ V.conj().transpose(0, 2, 1) - np.eye(2 * p)) <= 1e-7
    assert worst(V - V.transpose(0, 2, 1)) <= 1e-7
    assert worst(V[:, p:, p:] - S) <= 1e-7


CONTRACT_FILE = Path(__file__).parent / "data" / "contract.npz"


def draw_key(spec, seed: int) -> str:
    """'scalar-n6k0a2/s24', 'congruence-n4k0a0+n4k0a0/s35': the kind, each
    part's n, kappa (g for generic) and axis-root count, and the seed."""
    parts = [spec[1:]] if spec[0] == "scalar" else spec[1]
    return (spec[0] + "-" + "+".join(f"n{n}k{'g' if k is None else k}a{a}" for n, k, a in parts)
            + f"/s{seed}")


@functools.cache
def _frozen_draws() -> dict:
    with np.load(CONTRACT_FILE) as z:
        return {key: z[key] for key in z.files}


def draw(spec, seed: int):
    """The frozen unfiltered draw of spec at seed (an Instance without its
    scalar fractions); a draw missing from contract.npz raises KeyError."""
    key = draw_key(spec, seed)
    if f"{key}/ints" not in _frozen_draws():
        raise KeyError(f"draw {key} is not in {CONTRACT_FILE.name}: add it to FROZEN_DRAWS "
                       "and run tests/data/freeze_contract.py")
    return unpack_instance(_frozen_draws(), key)


@pytest.mark.parametrize("seed", range(10))
@pytest.mark.parametrize("spec", SPECS, ids=str)
def test_drawn_instance(spec, seed):
    inst = draw(spec, seed)
    assert_certified_or_raises(inst.realization, inst.n + inst.expected_kappa)


# the SPECS at seeds 0-9, then two n = 4, kappa = 0 congruence blocks and
# ("scalar", 6, 0, 2) at seeds 0-59
CONTRACT_DRAWS = ([(spec, s) for spec in SPECS for s in range(10)]
                  + [(spec, s) for spec in (("congruence", [(4, 0, 0)] * 2), ("scalar", 6, 0, 2))
                     for s in range(60)])


def similar(R: Realization, cond: float, rng) -> tuple:
    """(S A S^-1, S B, C S^-1, D) for S = U diag(logspace(0, log10 cond, n)) V,
    U and V the Q factors of complex Gaussian matrices drawn from rng:
    the same transfer function in coordinates of condition cond."""
    n = R.n
    U, V = (np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))[0]
            for _ in range(2))
    S = U @ np.diag(np.logspace(0, np.log10(cond), n)) @ V
    Si = np.linalg.inv(S)
    return S @ R.a @ Si, S @ R.b, R.c @ Si, R.d


@pytest.mark.parametrize("cond, bar", [(1.0, 5), (100.0, 64)])
def test_unitary_coordinates_refuse_within_bar(cond, bar):
    # the 190 draws in coordinates of condition cond must certify or raise,
    # each refusal naming its stage, and raise at most bar times; 4 of them
    # refuse in the drawn coordinates
    rng = np.random.default_rng(7)
    refused = []
    for spec, seed in CONTRACT_DRAWS:
        inst = draw(spec, seed)
        R = Realization(*similar(inst.realization, cond, rng))  # every draw advances rng
        try:
            res = minimize_symmetric(R)
        except DarlingtonError as exc:
            assert str(exc).startswith("stage '"), str(exc)
            refused.append((spec, seed))
            continue
        assert_certified(R, res, inst.n + inst.expected_kappa)
    assert len(refused) <= bar, f"{len(refused)} refusals {refused}, bar {bar}"


# p = 10, n = 20 and p = 9, n = 23 draws whose doubled zeros a
# clustering of each intermediate realization's zeros failed to divide
# out ("stuck at degree ..."); the pi roots of the Hamiltonian divide them.
# The scalar and p = 2 draws (||P_min^-1|| about 5e5) left a state too
# many when the composed division B^-T T B^-1 was cut by a rank decision;
# the closed-form deflation drops exactly two
TEN = ("congruence", [(2, 0, 0)] * 10)
MIXED = ("congruence", [(2, 0, 0)] * 6 + [(2, None, 0)] * 2 + [(3, 0, 1)])
SCALAR_LOW = ("scalar", 3, 1, 0)
PAIR = ("congruence", [(3, 1, 0), (1, None, 0)])


def _stuck_id(v) -> str:
    if isinstance(v, int):
        return str(v)
    return f"p{len(v[1])}" if v in (TEN, MIXED) else str(v)


STUCK_DRAWS = ([(TEN, s) for s in (2, 4, 7, 10, 19)] + [(MIXED, s) for s in (4, 7, 8, 19)]
               + [(SCALAR_LOW, 20), (SCALAR_LOW, 48), (("scalar", 3, 0, 1), 36),
                  (PAIR, 20), (PAIR, 48)])


@pytest.mark.parametrize("spec, seed", STUCK_DRAWS, ids=_stuck_id)
def test_formerly_stuck_draw_certifies(spec, seed):
    inst = draw(spec, seed)
    res = minimize_symmetric(inst.realization)
    assert_certified(inst.realization, res, inst.n + inst.expected_kappa)


# Unfiltered specs on which minimize_symmetric still refuses some
# solvable draws, today all in symmetrize (its structural check, and on
# congruence-n6-n6 seed 47 an intertwiner found singular); each bar is
# the refusal count over seeds 0-59 today, so a change may lower it but
# not raise it, and every returned extension must certify
REFUSAL_BARS = [(("congruence", [(4, 0, 0), (4, 0, 0)]), 0),
                (("scalar", 6, 0, 2), 4),
                (("congruence", [(4, 0, 0)] * 3), 0),
                (("congruence", [(6, 0, 0)] * 2), 21)]


@pytest.mark.parametrize("spec, bar", REFUSAL_BARS,
                         ids=["congruence-n4-n4", "scalar-n6-ax2",
                              "congruence-n4-n4-n4", "congruence-n6-n6"])
def test_refusals_within_bar(spec, bar):
    refused = []
    for seed in range(60):
        inst = draw(spec, seed)
        try:
            res = minimize_symmetric(inst.realization)
        except DarlingtonError:
            refused.append(seed)
            continue
        assert_certified(inst.realization, res, inst.n + inst.expected_kappa)
    assert len(refused) <= bar, f"{len(refused)} refusals (seeds {refused}), bar {bar}"


# Semisimple pi roots, which have no Jordan chain to halve: U^T diag(f) U
# for f = (f_z1, f_z2, ...), f_z = 1/(s + z), and U a fixed unitary, with
# their degrees n + kappa.  A cluster of odd multiplicity (f_2 three or
# five times) holds a chi+ root too
def coupled(zetas) -> Realization:
    U = random_unitary(np.random.default_rng(3), len(zetas))
    return Realization(-np.diag(np.asarray(zetas, dtype=float)), U, U.T,
                       np.zeros((len(zetas),) * 2))


SEMISIMPLE = {"f2x3": ([2] * 3, 4), "f2x5": ([2] * 5, 6), "f2x3-f3x2": ([2] * 3 + [3] * 2, 6),
              "f2x6": ([2] * 6, 6)}


@pytest.mark.parametrize("name", SEMISIMPLE)
def test_semisimple_pi_root_certifies(name):
    zetas, degree = SEMISIMPLE[name]
    R = coupled(zetas)
    assert_certified(R, minimize_symmetric(R), degree)


# Jordan pi roots with odd chains: U^T diag(c_k a^(l_k)) U for the Blaschke
# factor a = (s - 1)/(s + 1) and c_k = 0.6 - 0.1 k, whose H has chains of
# the lengths l_k at 1.  The first floor(l/2) vectors of each chain and the
# odd chains' middle vectors, paired, make the symmetric solution
def blaschke_powers(lengths) -> Realization:
    U = random_unitary(np.random.default_rng(3), len(lengths))
    return assemble_congruence([siso_realization((0.6 - 0.1 * k) * npp.polypow([-1, 1], m),
                                                 npp.polypow([1, 1], m))
                                for k, m in enumerate(lengths)], U)


JORDAN = {"a3": ([3], 4), "a3-a1": ([3, 1], 4), "a2-a1-a1": ([2, 1, 1], 4),
          "a3-a3": ([3, 3], 6), "a3-a1-a1": ([3, 1, 1], 6)}


@pytest.mark.parametrize("name", JORDAN)
def test_odd_jordan_chains_certify(name):
    lengths, degree = JORDAN[name]
    R = blaschke_powers(lengths)
    assert_certified(R, minimize_symmetric(R), degree)


@pytest.mark.parametrize("zeta", [1.5, 2.0, 3.0, 10.0])
def test_coupled_pair_certifies(zeta):
    # diag(f, f) with f = 1/(s + zeta): one semisimple pi root, kappa = 0
    R = Realization(-zeta * np.eye(2), np.eye(2), np.eye(2), np.zeros((2, 2)))
    assert_certified(R, minimize_symmetric(R), 2)


KNOWN_RANK_DRAWS = [(("congruence", [(4, 0, 0)] * 2), 35),
                    (("congruence", [(4, 0, 0)] * 3), 35),
                    (("congruence", [(4, 0, 0)] * 3), 54)]


@pytest.mark.parametrize("spec, seed", KNOWN_RANK_DRAWS,
                         ids=["n4-n4-s35", "n4-n4-n4-s35", "n4-n4-n4-s54"])
def test_known_rank_quotient_certifies(spec, seed):
    # ||P_min^-1|| from 8.3e6 to 1.5e8: a rank cut of P^-T - P at
    # 1e-9 max(1, ||P||, ||P^-T||) left range(P^-T - P) not invariant
    # (residual 3.7e-4 to 5.4e-4); Q's degree kappa = 0 is known instead
    inst = draw(spec, seed)
    assert_certified(inst.realization, minimize_symmetric(inst.realization),
                     inst.n + inst.expected_kappa)


# every draw the tests above read, by draw_key; contract.npz holds exactly these
FROZEN_DRAWS = {draw_key(spec, seed): (spec, seed)
                for spec, seed in CONTRACT_DRAWS
                + [(spec, s) for spec, _ in REFUSAL_BARS for s in range(60)]
                + STUCK_DRAWS + KNOWN_RANK_DRAWS}


def test_contract_file_holds_exactly_the_frozen_draws():
    assert {name.rsplit("/", 1)[0] for name in _frozen_draws()} == set(FROZEN_DRAWS)


# Inputs on which minimize_symmetric returned a certified extension of
# degree above n + kappa: rounding split a double root of the Hamiltonian
# into two odd roots 3.3e-6 to 4.1e-5 apart relative to 1 + |xi|, which
# the clustering read as simple.  tests/data/freeze_witnesses.py froze
# them: suite.npz's split/*/1 (degree 8 for 4), unfiltered draws, a
# cond-100 similarity of ("scalar", 3, 1, 0) seed 8, which returned
# degree 6 for 4 when symmetrize's output was made exactly symmetric
# without this refusal, and two square-root balanced draws
WITNESSES = ["split-1", "c4x2-s84", "c4x2-s97", "c4x3-s81", "c4x3-s84", "c4x3-s97",
             "s310-s8-cond100", "s602-s6-bal", "c6x2-s27-bal"]


@pytest.mark.parametrize("name", WITNESSES)
def test_split_double_root_witness_raises_or_is_minimal(name):
    with np.load(Path(__file__).parent / "data" / "witnesses.npz") as z:
        R = Realization(*(z[f"{name}/{k}"] for k in "abcd"))
        degree = int(z[f"{name}/degree"])
    try:
        res = minimize_symmetric(R)
    except DarlingtonError as exc:
        assert str(exc).startswith("stage '"), str(exc)
        return
    assert_certified(R, res, degree)


@pytest.mark.parametrize("d", [[[0.3]], [[0.2, 0.1j], [0.1j, -0.3]]])
def test_constant_function(d):
    D = np.array(d, dtype=complex)
    p = D.shape[0]
    R = Realization(np.zeros((0, 0)), np.zeros((0, p)), np.zeros((p, 0)), D)
    assert_certified_or_raises(R, 0)
