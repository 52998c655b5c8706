"""The benchmark's workloads: which operations a round holds, how a seed
turns the frozen pool into a schedule, and how one operation runs and
is checked.

A round is a fixed multiset of (operation, rung) slots.  A run plays
a fixed number of whole rounds, each slot on a fresh pool instance, so
no input repeats within a run and every run has the same mix of sizes;
the seed picks which instances and in which order.
"""
from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import numpy.polynomial.polynomial as npp

import darlington
import darlington.cli
from checker import (
    CheckFailed,
    check_inner_extension,
    check_real_witness,
    check_signature_form,
)

# reduce-lowkappa runs the Blaschke reduction loop (kappa = 0 blocks, plus
# kappa = 1 and imaginary-axis blocks) at n 4..26; generic-large has
# kappa = n, so no reduction step, at n 12..39; small-oracle drives the
# CLI, the scalar pipeline and the real-coefficient analysis at p <= 3,
# n <= 8, including the p = 1 generic n = 7, 8 fractions on which the
# scalar pipeline often raises.  A round takes about 25 s on the
# reference host; its counts keep the median and the tail percentile of
# run.py steady from run to run.
ROUNDS = {
    "reduce-lowkappa": [("minsym", "k0n4")] * 4 + [("minsym", "k1n5")] * 4
    + [("minsym", "ax1n7")] * 4 + [("minsym", "k0n8")] * 12
    + [("minsym", "ax1n9")] * 4 + [("minsym", "k1n11")] * 4
    + [("minsym", "k0n12")] * 10 + [("minsym", "k0n16")] * 2
    + [("minsym", "k0n20")] + [("minsym", "k0n26")],
    "generic-large": [("minsym", "g12")] * 20 + [("minsym", "g16")] * 12
    + [("minsym", "g20")] * 4 + [("minsym", "g30")] + [("minsym", "g39")],
    "small-oracle": [("cli-scalar", r) for r in (
        "s1g", "s2k0", "s2g", "s3k1", "s3ax1", "s4k0", "s5g", "s6g", "s7g", "s8g")]
    + [("cli-minsym", r) for r in (
        "s2k0", "s3k1", "s3ax1", "s4k0", "s7g", "s8g", "c2n4k0", "c2n4k2", "c3n6k2")]
    + [("cli-inner-max", r) for r in ("s1g", "s5g", "s8g", "c2n4k0", "c3n6k2")]
    + [("cli-symmetric", r) for r in ("s3ax1", "s6g", "c2n4k2", "c3n6k2")]
    + [("real", r) for r in ("r2n4k0", "r2n3g", "r3n6g", "zeta1", "zeta2")],
}

# Nominal wall seconds of one round, reference kernels included, on the
# reference host.  A run plays about --seconds / ROUND_SECONDS rounds,
# a number fixed before it starts, so the ops a run attempts (and which
# of them fail) depend on the seed alone, never on the host's speed.
ROUND_SECONDS = {"reduce-lowkappa": 28.0, "generic-large": 25.0, "small-oracle": 3.2}


def round_count(workload: str, seconds: float) -> int:
    return max(1, int(seconds / ROUND_SECONDS[workload] + 0.5))


# Untimed warm-up ops, on each rung's last instance, which no schedule uses.
WARMUP = {
    "reduce-lowkappa": [("minsym", "k0n4")],
    "generic-large": [("minsym", "g12")],
    "small-oracle": [("cli-scalar", "s2k0"), ("cli-minsym", "c2n4k0"),
                     ("cli-inner-max", "s1g"), ("cli-symmetric", "s3ax1"),
                     ("real", "zeta2")],
}


@dataclass(frozen=True)
class Instance:
    rung: str
    index: int
    sys: tuple  # (A, B, C, D)
    meta: dict  # p, n, kappa, n0, kind, zeta
    frac: tuple | None  # (p1, q) for scalar rungs

    @property
    def realization(self) -> darlington.Realization:
        return darlington.Realization(*self.sys)


class Pool:
    """Frozen inputs of one generation seed, read from an .npz file."""

    def __init__(self, path: Path, rungs):
        with np.load(path, allow_pickle=False) as z:
            self.manifest = json.loads(str(z["manifest"]))
            self.arrays = {f"{r}.{k}": z[f"{r}.{k}"] for r in sorted(set(rungs))
                           for k in ("a", "b", "c", "d", "p1", "q")
                           if f"{r}.{k}" in z.files}

    def count(self, rung: str) -> int:
        return self.manifest["rungs"][rung]["count"]

    def instance(self, rung: str, i: int) -> Instance:
        sys = tuple(self.arrays[f"{rung}.{k}"][i] for k in "abcd")
        frac = None
        if f"{rung}.p1" in self.arrays:
            frac = (np.trim_zeros(self.arrays[f"{rung}.p1"][i], "b"),
                    np.trim_zeros(self.arrays[f"{rung}.q"][i], "b"))
        return Instance(rung, i, sys, self.manifest["rungs"][rung], frac)


def rungs_of(workload: str) -> set[str]:
    return {r for _, r in ROUNDS[workload] + WARMUP[workload]}


def schedule(pool: Pool, workload: str, seed: int) -> list[list[tuple[str, str, int]]]:
    """Every round the pool can fill for this seed, as (op, rung, index)
    slots in seeded order; each rung's last instance is kept for warm-up."""
    rng = np.random.default_rng(seed)
    slots = ROUNDS[workload]
    queues = {r: list(rng.permutation(pool.count(r) - 1)) for r in sorted(rungs_of(workload))}
    rounds = []
    while True:
        order = rng.permutation(len(slots))
        need: dict[str, int] = {}
        for _, r in slots:
            need[r] = need.get(r, 0) + 1
        if any(len(queues[r]) < k for r, k in need.items()):
            return rounds
        rounds.append([(slots[j][0], slots[j][1], int(queues[slots[j][1]].pop()))
                       for j in order])


# ------------------------------------------------------------ operations

def _dump_matrix(M) -> list:
    return [[[float(z.real), float(z.imag)] for z in row] for row in np.atleast_2d(M)]


def _read_matrix(rows) -> np.ndarray:
    return np.array([[complex(v[0], v[1]) for v in row] for row in rows], dtype=complex)


def _read_realization(path: Path) -> tuple:
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    A, B, C, D = (_read_matrix(doc[k]) for k in "ABCD")
    n = A.shape[0] if A.size else 0
    A = A.reshape(n, n)
    B = B.reshape(n, D.shape[1])
    C = C.reshape(D.shape[0], n)
    return A, B, C, D


@dataclass
class Prepared:
    """An op ready to time: ``call`` runs it, ``check`` verifies what
    ``call`` returned and gives the worst residual."""
    call: object
    check: object


class CliError(Exception):
    """The CLI returned a nonzero exit code."""


def _cli(argv: list[str]) -> None:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = darlington.cli.main(argv)
    if code != 0:
        raise CliError(f"exit code {code}: {err.getvalue().strip()}")


def prepare(kind: str, inst: Instance, work: Path) -> Prepared:
    """Write the op's input files (untimed) and bind its call and check."""
    m = inst.meta
    n, kappa, n0 = m["n"], m["kappa"], m["n0"]
    if kind == "minsym":
        R = inst.realization
        return Prepared(
            lambda: darlington.minimize_symmetric(R).extension,
            lambda T: check_inner_extension(
                (T.a, T.b, T.c, T.d), inst.sys, n + kappa, symmetric=True))
    if kind == "real":
        return Prepared(lambda: _realcase(inst.realization), lambda r: _check_real(r, inst))
    prob, out = work / "problem.json", work / "result.json"
    out.unlink(missing_ok=True)
    if kind == "cli-scalar":
        p1, q = inst.frac
        doc = {"p1": _dump_matrix(p1)[0], "q": _dump_matrix(q)[0]}
        argv = ["scalar", str(prob), "--json", "--out", str(out)]
        degree, symmetric = n + kappa, True

        def lower_right(s):
            return (npp.polyval(s, p1) / npp.polyval(s, q))[:, None, None]
    else:
        A, B, C, D = inst.sys
        doc = {"A": _dump_matrix(A), "B": _dump_matrix(B), "C": _dump_matrix(C),
               "D": _dump_matrix(D), "flags": {"symmetric": True}}
        mode = {"cli-minsym": ["--mode", "minimal-symmetric"],
                "cli-inner-max": ["--mode", "inner", "--solution", "max"],
                "cli-symmetric": ["--mode", "symmetric"]}[kind]
        argv = ["synthesize", str(prob), *mode, "--json", "--out", str(out)]
        degree, symmetric = {"cli-minsym": (n + kappa, True),
                             "cli-inner-max": (n, False),
                             "cli-symmetric": (2 * n - n0, True)}[kind]
        lower_right = None
    with open(prob, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)

    def check(_):
        return check_inner_extension(_read_realization(out), inst.sys, degree,
                                     symmetric, lower_right)
    return Prepared(lambda: _cli(argv), check)


def _realcase(R):
    """Signature form, real feasibility verdict, and the realness of
    the extension on its witness (or, when infeasible, on P_min)."""
    SR = darlington.signature_realization(R)
    rep = darlington.real_symmetric_feasibility(SR)
    if rep.feasible:
        P = rep.witness
    else:
        P = darlington.solve_extremal(darlington.build_hat(SR.realization))[0].p
    return SR, rep, darlington.is_real_extension(P, SR.realization)


def _check_real(result, inst: Instance) -> float:
    SR, rep, real_ext = result
    R = SR.realization
    sig = (R.a, R.b, R.c, R.d)
    worst = check_signature_form(sig, SR.j, inst.sys)
    zeta = inst.meta.get("zeta")
    if zeta is not None and rep.feasible != (zeta == 1.0):
        raise CheckFailed(f"zeta = {zeta}: feasibility verdict {rep.feasible}")
    if inst.meta["kappa"] > 0 and rep.feasible:
        raise CheckFailed("feasible verdict although chi_H is not a perfect square")
    if rep.feasible:
        worst = max(worst, check_real_witness(rep.witness, sig, SR.j))
    if not real_ext:
        raise CheckFailed("extension on a real Riccati solution reported not real")
    return worst

