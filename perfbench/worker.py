"""One workload run in a fresh process: set up, play a fixed number of
whole rounds of ops closed-loop (each op starts when the previous one
has finished), check every output, and write the raw results as JSON.

run.py starts this process with BLAS pinned to one thread and the
checkout's src/ on the path; it is not meant to be run by hand.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

import numpy as np
import scipy

import darlington
import workloads
from checker import CheckFailed, check_inner_extension

WORK = Path(__file__).resolve().parent.parent / ".perfbench_work"
_rng = np.random.default_rng(0)
_SMALL, _MEDIUM = (_rng.normal(size=(k, k, 2)) @ np.array([1.0, 1j]) for k in (24, 96))


def reference_seconds() -> float:
    """Wall time of a fixed kernel the package cannot change: LAPACK on a
    24 x 24 and a 96 x 96 complex matrix and an interpreter loop, about
    16 ms.  A shared host can speed up and slow down by 20% or more over
    minutes; timing this kernel next to every op lets run.py take that
    out."""
    start = time.perf_counter()
    for _ in range(10):
        np.linalg.eigvals(_SMALL)
        np.linalg.solve(_SMALL, _SMALL)
    np.linalg.eigvals(_MEDIUM)
    np.linalg.solve(_MEDIUM, _MEDIUM @ _MEDIUM)
    total = 0
    for k in range(20000):
        total += k
    return time.perf_counter() - start


def run_op(kind, inst, tracer=None, op_id=-1) -> dict:
    """Time one op and check its output.  status is "ok" (with the worst
    residual the checker found), "raised" (any exception, a nonzero CLI
    exit code included) or "rejected" (the checker refused the output)."""
    prep = workloads.prepare(kind, inst, WORK)
    if tracer is not None:
        tracer.op = op_id
    start = time.perf_counter()
    try:
        result = prep.call()
    except Exception as exc:  # any raise is a failed op, counted, not fatal
        return {"seconds": time.perf_counter() - start, "status": "raised",
                "detail": f"{type(exc).__name__}: {exc}"}
    seconds = time.perf_counter() - start
    try:
        return {"seconds": seconds, "status": "ok", "residual": float(prep.check(result))}
    except CheckFailed as exc:
        return {"seconds": seconds, "status": "rejected", "detail": str(exc)}


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "blas": f"{blas['name']} {blas['version']}",
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS")}


def self_test(pool: workloads.Pool, workload: str) -> None:
    """The checker must reject a correct result whose B is perturbed by
    1e-3, or every pass it gives is vacuous."""
    rung = next(r for k, r in workloads.WARMUP[workload] if k in ("minsym", "cli-minsym"))
    inst = pool.instance(rung, pool.count(rung) - 1)
    T = darlington.minimize_symmetric(inst.realization).extension
    degree = inst.meta["n"] + inst.meta["kappa"]
    check_inner_extension((T.a, T.b, T.c, T.d), inst.sys, degree, symmetric=True)
    try:
        check_inner_extension((T.a, T.b + 1e-3, T.c, T.d), inst.sys, degree, symmetric=True)
    except CheckFailed:
        return
    raise SystemExit("checker accepted an extension with B perturbed by 1e-3")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.ROUNDS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--pool", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--replay", help="JSON list of (op, rung, index) to play instead")
    args = ap.parse_args(argv)

    WORK.mkdir(exist_ok=True)
    src = Path(darlington.__file__).resolve()
    if WORK.parent / "src" not in src.parents:
        raise SystemExit(f"darlington imported from {src}, not from this checkout")
    pool = workloads.Pool(Path(args.pool), workloads.rungs_of(args.workload))
    for kind, rung in workloads.WARMUP[args.workload]:
        run_op(kind, pool.instance(rung, pool.count(rung) - 1))
    if args.replay:
        rounds = [json.loads(Path(args.replay).read_text())]
    else:
        rounds = workloads.schedule(pool, args.workload, args.seed)
        rounds = rounds[:workloads.round_count(args.workload, args.seconds)]
    tracer = None
    if args.trace:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()
    first_op = time.monotonic()
    if args.setup_only:
        refs = [reference_seconds() for _ in range(5)]
        Path(args.out).write_text(json.dumps({"first_op": first_op, "refs": refs}))
        return 0

    ops, refs = [], [reference_seconds()]
    for rnd in rounds:
        for kind, rung, index in rnd:
            inst = pool.instance(rung, index)
            ops.append({"op": kind, "rung": rung, "index": index, "n": inst.meta["n"],
                        **run_op(kind, inst, tracer, len(ops))})
            refs.append(reference_seconds())
            ops[-1]["ref"] = (refs[-2] + refs[-1]) / 2
    if not ops:
        raise SystemExit("the pool holds no whole round for this workload")
    result = {"first_op": first_op, "ops": ops, "refs": refs, "env": environment(),
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    if tracer is not None:
        result["layers"] = tracer.metrics()
        result["rung_layers"] = tracer.by_group(lambda i: ops[i]["rung"])
        tracer.write(WORK / f"spans-{args.workload}-{args.seed}.csv")
        tracer.op = -1
    self_test(pool, args.workload)
    Path(args.out).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
