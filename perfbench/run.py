"""Benchmark of certified symmetric Darlington synthesis.

    python3 perfbench/run.py --workload reduce-lowkappa --seed 1 --seconds 30 --trace 0

Runs one workload (see workloads.py) from the checkout's src/ in fresh
worker processes with BLAS pinned to one thread.  With --trace 0 it
reports the end-to-end metrics: set-up time (median of three fresh
processes), median and tail op latency, states per second, the share of
ops that succeed, the certification margin of the checked outputs and
the worker's peak RSS.  With --trace 1 it reports per-layer metrics from
a traced worker, and the tracing overhead against an untraced replay of
the same ops.  The last line of stdout is the result as JSON; the full
record goes to .perfbench_work/.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.dont_write_bytecode = True

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
WORKLOADS = ("reduce-lowkappa", "generic-large", "small-oracle")
# highest percentile with at least ten ops beyond it in one round (or,
# for small-oracle, in the 9 rounds a 30-s run plays)
TAIL = {"reduce-lowkappa": 79, "generic-large": 75, "small-oracle": 95}
SETUPS = 3  # fresh processes whose set-up time is measured
TIME_LIMIT = 170.0  # seconds for the whole run, workers included
TOL = 1e-7  # the package's certification tolerance
# Times are scaled to a host on which worker.reference_seconds() takes
# REF_S: each op by the reference timed next to it, set-up by the
# median reference of its process.  Raw wall times stay in the record.
REF_S = 0.016
LAYER_STATS = ("calls", "self_s", "raised")


def percentile(values, q: float) -> float:
    """Linear-interpolation percentile, as numpy's default."""
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


class Runner:
    def __init__(self, args):
        self.args = args
        self.deadline = time.monotonic() + TIME_LIMIT
        self.env = dict(os.environ)
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
            self.env[var] = "1"
        self.env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(HERE)])
        self.env["PYTHONDONTWRITEBYTECODE"] = "1"
        self.env["PYTHONHASHSEED"] = "0"

    def worker(self, *extra: str) -> tuple[dict, float]:
        """Run one worker process; returns its result and its set-up time
        (process start to first timed op)."""
        out = WORK / f"worker-{self.args.workload}-{self.args.seed}.json"
        out.unlink(missing_ok=True)
        a = self.args
        cmd = [sys.executable, str(HERE / "worker.py"), "--workload", a.workload,
               "--seed", str(a.seed), "--seconds", str(a.seconds),
               "--pool", str(HERE / "inputs" / f"{a.pool}.npz"), "--out", str(out), *extra]
        start = time.monotonic()
        proc = subprocess.run(cmd, env=self.env, stdout=sys.stderr, cwd=ROOT,
                              timeout=max(1.0, self.deadline - start))
        if proc.returncode != 0:
            raise SystemExit(f"worker exited with code {proc.returncode}")
        result = json.loads(out.read_text())
        return result, (result["first_op"] - start) * REF_S / statistics.median(result["refs"])


def scaled(op: dict) -> float:
    return op["seconds"] * REF_S / op["ref"]


def end_to_end(ops: list[dict], workload: str, setup: float, rss: float) -> dict:
    seconds = [scaled(o) for o in ops]
    ok = [o for o in ops if o["status"] == "ok"]
    margins = [math.log10(TOL / o["residual"]) for o in ok] or [0.0]
    return {
        "setup_s": (setup, "s"),
        "latency_p50_s": (statistics.median(seconds), "s"),
        "latency_tail_s": (percentile(seconds, TAIL[workload]), "s"),
        "throughput_states_per_s": (sum(o["n"] for o in ok) / sum(seconds), "states/s"),
        "success_share": (len(ok) / len(ops), "ratio"),
        "cert_margin_p10_digits": (percentile(margins, 10), "digits"),
        "peak_rss_mb": (rss, "MB"),
    }


def summary(ops: list[dict]) -> list[str]:
    """Per-rung op counts, median seconds and failures."""
    lines = []
    for key in sorted({(o["op"], o["rung"]) for o in ops}):
        group = [o for o in ops if (o["op"], o["rung"]) == key]
        bad = sum(o["status"] != "ok" for o in group)
        lines.append(f"  {key[0]:14s} {key[1]:10s} n={group[0]['n']:3d}  ops {len(group):3d}"
                     f"  median {statistics.median(scaled(o) for o in group):8.4f} s"
                     f"  failed {bad}")
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--pool", default="main", choices=("main", "holdout"),
                    help="frozen inputs to draw from (holdout: second generation seed)")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "darlington" / "__init__.py").is_file():
        print(f"error: no package source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    runner = Runner(args)

    if args.trace:
        traced, _ = runner.worker("--trace")
        replay = WORK / f"replay-{args.workload}-{args.seed}.json"
        replay.write_text(json.dumps([[o["op"], o["rung"], o["index"]] for o in traced["ops"]]))
        plain, _ = runner.worker("--replay", str(replay))
        ops = traced["ops"]
        metrics = {k: tuple(v) for k, v in traced["layers"].items()}
        overhead = (statistics.median(scaled(o) for o in ops)
                    / statistics.median(scaled(o) for o in plain["ops"]))
        metrics["trace.overhead_ratio"] = (overhead, "ratio")
        record = {"traced": traced, "untraced_replay": plain}
        env = traced["env"]
        ops_checked = ops + plain["ops"]
    else:
        setups = []
        result, setup = runner.worker()
        setups.append(setup)
        while len(setups) < SETUPS:
            setups.append(runner.worker("--setup-only")[1])
        ops = result["ops"]
        metrics = end_to_end(ops, args.workload, statistics.median(setups),
                             result["peak_rss_mb"])
        record = {"result": result, "setups": setups}
        env = result["env"]
        ops_checked = ops

    rejected = [o for o in ops_checked if o["status"] == "rejected"]
    failed = sum(o["status"] != "ok" for o in ops)
    print(f"env: nproc {env['nproc']} (affinity {env['affinity']}), python {env['python']}, "
          f"numpy {env['numpy']}, scipy {env['scipy']}, BLAS {env['blas']}, "
          f"BLAS threads {env['blas_threads']}")
    print(f"workload {args.workload}, seed {args.seed}, pool {args.pool}: {len(ops)} ops, "
          f"{failed} failed")
    print("\n".join(summary(ops)))
    if args.trace:
        print(f"  {'layer.function':44s} {'calls':>8s} {'self_s':>10s} {'raised':>7s}")
        for name in sorted({k.rsplit(".", 1)[0] for k in metrics if k.endswith(".calls")}):
            calls, self_s, raised = (metrics[f"{name}.{x}"][0] for x in LAYER_STATS)
            if calls:
                print(f"  {name:44s} {calls:8d} {self_s:10.4f} {raised:7d}")
        names = [k for k in metrics if k.rsplit(".", 1)[1] not in LAYER_STATS]
        print("  largest self times per rung (share of op time, calls per op):")
        for rung, layers in sorted(traced["rung_layers"].items()):
            group = [o for o in ops if o["rung"] == rung]
            total = sum(o["seconds"] for o in group)
            top = sorted(layers.items(), key=lambda kv: -kv[1][1])[:3]
            print(f"  {rung:10s} " + "; ".join(
                f"{name} {own / total:.0%} ({calls / len(group):.0f})"
                for name, (calls, own) in top))
    else:
        names = list(metrics)
    for name in names:
        value, unit = metrics[name]
        print(f"  {name:44s} {value:14.6g} {unit}")
    if not args.trace:
        print(f"  {'fail_share (= 1 - success_share)':44s} {failed / len(ops):14.6g} ratio")
        margins = [math.log10(TOL / o["residual"]) for o in ops if o["status"] == "ok"]
        print(f"  {'cert margin, minimum over ops':44s} {min(margins, default=0.0):14.6g} digits")
        raw = statistics.median(o["seconds"] for o in ops)
        print(f"  {'latency_p50_s, unscaled wall time':44s} {raw:14.6g} s   (host speed "
              f"{REF_S / statistics.median(o['ref'] for o in ops):.3f} x reference)")
        print(f"  tail = p{TAIL[args.workload]}; set-ups " + ", ".join(f"{s:.3f}" for s in setups) + " s")
    for o in ops + rejected:
        if o["status"] != "ok":
            print(f"  {o['status']}: {o['op']} {o['rung']}#{o['index']}: {o['detail'][:160]}")
    if rejected:
        print(f"ERROR: the checker rejected {len(rejected)} output(s) the package "
              "returned as certified", file=sys.stderr)
    (WORK / f"record-{args.workload}-{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"env": env, "metrics": metrics, **record}))
    print(json.dumps({
        "correct": not rejected, "attempted": len(ops), "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except subprocess.TimeoutExpired:
        print("error: the run did not finish in time", file=sys.stderr)
        sys.exit(3)
