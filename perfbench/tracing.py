"""Per-layer tracing from outside the package.

Each traced function is wrapped once and the wrapper replaces *every*
binding of the original in the darlington namespaces: the modules
import each other's functions by name (``from .realization import
evaluate``), so patching only the defining module would miss the calls
made from the others.  Spans (function, op id, start, end, parent) are
kept in memory and written out when the run ends.
"""
from __future__ import annotations

import functools
import math
import sys
import time

TRACED = {
    "realization": ["evaluate", "symmetrize", "minimal_realization", "kalman_check",
                    "transfer_distance", "symmetry_residual"],
    "riccati": ["build_hamiltonian", "analyze_spectrum", "solve_extremal"],
    "extension": ["innerness_residual", "build_extension", "compare_extensions",
                  "symmetric_unitary_extension"],
    "reduction": ["minimize_symmetric", "find_reduction_vector", "reduce_once"],
    "linalg": ["cluster_ladder", "takagi", "half_chain_basis", "svd_analysis"],
    "scalar": ["compute_mu", "spectral_factor_poly", "scalar_minimal_extension"],
    "realcase": ["signature_realization", "real_symmetric_feasibility",
                 "is_real_extension"],
    "cli": ["main", "read_problem", "write_realization"],
}
NAMES = [f"{m}.{f}" for m, fs in TRACED.items() for f in fs]


class Tracer:
    """Span recorder; ``install`` patches the package, ``op`` sets the
    id that new spans carry."""

    def __init__(self):
        self.spans: list[tuple[int, int, float, float, int]] = []
        self.per_op: dict[tuple[int, int], list] = {}  # (op, function) -> [calls, self_s]
        self.raised = [0] * len(NAMES)
        self.rungs: list[int] = []  # cluster_ladder: rung it settled on
        self.op = -1
        self._stack: list[list] = []  # [span index, child seconds]

    def install(self) -> None:
        for fid, name in enumerate(NAMES):
            module, fn = name.split(".")
            original = getattr(sys.modules[f"darlington.{module}"], fn)
            wrapper = self._wrap(fid, original)
            for modname, mod in list(sys.modules.items()):
                if modname != "darlington" and not modname.startswith("darlington."):
                    continue
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)

    def _wrap(self, fid: int, original):
        ladder = NAMES[fid] == "linalg.cluster_ladder"

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            parent = self._stack[-1][0] if self._stack else -1
            index = len(self.spans)
            self.spans.append(None)
            frame = [index, 0.0]
            self._stack.append(frame)
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            except BaseException:
                self.raised[fid] += 1
                raise
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[index] = (fid, self.op, start, end, parent)
                tally = self.per_op.setdefault((self.op, fid), [0, 0.0])
                tally[0] += 1
                tally[1] += (end - start) - frame[1]
                if self._stack:
                    self._stack[-1][1] += end - start
            if ladder:
                base = args[1] if len(args) > 1 else kwargs["base_tol"]
                self.rungs.append(round(math.log10(result[0] / base)))
            return result
        return wrapper

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics as name -> (value, unit)."""
        calls, self_s = [0] * len(NAMES), [0.0] * len(NAMES)
        for (_, fid), (n, own) in self.per_op.items():
            calls[fid] += n
            self_s[fid] += own
        out = {}
        for fid, name in enumerate(NAMES):
            out[f"{name}.calls"] = (calls[fid], "count")
            out[f"{name}.self_s"] = (self_s[fid], "s")
            out[f"{name}.raised"] = (self.raised[fid], "count")
        fid = NAMES.index("reduction.reduce_once")
        tried = calls[fid]
        out["reduction.step_accept_ratio"] = (
            (tried - self.raised[fid]) / tried if tried else 0.0, "ratio")
        out["linalg.cluster_ladder.rung_mean"] = (
            sum(self.rungs) / len(self.rungs) if self.rungs else 0.0, "rung")
        return out

    def by_group(self, group_of_op) -> dict[str, dict[str, list]]:
        """Calls and self time per function, summed over the ops of each
        group (``group_of_op(op id)``, e.g. the op's rung)."""
        out: dict[str, dict[str, list]] = {}
        for (op, fid), (calls, own) in self.per_op.items():
            if op < 0:
                continue
            tally = out.setdefault(group_of_op(op), {}).setdefault(NAMES[fid], [0, 0.0])
            tally[0] += calls
            tally[1] += own
        return out

    def write(self, path) -> None:
        """Spans as CSV: function, op, start, end, parent span index."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("function,op,start,end,parent\n")
            for fid, op, start, end, parent in self.spans:
                fh.write(f"{NAMES[fid]},{op},{start:.9f},{end:.9f},{parent}\n")
