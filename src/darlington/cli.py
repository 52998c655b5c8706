"""Command-line frontend.

Three subcommands operate on JSON problem files:

``check``        validate a realization (minimality, contractivity at
                 infinity, its symmetrize and P_min verdicts, its flags);
``synthesize``   build inner / symmetric / minimal-symmetric extensions
                 (the last on the symmetric Riccati solution, its report
                 with the stage trace);
``scalar``       run the polynomial pipeline on a scalar fraction p1/q.

File format: UTF-8 JSON with keys "A", "B", "C", "D" (nested arrays,
complex entries as [re, im] pairs of numbers or bare reals, never
strings, true or false), optional "flags" ({"symmetric": bool,
"real": bool}; any other flag value is an error), and for the scalar
pipeline coefficient arrays "p1", "q" in ascending degree order; other
keys are ignored.  Written files and ``--json`` reports are single-line
JSON documents, each followed by a newline, with the same [re, im]
layout; serialization uses Python's shortest round-tripping float repr,
so write-then-read reproduces matrices bit-exactly.

Every check runs at its fixed bound; none is set on the command line.
The final gate of ``--mode minimal-symmetric`` is at 1e-7, that of the
other modes at 1e-8.  ``check`` and ``synthesize`` decide on one
realization: when ||D|| = 1, of S(i omega0 + 1/s) at the grid point
omega0 of least ||S(i omega0)||, which they report; ``check`` runs on it
the ``symmetrize`` of every symmetric mode.  Every mode runs the library's
one staged synthesis, which maps the extension back from omega0,
certifies it (the larger of its factors' certificate and the mapped-back
one) and gates it with its symmetry (not in ``inner`` mode) and S block;
the command rechecks the S block against the file's S when the staircase
cut states.  Exit status: 0 when every requested certificate passes, else 1.
"""
from __future__ import annotations

import argparse
import functools
import json
import sys

import numpy as np

from .errors import DarlingtonError, NotContractiveError, ValidationError
from .linalg import default_cluster_tol, max_norm
from .realization import (
    _CONTRACTIVE_BOUND,
    Realization,
    _contractive_entry,
    freqresp,
    minimal_realization,
    symmetrize,
)
from .realcase import _require_real
from .riccati import _extremal, build_hat
from .reduction import _final_bound, _staged, minimize_symmetric
from .scalar import scalar_minimal_extension

__all__ = ["main"]


# ----------------------------------------------------------------- I/O

def _parse_complex(v) -> complex:
    # a number or an [re, im] pair of numbers; bool subclasses int, but
    # JSON's true and false are not numbers, and neither are strings
    parts = v if isinstance(v, (list, tuple)) and len(v) == 2 else (v, 0.0)
    if all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in parts):
        return complex(float(parts[0]), float(parts[1]))
    raise ValueError(f"cannot parse complex entry {v!r}")


def _parse_matrix(rows, name: str) -> np.ndarray:
    try:
        return np.array([[_parse_complex(v) for v in row] for row in rows],
                        dtype=complex)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"field {name!r}: {exc}") from exc


def _pairs(M: np.ndarray) -> list:
    """M (a matrix or a vector) as nested lists of [re, im] pairs."""
    return np.stack([M.real, M.imag], axis=-1).tolist()


def _plain(v):
    """The trace as plain JSON, [re, im] for a complex number, less the wall seconds."""
    if isinstance(v, dict):
        return {k: _plain(x) for k, x in v.items() if k != "seconds"}
    if isinstance(v, (list, tuple)):
        return [_plain(x) for x in v]
    return _pairs(np.asarray(v)) if isinstance(v, complex) else v


def read_problem(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError(f"problem file must hold a JSON object, not {type(data).__name__}")
    out = {"flags": data.get("flags", {})}
    if not isinstance(out["flags"], dict):
        raise ValueError(f"field 'flags' must be an object, got {out['flags']!r}")
    for k in ("symmetric", "real"):
        if not isinstance(out["flags"].get(k, False), bool):
            raise ValueError(f"flag {k!r} must be true or false, got {out['flags'][k]!r}")
    if all(k in data for k in "ABCD"):
        A, B, C, D = (_parse_matrix(data[k], k) for k in "ABCD")
        if A.size == 0:  # degree 0, written as A = B = [] and C = [[], ...];
            A = A.reshape(0, 0)  # Realization shapes B and C from D
        out["realization"] = Realization(A, B, C, D)
    if "p1" in data and "q" in data:
        out["p1"], out["q"] = (_parse_matrix([data[k]], k)[0] for k in ("p1", "q"))
    if "realization" not in out and "p1" not in out:
        raise ValueError("problem file needs A/B/C/D matrices or p1/q coefficients")
    return out


def write_realization(path: str, R: Realization, meta: dict | None = None) -> None:
    doc = {k: _pairs(M) for k, M in zip("ABCD", (R.a, R.b, R.c, R.d))}
    if meta:
        doc["meta"] = meta
    with open(path, "w", encoding="utf-8") as fh:
        # a one-shot dumps without indent runs CPython's C encoder
        fh.write(json.dumps(doc) + "\n")


def _emit(report: dict, as_json: bool) -> None:
    if as_json:
        sys.stdout.write(json.dumps(report, default=str) + "\n")
    else:
        for key, val in report.items():
            print(f"{key}: {val}")


# ------------------------------------------------------------ commands

def _verdict(key: str, run) -> dict:
    try:
        run()
        return {key: True}
    except DarlingtonError as exc:
        return {key: False, f"not_{key}": str(exc)}


def _check_report(R: Realization) -> dict:
    """The check report, decided as synthesize decides, on what ``_contractive_entry``
    makes of the minimal R (on the minimal R, with ``schur`` None, if it refuses): the
    verdicts of its P_min solve and of ``symmetrize``, ``not_<key>`` holding a refusal."""
    Rm, cert = minimal_realization(R)
    try:
        Rc, w0 = _contractive_entry(Rm)
    except NotContractiveError as exc:
        Rc, w0, schur = Rm, None, {"schur": None, "not_schur": str(exc)}
    else:  # build_hat refuses a non-square S, as synthesize does
        schur = _verdict("schur", functools.partial(_extremal, build_hat(Rc), ("minimal",)))
    return {
        "state_dim": R.n,
        "minimal": Rm is R,
        "mcmillan_degree": cert.mcmillan_degree,
        "d_norm": R.norm_d,
        "strictly_contractive_at_inf": R.norm_d < _CONTRACTIVE_BOUND,
        "omega0": w0,
        **schur,
        **_verdict("symmetric", functools.partial(symmetrize, Rc)),
    }


def cmd_check(args) -> int:
    prob = read_problem(args.file)
    if "realization" not in prob:
        print("error: check needs a realization (A, B, C, D)", file=sys.stderr)
        return 1
    rep = _check_report(prob["realization"])
    if prob["flags"].get("symmetric") and not rep["symmetric"]:
        rep["flag_mismatch"] = f"file claims symmetric but {rep['not_symmetric']}"
    if prob["flags"].get("real"):
        try:
            _require_real(prob["realization"])
        except ValidationError as exc:
            rep["flag_mismatch"] = f"file claims real but {exc}"
    _emit(rep, args.json)
    return 0 if rep["schur"] is True and "flag_mismatch" not in rep else 1


def cmd_synthesize(args) -> int:
    if args.mode == "minimal-symmetric" and args.solution == "max":  # its own solution
        raise ValueError("--solution max applies to the inner and symmetric modes")
    prob = read_problem(args.file)
    if "realization" not in prob:
        print("error: synthesize needs a realization (A, B, C, D)", file=sys.stderr)
        return 1
    S = prob["realization"]
    R, _ = minimal_realization(S)
    # every mode is one staged synthesis, certified and gated by the library
    if args.mode == "minimal-symmetric":
        kind, res = "symmetric", minimize_symmetric(R)
        fields = {"kappa": res.kappa, "n0": res.n0, "trace": _plain(res.trace)}
    else:
        kind = "minimal" if args.solution == "min" else "maximal"
        res = _staged(R, kind, args.mode == "symmetric")
        stage = {t["stage"]: t for t in res.trace}
        entry = stage["symmetrize" if args.mode == "symmetric" else "precondition"]
        fields = {"omega0": entry["omega0"], "kappa": res.kappa, "n0": res.n0}
        if args.mode == "symmetric":
            fields.update({"q_degree": res.degree - R.n,
                           "q_inner": stage["symmetric-extension"]["q_inner"]})
        else:
            fields["riccati_residual"] = res.solution.residual_norm
            if args.solution == "min":  # the zeros of S21, the closed loop's poles,
                # at most the pole guard 1e-7 (1 + ||Z||) right of the axis
                z = res.solution.z
                fields["outer_lower_left"] = bool(np.all(
                    np.linalg.eigvals(z).real <= default_cluster_tol(z)))
    cert = "unitary_axis_residual" if args.mode == "symmetric" else "innerness_residual"
    rep: dict = {"mode": args.mode, "solution": args.solution, "degree": res.degree,
                 **fields, cert: res.innerness}
    if args.mode != "inner":
        rep["symmetry_residual"] = res.symmetry
    rep["block_match"] = res.block_match
    if R is not S:  # the staircase cut states: the S block against the file's S
        pts, F, _ = res.extension._probe
        rep["block_match"] = max_norm(F[:, S.outputs:, S.outputs:] - freqresp(S, pts))
        if not rep["block_match"] <= _final_bound(kind):  # a nan fails too
            raise ValidationError(f"the {args.mode} extension failed certification "
                                  f"(block_match {rep['block_match']:g})")
    if args.out:
        write_realization(args.out, res.extension, meta={k: v for k, v in rep.items()})
        rep["written"] = args.out
    _emit(rep, args.json)
    return 0


def cmd_scalar(args) -> int:
    prob = read_problem(args.file)
    if "p1" not in prob:
        print("error: scalar needs coefficient arrays p1 and q", file=sys.stderr)
        return 1
    ext, fac, sym, inner = scalar_minimal_extension(prob["p1"], prob["q"])
    rep = {
        "mu": _pairs(fac.mu),
        "r1": _pairs(fac.r1),
        "r2": _pairs(fac.r2),
        "constant": fac.constant,
        "kappa": fac.kappa,
        "extension_degree": ext.n,
        "innerness_residual": inner,
        "symmetry_residual": sym,
    }
    if args.out:
        write_realization(args.out, ext, meta={"kappa": fac.kappa,
                                               "degree": ext.n})
        rep["written"] = args.out
    _emit(rep, args.json)
    return 0


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="darlington",
        description="Lossless (inner) extensions of rational Schur functions "
                    "and minimal symmetric Darlington synthesis.")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("file", help="JSON problem file")
        p.add_argument("--json", action="store_true",
                       help="emit a machine-readable JSON report")

    p = sub.add_parser("check", help="validate a realization")
    common(p)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("synthesize", help="build an extension")
    common(p)
    p.add_argument("--mode", choices=["inner", "symmetric", "minimal-symmetric"],
                   default="minimal-symmetric")
    p.add_argument("--solution", choices=["min", "max"], default="min",
                   help="Riccati solution for inner/symmetric modes")
    p.add_argument("--out", default=None, help="write the result realization here")
    p.set_defaults(func=cmd_synthesize)

    p = sub.add_parser("scalar", help="scalar pipeline on p1/q")
    common(p)
    p.add_argument("--out", default=None, help="write the 2x2 extension here")
    p.set_defaults(func=cmd_scalar)
    return ap


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (DarlingtonError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
