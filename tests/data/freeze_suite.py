"""Write tests/data/suite.npz, the frozen instances of the tier-1 fixtures.

The draws of tests/conftest.py pass a conditioning filter that runs the
package's own symmetrize and solve_extremal, so which candidates it
accepts depends on the last digits of the Riccati solve.  This script
runs the four draws once and stores the accepted instances bit-exactly:

- ``suite/{i}``: the 20 instances of ``build_suite(2024)``;
- ``scalar/p1/{j}``, ``scalar/q/{j}``: the 20 fractions of
  ``draw_scalar_suite(77)``;
- ``large``: the p = 4, n = 8 instance of ``draw_large_instance(555)``;
- ``split/p1/{j}``, ``split/q/{j}``: the five unfiltered fractions of
  ``draw_split_fractions()``, whose mu has double roots split by rounding.

The committed file was written from the package before Takagi became a
real symmetric eigendecomposition; rerunning the script with later
numerics may accept other candidates, so only rerun it to change the
test data on purpose.

    PYTHONPATH=src python tests/data/freeze_suite.py
"""
from __future__ import annotations

import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
from conftest import (  # noqa: E402
    SUITE_FILE,
    build_suite,
    draw_large_instance,
    draw_scalar_suite,
    draw_split_fractions,
    pack_instance,
)


def main() -> None:
    out: dict = {}
    for i, inst in enumerate(build_suite(2024)):
        pack_instance(out, f"suite/{i}", inst)
    for j, (p1, q) in enumerate(draw_scalar_suite(77)):
        out[f"scalar/p1/{j}"], out[f"scalar/q/{j}"] = p1, q
    pack_instance(out, "large", draw_large_instance(555))
    for j, (p1, q) in enumerate(draw_split_fractions()):
        out[f"split/p1/{j}"], out[f"split/q/{j}"] = p1, q
    np.savez_compressed(SUITE_FILE, **out)
    print(f"wrote {len(out)} arrays to {SUITE_FILE}")


if __name__ == "__main__":
    main()
