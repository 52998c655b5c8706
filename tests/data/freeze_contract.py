"""Write tests/data/contract.npz, the unfiltered draws of tests/test_contract.py.

``generate(spec, seed)`` draws from ``default_rng(seed)`` with conftest's
``_draw_instance``, redrawing a candidate that comes out below degree n.
That generator runs the package's own spectral_factor_poly and
minimal_realization, so a rounding change there moves its draws.  The
contract tests therefore read every draw in ``test_contract.FROZEN_DRAWS``
from this file: A, B, C, D with p, n, kappa and n0 (conftest's
``pack_instance``, without the scalar fractions) under
``test_contract.draw_key(spec, seed)``.

The script keeps every draw already in the file and generates only the
keys that are missing from it, so a new seed added to FROZEN_DRAWS leaves
the older draws bit for bit as they are; a key no longer in FROZEN_DRAWS
is dropped.  The committed draws were generated before
spectral_factor_poly took its scale from the parity split, all but the
complex p = 3 congruence at seed 31, which was added after it.

    PYTHONPATH=src python tests/data/freeze_contract.py
"""
from __future__ import annotations

import dataclasses
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
from conftest import Instance, _draw_instance, pack_instance  # noqa: E402
from test_contract import CONTRACT_FILE, FROZEN_DRAWS  # noqa: E402


def generate(spec, seed: int) -> Instance:
    rng = np.random.default_rng(seed)
    for _ in range(20):  # a draw that comes out below degree n is redrawn
        inst = _draw_instance(rng, spec)
        if inst is not None:
            return inst
    raise RuntimeError(f"no draw of {spec} at seed {seed} reached degree n in 20 tries")


def main() -> None:
    out: dict = {}
    if CONTRACT_FILE.exists():
        with np.load(CONTRACT_FILE) as z:
            out = {name: z[name] for name in z.files if name.rsplit("/", 1)[0] in FROZEN_DRAWS}
    for key, (spec, seed) in FROZEN_DRAWS.items():
        if f"{key}/ints" not in out:
            pack_instance(out, key, dataclasses.replace(generate(spec, seed), scalars=[]))
    np.savez_compressed(CONTRACT_FILE, **out)
    print(f"wrote {len(FROZEN_DRAWS)} draws to {CONTRACT_FILE}")


if __name__ == "__main__":
    main()
