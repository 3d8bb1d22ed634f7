"""Digests of seeded sampler output: the manifest that makes "byte-identical" a test.

    python3 tools/seeded_digests.py            # rewrite tests/data/seeded_digests.json
    python3 tools/seeded_digests.py --check    # compare with it, print each mismatch

Each case fits a simulated series with `run_multi` and records the SHA-256 of
every array of every chain: each draws column, each LatentSummary field and,
when the case keeps them, each latent path.  A digest covers the array's dtype,
shape and bytes.  The cases cover jump and no-jump fits, 1 and 3 chains, series
of 2 to 6,000 points, thin 1 and 3, kept latent draws, the variate helper thread
forced on and off, and omega 0.05, 0.9 and 1.

numpy does not promise its Generator streams across versions, so the manifest
records the numpy version it was made with; tests/test_seeded_digests.py skips
under any other.  A change that claims seeded output unchanged leaves the file
as it is.  A change that names a new random stream or output regenerates it and
lists the entries that changed.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import json
import pathlib
import sys
from typing import NamedTuple

import numpy as np

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import jumpvol as jv  # noqa: E402
import jumpvol.gibbs as engine  # noqa: E402

MANIFEST = ROOT / "tests" / "data" / "seeded_digests.json"
ITERATIONS, BURN_IN = 60, 6


class Case(NamedTuple):
    n: int
    jumps: bool
    thin: int
    chains: int
    keep: bool
    helper: bool
    omega: float = 0.9

    @property
    def name(self) -> str:
        return (f"n{self.n}-{'jump' if self.jumps else 'nojump'}-thin{self.thin}"
                f"-chains{self.chains}-{'keep' if self.keep else 'nokeep'}"
                f"-helper{'on' if self.helper else 'off'}-omega{self.omega:g}")


def _cases() -> list[Case]:
    cases = []
    for n in (2, 252, 999, 1000, 3000, 6000):
        for jumps in (True, False):
            cases.append(Case(n, jumps, thin=1, chains=1, keep=True, helper=False))
            cases.append(Case(n, jumps, thin=3, chains=3, keep=False, helper=True))
    for n in (252, 1000):
        for omega in (0.05, 1.0):
            cases.append(Case(n, True, thin=1, chains=1, keep=True, helper=True, omega=omega))
    return cases


CASES = {case.name: case for case in _cases()}


@contextlib.contextmanager
def _helper(on: bool):
    """Force the variate helper thread on or off, whatever the series length and CPUs."""
    saved = engine._HELPER_MIN_N, engine._usable_cpus
    engine._HELPER_MIN_N = 0 if on else 2**62
    engine._usable_cpus = (lambda: 2) if on else (lambda: 1)
    try:
        yield
    finally:
        engine._HELPER_MIN_N, engine._usable_cpus = saved


def _sha256(array) -> str:
    array = np.ascontiguousarray(array)
    h = hashlib.sha256(f"{array.dtype.str} {array.shape}\n".encode())
    h.update(array.tobytes())
    return h.hexdigest()


def digests(case: Case) -> dict[str, str]:
    """Name -> SHA-256 of every array the case's chains return."""
    y = jv.simulate(jv.SimConfig(n=case.n, seed=case.n, jump_prob=0.05)).returns.returns
    cfg = jv.ModelConfig(omega=case.omega, jumps_enabled=case.jumps)
    spec = jv.RunSpec(iterations=ITERATIONS, burn_in=BURN_IN, thin_lag=case.thin,
                      n_chains=case.chains, seed=7, keep_latent_draws=case.keep)
    with _helper(case.helper):
        chains = jv.run_multi(y, cfg, spec)
    out = {}
    for k, chain in enumerate(chains):
        for name, column in chain.draws.items():
            out[f"chain{k}/draws/{name}"] = _sha256(column)
        for field in dataclasses.fields(chain.latent):
            out[f"chain{k}/latent/{field.name}"] = _sha256(getattr(chain.latent, field.name))
        for name, rows in (chain.latent_draws or {}).items():
            out[f"chain{k}/kept/{name}"] = _sha256(rows)
    return out


def mismatches(want: dict[str, str], got: dict[str, str]) -> list[str]:
    """The names whose digests differ, or that only one side has."""
    return sorted(name for name in want.keys() | got.keys() if want.get(name) != got.get(name))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help="compare with the manifest instead of writing it")
    parser.add_argument("--output", default=str(MANIFEST))
    args = parser.parse_args()
    got = {name: digests(case) for name, case in CASES.items()}
    if not args.check:
        path = pathlib.Path(args.output)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"numpy": np.__version__, "cases": got}, indent=1,
                                   sort_keys=True) + "\n", encoding="utf-8")
        return 0
    manifest = json.loads(pathlib.Path(args.output).read_text(encoding="utf-8"))
    if manifest["numpy"] != np.__version__:
        print(f"the manifest was made with numpy {manifest['numpy']}, this is numpy "
              f"{np.__version__}: not compared", file=sys.stderr)
        return 2
    bad = [f"{case}: {name}" for case in sorted(manifest["cases"].keys() | got.keys())
           for name in mismatches(manifest["cases"].get(case, {}), got.get(case, {}))]
    for line in bad:
        print(f"mismatch: {line}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
