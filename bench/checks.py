"""Information-criterion checks recomputed with scipy, outside the measured process.

The measuring worker saves, for its first round, the inputs of each report
(data, mu draws, per-draw log-likelihoods, posterior-mean latent paths) and
the numbers the program reported.  run.py recomputes the criteria here, after
the worker has exited, so that importing scipy.stats never counts towards the
worker's set-up time or peak memory.  Later rounds are checked to be bit-for-bit
copies of the first.
"""

from __future__ import annotations

import json
import math

import numpy as np

ARRAYS = ("y", "mu", "log_lik", "mean_jump", "mean_precision", "mean_mixture")
CRITERIA = ("log_lik_at_mean", "bic", "dic", "p_d")


def save(path: str, records: list[dict]) -> None:
    """records: dicts with 'label', 'k', 'reported' ({source: {criterion: value}}) and ARRAYS."""
    np.savez(path + ".npz", **{f"{i}.{name}": np.asarray(rec[name], dtype=float)
                               for i, rec in enumerate(records) for name in ARRAYS})
    meta = [{"label": rec["label"], "k": rec["k"], "reported": rec["reported"]} for rec in records]
    with open(path + ".json", "w", encoding="utf-8") as fh:
        json.dump(meta, fh)


def criteria(y, mu, log_lik, mean_jump, mean_precision, mean_mixture, k: int) -> dict:
    """log-likelihood at the posterior mean, BIC, DIC and pD from first principles."""
    from scipy.stats import norm

    ll_mean = float(np.sum(norm.logpdf(
        y, loc=float(np.mean(mu)) + mean_jump, scale=1.0 / np.sqrt(mean_mixture * mean_precision))))
    d_bar = float(np.mean(-2.0 * log_lik))
    d_hat = -2.0 * ll_mean
    p_d = d_bar - d_hat
    return {
        "log_lik_at_mean": ll_mean,
        "bic": -2.0 * float(np.max(log_lik)) + k * math.log(len(y)),
        "dic": d_hat + 2.0 * p_d,
        "p_d": p_d,
    }


def verify(path: str, rtol: float = 1e-9) -> list[str]:
    """Failures among the saved reports; an empty list means every check passed."""
    with open(path + ".json", encoding="utf-8") as fh:
        meta = json.load(fh)
    with np.load(path + ".npz") as data:
        failures = []
        for i, rec in enumerate(meta):
            want = criteria(*(data[f"{i}.{name}"] for name in ARRAYS), rec["k"])
            for source, got in rec["reported"].items():
                for key in CRITERIA:
                    if not math.isclose(got[key], want[key], rel_tol=rtol, abs_tol=rtol):
                        failures.append(f"{rec['label']} {source} {key}: "
                                        f"{got[key]!r} vs recomputed {want[key]!r}")
    return failures
