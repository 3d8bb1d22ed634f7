"""The summary of tools/bench_pairs.py: medians, quartiles, wins and refusals."""

from __future__ import annotations

import importlib.util
import pathlib

import pytest

_PATH = pathlib.Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)


def _run(total_s, sweeps_per_s, correct=True, failed=0):
    return {"correct": correct, "attempted": 4, "failed": failed, "setup_s": 0.25,
            "total_s": total_s, "sweeps_per_s": sweeps_per_s, "peak_rss_mb": 40.0}


def _pairs(ratios=(1.0,) * 5):
    parent = [(1.0, 10.0), (2.0, 20.0), (3.0, 30.0), (4.0, 40.0), (5.0, 50.0)]
    change = [(0.5, 10.0), (2.0, 25.0), (3.5, 20.0), (3.0, 45.0), (4.0, 55.0)]
    return [{"pair": i, "cpu_probe": {"side_over_alone": ratio},
             "parent": _run(*p), "change": _run(*c)}
            for i, (p, c, ratio) in enumerate(zip(parent, change, ratios), start=1)]


def test_medians_quartiles_and_wins():
    """Quartiles are the exclusive ones of statistics.quantiles; a tie (pair 1
    of sweeps_per_s, pair 2 of total_s) counts for neither side."""
    metrics = bench_pairs.summarize(_pairs())
    assert metrics["total_s"] == {
        "parent_median": 3.0, "change_median": 3.0,
        "parent_quartiles": [1.5, 4.5], "change_quartiles": [1.25, 3.75],
        "parent_iqr": 3.0, "change_better_in": 3,  # lower is better: pairs 1, 4, 5
    }
    assert metrics["sweeps_per_s"] == {
        "parent_median": 30.0, "change_median": 25.0,
        "parent_quartiles": [15.0, 45.0], "change_quartiles": [15.0, 50.0],
        "parent_iqr": 30.0, "change_better_in": 3,  # higher is better: pairs 2, 4, 5
    }
    assert metrics["setup_s"]["change_better_in"] == 0  # every pair a tie
    assert set(metrics) == set(bench_pairs.METRICS)


@pytest.mark.parametrize("side", ["parent", "change"])
@pytest.mark.parametrize("bad", [{"correct": False}, {"failed": 1}])
def test_a_wrong_or_failed_run_is_refused(side, bad):
    pairs = _pairs()
    pairs[3][side].update(bad)
    with pytest.raises(ValueError, match=f"pair 4, {side}: "):
        bench_pairs.summarize(pairs)


def test_pairs_split_by_the_cpu_grant_probe():
    """A probe ratio of 1.5 or more reads as one CPU; a group of one pair gets
    no summary."""
    groups = bench_pairs.by_cpu_grant(_pairs(ratios=(1.0, 2.1, 1.5, 1.2, 1.9)))
    assert groups["two_cpus"]["pairs"] == [1, 4]
    assert groups["one_cpu"]["pairs"] == [2, 3, 5]
    assert groups["two_cpus"]["metrics"]["total_s"]["change_better_in"] == 2
    assert groups["one_cpu"]["metrics"]["sweeps_per_s"]["change_median"] == 25.0
    lone = bench_pairs.by_cpu_grant(_pairs(ratios=(1.0, 2.0, 2.0, 2.0, 2.0)))
    assert lone["two_cpus"] == {"pairs": [1]}
