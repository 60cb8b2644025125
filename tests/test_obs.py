"""The shared nearest-rank percentile behind every serving latency figure."""

from __future__ import annotations

import random

import pytest

from repro.obs import percentile
from repro.serving import LoadReport, OpResult


@pytest.mark.parametrize("fraction", [0.50, 0.95])
def test_no_samples_is_none(fraction):
    assert percentile([], fraction) is None


@pytest.mark.parametrize("fraction", [0.50, 0.95])
def test_one_sample_is_that_sample(fraction):
    assert percentile([0.25], fraction) == 0.25


@pytest.mark.parametrize(
    ("count", "fraction", "expected"),
    [
        # Index round(f * (n - 1)) of the sorted samples; round() is Python's
        # half-to-even, so p50 of ten samples is the 5th, not the 6th.
        (10, 0.50, 5),
        (10, 0.95, 10),
        (20, 0.50, 11),
        (20, 0.95, 19),
    ],
)
def test_n_samples_pick_the_nearest_rank_in_any_order(count, fraction, expected):
    samples = list(range(1, count + 1))
    random.Random(count).shuffle(samples)
    assert percentile(samples, fraction) == expected


def test_load_report_uses_the_shared_rule():
    seconds = [0.004, 0.001, 0.003, 0.002, 0.010]
    report = LoadReport(
        clients=1,
        ops=[OpResult(client=0, kind="read", seconds=value, ok=True) for value in seconds],
    )
    for fraction in (0.50, 0.95):
        assert report.latency_percentile("read", fraction) == percentile(seconds, fraction)
    assert report.latency_percentile("write", 0.95) is None
