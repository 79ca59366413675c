"""Self-time and busy-time arithmetic of the benchmark's tracer on hand-built span trees."""

import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from tracing import Span, busy, covered, self_times  # noqa: E402


def span(name, start, end, parent=None):
    return Span(name, start, end, parent, "r1", {})


def test_self_time_subtracts_direct_children_only():
    spans = [
        span("experiment.run_experiment", 0.0, 10.0),
        span("pipeline.run_fold", 1.0, 6.0, parent=0),
        span("models.fit_lr", 2.0, 5.0, parent=1),
        span("pipeline.run_fold", 6.0, 9.0, parent=0),
    ]
    assert self_times(spans) == pytest.approx([2.0, 2.0, 3.0, 3.0])


def test_covered_merges_overlaps_and_clips_to_parent():
    assert covered(0.0, 10.0, [(1.0, 3.0), (2.0, 5.0), (9.0, 12.0)]) == pytest.approx(5.0)
    assert covered(0.0, 10.0, []) == 0.0


def test_busy_counts_outermost_spans_of_a_group_once():
    spans = [
        span("metrics.full_suite", 0.0, 4.0),
        span("metrics.aggregate_cougher", 1.0, 2.0, parent=0),
        span("pipeline.run_fold", 5.0, 9.0),
        span("metrics.aggregate_cougher", 6.0, 7.5, parent=2),
    ]
    assert busy(spans, ["metrics.full_suite", "metrics.aggregate_cougher"]) == \
        pytest.approx(5.5)
    assert busy(spans, ["metrics.aggregate_cougher"]) == pytest.approx(2.5)
