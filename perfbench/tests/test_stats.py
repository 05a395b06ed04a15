"""The benchmark's order statistics and its host-speed diagnostic."""
import numpy as np
import pytest

import reference
import stats


@pytest.mark.parametrize("n", [1, 2, 7, 40])
@pytest.mark.parametrize("p", [0, 10, 50, 66, 75, 99, 100])
def test_percentile_is_numpy_linear(n, p):
    values = np.random.default_rng(n).standard_normal(n).tolist()
    assert stats.percentile(values, p) == pytest.approx(float(np.percentile(values, p)), abs=1e-12)


def test_percentile_rejects_empty_and_out_of_range():
    with pytest.raises(ValueError):
        stats.percentile([], 50)
    with pytest.raises(ValueError):
        stats.percentile([1.0], 101)


@pytest.mark.parametrize("n, tail", [(20, 50), (30, 66), (40, 75), (100, 90), (1000, 99),
                                     (5000, 99)])
def test_tail_percentile_keeps_ten_samples_beyond(n, tail):
    assert stats.tail_percentile(n) == tail
    beyond = sum(1 for i in range(n) if i > (n - 1) * tail / 100)
    assert beyond >= stats.MIN_BEYOND


def test_tail_percentile_refuses_small_samples():
    with pytest.raises(ValueError):
        stats.tail_percentile(19)


def test_group_median_cost_is_per_audio_second():
    samples = [("a", 2.0, 1.0), ("a", 6.0, 2.0), ("a", 4.0, 1.0), ("b", 1.0, 4.0)]
    assert stats.group_median_cost(samples) == {"a": 3.0, "b": 0.25}


def test_interval_union_merges_overlaps():
    assert stats.interval_union([]) == 0.0
    assert stats.interval_union([(0, 1), (0.5, 2), (3, 4), (3.5, 3.7)]) == pytest.approx(3.0)


def test_reference_kernel_reports_a_positive_time():
    assert reference.kernel_ms(samples=3) > 0.0
