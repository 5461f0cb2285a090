import pytest

from stats import MIN_BEYOND, median, min_samples, nearest_rank, percentile, tail


def test_p50_is_nearest_rank_and_reports_count():
    values = [float(v) for v in range(20, 0, -1)]  # unsorted input
    assert percentile(values, 0.5) == (10.0, 20)


def test_p99_needs_ten_samples_beyond_it():
    values = [float(v) for v in range(1000)]
    # rank ceil(0.99 * 1000) = 990 leaves exactly ten samples above it
    assert percentile(values, 0.99) == (989.0, 1000)
    with pytest.raises(ValueError, match="at least 10 samples beyond"):
        percentile(values[:999], 0.99)


def test_p50_refused_below_twenty_samples():
    assert percentile([1.0] * 20, 0.5) == (1.0, 20)
    with pytest.raises(ValueError):
        percentile([1.0] * 19, 0.5)


def test_min_samples_matches_percentile_rule():
    for q in (0.5, 0.9, 0.99):
        n = min_samples(q)
        percentile([0.0] * n, q)
        with pytest.raises(ValueError):
            percentile([0.0] * (n - 1), q)
    assert min_samples(0.99) == 1000
    assert min_samples(0.5) == 2 * MIN_BEYOND


def test_percentile_rejects_q_outside_open_interval():
    with pytest.raises(ValueError):
        percentile([1.0] * 100, 1.0)


def test_median_odd_and_even():
    assert median([3.0, 1.0, 2.0]) == 2.0
    assert median([4.0, 1.0, 3.0, 2.0]) == 2.5
    with pytest.raises(ValueError):
        median([])


def test_tail_falls_back_to_the_highest_reportable_percentile():
    values = [float(v) for v in range(1000)]
    assert tail(values) == (0.99, 989.0, 1000)
    # 999 samples leave only nine beyond p99, but p90 has 99 beyond it
    assert tail(values[:999]) == (0.9, 899.0, 999)
    with pytest.raises(ValueError):
        tail(values[:99])


def test_nearest_rank_has_no_tail_rule():
    values = [5.0, 1.0, 4.0, 2.0, 3.0]
    assert nearest_rank(values, 0.9) == 5.0  # rank ceil(4.5) = 5
    assert nearest_rank(values, 0.5) == 3.0
    assert nearest_rank([7.0], 0.9) == 7.0
    with pytest.raises(ValueError):
        nearest_rank([], 0.5)
