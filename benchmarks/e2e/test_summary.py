"""Statistics of the end-to-end benchmark.  Run: pytest benchmarks/e2e"""

import pytest

import summary


@pytest.mark.parametrize(
    "samples, expected",
    [
        (0, None),
        (19, None),
        (20, 50.0),
        (99, 50.0),
        (100, 90.0),
        (999, 90.0),
        (1000, 99.0),
        (9999, 99.0),
        (10000, 99.9),
    ],
)
def test_tail_percentile_needs_ten_samples_beyond_it(samples, expected):
    assert summary.tail_percentile(samples) == expected


def test_percentile_interpolates_between_ranks():
    values = [5.0, 1.0, 3.0, 2.0, 4.0]
    assert summary.percentile(values, 50) == 3.0
    assert summary.percentile(values, 90) == pytest.approx(4.6)
    assert summary.percentile([7.0], 90) == 7.0


def test_spread_is_quartile_distance_over_median():
    assert summary.spread([10.0]) == 0.0
    assert summary.spread([8.0, 9.0, 10.0, 11.0, 12.0]) == pytest.approx(
        (11.5 - 8.5) / 10.0
    )


def test_classify_against_the_bound():
    parent = [100.0, 101.0, 99.0, 100.5, 99.5]
    ok = [104.0, 105.0, 103.0, 104.5, 103.5]
    worse = [120.0, 121.0, 119.0, 120.5, 119.5]
    assert summary.classify(parent, ok, better="lower", bound=0.1) == "ok"
    assert summary.classify(
        parent, worse, better="lower", bound=0.1
    ) == "worse"
    # higher-is-better flips the direction
    assert summary.classify(worse, parent, better="higher", bound=0.1) == (
        "worse"
    )


def test_classify_unresolved_when_runs_spread_past_the_bound():
    noisy = [50.0, 100.0, 150.0, 80.0, 120.0]
    slower = [60.0, 110.0, 160.0, 90.0, 130.0]
    assert summary.classify(noisy, slower, better="lower", bound=0.1) == (
        "unresolved"
    )
    # ... unless every change run beats every parent run
    faster = [10.0, 12.0, 11.0, 13.0, 9.0]
    assert summary.classify(noisy, faster, better="lower", bound=0.1) == "ok"


def test_classify_exact_bound():
    assert summary.classify(
        [1.0] * 3, [1.0] * 3, better="higher", bound=0.0
    ) == "ok"
    assert summary.classify(
        [1.0] * 3, [0.99] * 3, better="higher", bound=0.0
    ) == "worse"


def test_per_input_time_is_the_best_first_measurement_of_every_round():
    rounds = [
        # the second sample of input 0 came after wrapping: ignored
        [[0, "schedulable", 5.0], [1, "schedulable", 3.0],
         [0, "schedulable", 1.0]],
        [[0, "schedulable", 4.0], [2, "schedulable", 9.0]],
        [[0, "schedulable", 6.0], [1, "schedulable", 2.0]],
    ]
    # only input 0 was reached by every round
    assert summary.per_input_ms(rounds) == {0: 4.0}
