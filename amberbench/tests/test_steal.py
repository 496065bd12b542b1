"""Medians are taken over the least-stolen half of the reps."""

from amberbench.steal import least_stolen, steal_frac


def test_keeps_the_least_stolen_half_in_rep_order():
    steals = [0.0, 0.2, 0.03, 0.5, 0.01, 0.0]
    assert least_stolen(list("abcdef"), steals) == list("aef")


def test_same_selection_whatever_the_steal():
    quiet = [0.0] * 9
    noisy = [0.3, 0.1, 0.5, 0.2, 0.4, 0.6, 0.05, 0.9, 0.7]
    assert len(least_stolen(list(range(9)), quiet)) == 5
    assert least_stolen(list(range(9)), quiet) == [0, 1, 2, 3, 4]
    assert least_stolen(list(range(9)), noisy) == [0, 1, 3, 4, 6]


def test_short_phases_keep_at_least_three_reps():
    assert least_stolen([1, 2, 3], [0.5, 0.4, 0.6]) == [1, 2, 3]
    assert least_stolen([1, 2, 3, 4], [0.5, 0.4, 0.6, 0.0]) == [1, 2, 4]


def test_steal_share_of_the_busy_ticks():
    assert steal_frac((10, 100), (40, 200)) == 0.3
    assert steal_frac(None, (40, 200)) == 0.0
    assert steal_frac((10, 100), (10, 100)) == 0.0
