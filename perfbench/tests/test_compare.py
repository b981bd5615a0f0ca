import compare

PARENT = [10.0, 10.2, 9.9, 10.1, 10.0, 9.8, 10.3, 10.1, 9.9, 10.0]


def test_clear_gain_is_improved():
    change = [v * 0.8 for v in PARENT]
    assert compare.verdict(PARENT, change, "lower", 0.1) == ("improved", 1.0)


def test_worse_by_more_than_the_bound_is_regressed():
    change = [v * 1.2 for v in PARENT]
    assert compare.verdict(PARENT, change, "lower", 0.1)[0] == "regressed"
    assert compare.verdict(PARENT, change, "higher", 0.1)[0] == "improved"


def test_small_change_is_unchanged_and_wide_spread_is_unresolved():
    change = [v * 1.01 for v in PARENT]
    assert compare.verdict(PARENT, change, "lower", 0.1)[0] == "unchanged"
    noisy = [5.0, 15.0, 6.0, 14.0, 7.0, 13.0, 8.0, 12.0, 9.0, 11.0]
    assert compare.verdict(noisy, [v * 1.05 for v in noisy], "lower", 0.1)[0] == "unresolved"


def test_ties_count_for_neither_side():
    assert compare.verdict(PARENT, list(PARENT), "lower", 0.1) == ("unchanged", 0.0)


def test_shift_is_the_relative_change_of_the_medians():
    assert compare._shift(PARENT, [v * 1.1 for v in PARENT]) == "+0.100"
