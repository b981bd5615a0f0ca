import pytest

import speedref

REF = speedref.REFERENCE_S


def test_latencies_at_the_reference_speed_are_unchanged():
    lat = [0.01, 0.02, 0.03, 0.04]
    assert speedref.normalise(lat, [REF] * 4) == pytest.approx(lat)


def test_a_machine_twice_as_slow_halves_the_raw_latencies():
    lat = [0.02] * 6
    assert speedref.normalise(lat, [2 * REF] * 6) == pytest.approx([0.01] * 6)


def test_each_op_uses_the_median_probe_of_its_neighbourhood():
    k = speedref.NEIGHBOURS
    lat = [0.01] * (4 * k + 1)
    spike = [REF] * len(lat)
    spike[2 * k] = 5 * REF
    # a single slow probe moves no figure, its own op's included
    assert speedref.normalise(lat, spike) == pytest.approx(lat)
    # the machine halves its speed from op 2k on: ops more than k before
    # the change keep their figures, ops more than k after it are halved
    slow = [REF] * (2 * k) + [2 * REF] * (2 * k + 1)
    got = speedref.normalise(lat, slow)
    assert got[:k] == pytest.approx([0.01] * k)
    assert got[-k:] == pytest.approx([0.005] * k)


def test_probe_times_a_fixed_computation():
    assert speedref._work() == speedref._work()
    assert speedref.probe() > 0.0
