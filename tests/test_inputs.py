"""Every constructor that reads values from a JSON file either builds its
object or raises DomainError: no other exception escapes to the command
line as a traceback."""

from __future__ import annotations

import math
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ikmix import DomainError, FiniteMixture, Grid, ParamMatrix2xN, ScanConfig, TTransform
from ikmix.ikdist import _positive
from ikmix.ordercheck import MAX_GRID_POINTS
from ikmix.scan import MAX_COMPONENTS, MAX_SAMPLES

SCAN = {
    "theorem": "T3.10",
    "samples": 3,
    "seed": 11,
    "n_components": 2,
    "ranges": {
        "beta": [[1.0, 1.0], [2.0, 2.0]],
        "beta_star": [[1.0, 1.0], [2.0, 2.0]],
        "alpha": [1.0, 1.0],
        "p": [[0.5, 0.5], [0.5, 0.5]],
        "p_star": [[0.9, 0.9], [0.1, 0.1]],
    },
    "grid": {"x_min": 1e-4, "x_max": 1e3, "points": 400, "spacing": "logarithmic"},
}

# name: (constructor, valid dict); each example replaces one field of one dict
VALID = {
    "mixture": (FiniteMixture.from_dict,
                {"weights": [0.4, 0.6], "alpha": [2.0, 3.5], "beta": 1.5}),
    "scan": (ScanConfig.from_dict, SCAN),
    "scan grid": (lambda grid: ScanConfig.from_dict(dict(SCAN, grid=grid)), SCAN["grid"]),
    "scan ranges": (lambda ranges: ScanConfig.from_dict(dict(SCAN, ranges=ranges)),
                    SCAN["ranges"]),
    "matrix": (ParamMatrix2xN.from_dict, {"row1": [0.6, 0.4], "row2": [1.0, 9.0]}),
    "t-transform": (TTransform.from_dict, {"omega": 0.3, "pair": [1, 2]}),
}

json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-10**400, 10**400)
    | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=6)


@pytest.mark.parametrize("build, valid", VALID.values(), ids=VALID.keys())
def test_valid_dicts_build(build, valid):
    build(valid)


@given(st.data())
@settings(derandomize=True, max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_one_bad_field_raises_domain_error_or_builds(data):
    build, valid = data.draw(st.sampled_from(list(VALID.values())))
    key = data.draw(st.sampled_from(sorted(valid)))
    value = data.draw(json_values)
    try:
        build(dict(valid, **{key: value}))
    except DomainError:
        pass


@pytest.mark.parametrize("value", [1.0, 5e-324, 1.7976931348623157e308, 0.1, 3, 10**300,
                                   np.float64(0.5), np.float32(2.5), np.int64(7)])
def test_positive_accepts_positive_finite_reals(value):
    got = _positive("x", value)
    assert type(got) is float and got == float(value)


@pytest.mark.parametrize("value, message", [
    (math.nan, "positive and finite"), (math.inf, "positive and finite"),
    (-math.inf, "positive and finite"), (0.0, "positive and finite"),
    (-0.0, "positive and finite"), (-1.5, "positive and finite"),
    (np.float64(math.nan), "positive and finite"), (np.float64(math.inf), "positive and finite"),
    (np.float64(0.0), "positive and finite"), (np.float64(-2.0), "positive and finite"),
    (10**400, "positive and finite"), (True, "a real number"), (False, "a real number"),
    ("1.0", "a real number"), (None, "a real number")])
def test_positive_rejects_the_rest(value, message):
    with pytest.raises(DomainError, match=f"x must be {message}, got {re.escape(repr(value))}$"):
        _positive("x", value)


@pytest.mark.parametrize("field, most", [("n_components", MAX_COMPONENTS),
                                         ("samples", MAX_SAMPLES)])
def test_scan_counts_have_a_ceiling(field, most):
    # bare [lo, hi] ranges, which a config repeats n_components times
    shared = dict(SCAN, ranges={name: [0.5, 1.0] for name in SCAN["ranges"]})
    assert ScanConfig.from_dict(dict(shared, **{field: most})).to_dict()[field] == most
    for huge in (most + 1, 10**9, 10**400):
        with pytest.raises(DomainError,
                           match=f"{field} must be an integer >= [12] and <= {most}, got "):
            ScanConfig.from_dict(dict(shared, **{field: huge}))


@pytest.mark.parametrize("build, valid, extra, message", [
    (ScanConfig.from_dict, SCAN, {"n_component": 3, "grids": "1e-3:1e3:50:log"},
     "scan config has unknown keys ['grids', 'n_component']; expected only theorem, samples, "
     "seed, ranges, n_components, grid"),
    (FiniteMixture.from_dict, VALID["mixture"][1], {"betas": [1.0, 2.0]},
     "mixture dict has unknown keys ['betas']; expected only weights, alpha, beta"),
    (ParamMatrix2xN.from_dict, VALID["matrix"][1], {"rows3": 1},
     "matrix dict has unknown keys ['rows3']; expected only row1, row2"),
    (TTransform.from_dict, VALID["t-transform"][1], {"pairs": [1, 2], "Omega": 0.5},
     "t-transform dict has unknown keys ['Omega', 'pairs']; expected only omega, pair"),
])
def test_unknown_keys_are_refused(build, valid, extra, message):
    # a misspelt key would otherwise be ignored, and its default used
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        build(dict(valid, **extra))


def test_grid_points_have_a_ceiling():
    # a Grid computes its points on first use, so none of these allocates
    assert Grid(1e-4, 1e4, MAX_GRID_POINTS).points == MAX_GRID_POINTS
    message = f"grid points must be an integer >= 2 and <= {MAX_GRID_POINTS}, got "
    for huge in (MAX_GRID_POINTS + 1, 10**9, 10**33, 10**400):
        for build in (lambda: Grid(1e-4, 1e4, huge),
                      lambda: Grid.from_spec(f"1e-4:1e4:{huge}:log"),
                      lambda: ScanConfig.from_dict(dict(SCAN, grid=dict(SCAN["grid"],
                                                                        points=huge)))):
            with pytest.raises(DomainError, match=message):
                build()
