import pytest

import spans


def span(sid, parent, layer, name, start, end, attrs=None):
    return [sid, parent, layer, name, start, end, attrs]


def test_self_time_subtracts_the_union_of_direct_children():
    tree = [
        span(0, None, "ordercheck", "check_order", 0.0, 10.0),
        span(1, 0, "mixture", "mixture_cdf", 1.0, 4.0),
        span(2, 0, "mixture", "mixture_pdf", 3.0, 6.0),   # overlaps span 1
        span(3, 1, "ikdist", "ik_cdf", 2.0, 3.0),          # grandchild of 0
        span(4, 0, "mixture", "mixture_sf", 9.0, 12.0),   # runs past its parent
    ]
    assert spans.self_times(tree) == pytest.approx([10 - 5 - 1, 2.0, 3.0, 1.0, 3.0])


def test_layer_totals_split_evaluate_refine_and_decide():
    check = {"grid_points": 100, "status": "violated", "refined": True}
    grid_eval = {"points": 100, "scalar": False, "components": 3}
    scalar_eval = {"points": 1, "scalar": True, "components": 3}
    tree = [
        span(0, None, "ordercheck", "check_order", 0.0, 1.0, check),
        span(1, 0, "mixture", "mixture_sf", 0.0, 0.25, grid_eval),
        span(2, 0, "mixture", "mixture_sf", 0.5, 0.625, scalar_eval),
        span(3, 0, "mixture", "mixture_sf", 0.75, 0.875, scalar_eval),
        span(4, 2, "ikdist", "ik_sf", 0.5, 0.5625, {"points": 1}),
    ]
    totals = spans.LayerTotals()
    totals.add(tree)
    m = totals.metrics(ops=1)
    assert m["ordercheck.checks"] == 1
    assert m["ordercheck.evaluate_ms"] == pytest.approx(250.0)
    assert m["ordercheck.refine_ms"] == pytest.approx(250.0)
    assert m["ordercheck.refine_evals"] == 2
    assert m["ordercheck.decide_ms"] == pytest.approx(500.0)
    assert m["ordercheck.refine_yield"] == 1.0
    assert m["ordercheck.violated_frac"] == 1.0
    assert m["mixture.scalar_calls"] == 2
    assert m["mixture.component_points"] == 3 * 102
    assert m["ikdist.calls"] == 1
    assert m["ikdist.ms"] == pytest.approx(62.5)


def test_tracer_restores_every_original_and_keeps_results():
    import ikmix
    from ikmix import mixture, ordercheck

    m1 = ikmix.FiniteMixture.from_dict({"weights": [0.5, 0.5], "alpha": [1.0, 2.0], "beta": 1.5})
    m2 = ikmix.FiniteMixture.from_dict({"weights": [0.3, 0.7], "alpha": [2.0, 3.0], "beta": 2.0})
    grid = ikmix.Grid(1e-2, 1e2, 50)
    before = (ordercheck.mixture_sf, mixture.mixture_cdf, ikmix.FiniteMixture.__init__)
    want = ikmix.check_order("st", m1, m2, grid).to_dict()

    tracer = spans.Tracer()
    tracer.install()
    try:
        assert ordercheck.mixture_sf is not before[0]
        got = ikmix.check_order("st", m1, m2, grid).to_dict()
        recorded = tracer.take()
    finally:
        tracer.uninstall()
    assert got == want
    assert (ordercheck.mixture_sf, mixture.mixture_cdf, ikmix.FiniteMixture.__init__) == before
    names = {s[spans.NAME] for s in recorded}
    assert {"check_order", "mixture_sf", "ik_sf"} <= names
