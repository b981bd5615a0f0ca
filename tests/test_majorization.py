"""Majorization predicates, the oppositely-ordered matrix class, and
T-transform mechanics (application, inference, composition)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import random_script_l2
from ikmix import (
    DomainError,
    ParamMatrix2xN,
    TTransform,
    apply_t_transform,
    chain_majorization_verify,
    in_script_l,
    infer_t_transform_2x2,
    majorizes,
    schur_probe,
    weak_submajorizes,
    weak_supermajorizes,
)
from ikmix.majorization import _chain_holds, _t_chain

rng = np.random.default_rng(42)


class TestPredicates:
    def test_textbook_pair(self):
        assert majorizes((4.0, 2.0), (3.0, 3.0))
        assert not majorizes((3.0, 3.0), (4.0, 2.0))

    def test_reflexive_and_permutation_invariant(self):
        v = (0.2, 0.5, 0.3)
        assert majorizes(v, v)
        assert majorizes((0.5, 0.3, 0.2), v)

    def test_total_mismatch_blocks_majorization_only(self):
        # (2,2) vs (1,1): strict dominance without equal totals
        assert not majorizes((2.0, 2.0), (1.0, 1.0))
        assert weak_submajorizes((2.0, 2.0), (1.0, 1.0))
        assert not weak_supermajorizes((2.0, 2.0), (1.0, 1.0))
        assert weak_supermajorizes((1.0, 1.0), (2.0, 2.0))

    def test_majorization_implies_both_weak_forms(self):
        # Robin-Hood construction: moving mass from a larger to a smaller
        # coordinate produces a vector the original majorizes
        for _ in range(1000):
            n = int(rng.integers(2, 6))
            b = rng.uniform(0.1, 5.0, size=n)
            a = b.copy()
            hi, lo = int(np.argmax(a)), int(np.argmin(a))
            if hi == lo:
                continue
            delta = rng.uniform(0.0, 0.5) * (a[hi] - a[lo])
            a[hi] -= delta
            a[lo] += delta
            assert majorizes(b, a)
            assert weak_supermajorizes(b, a)
            assert weak_submajorizes(b, a)

    def test_length_mismatch_rejected(self):
        with pytest.raises(DomainError):
            majorizes((1.0, 2.0), (1.0, 1.0, 1.0))

    @pytest.mark.parametrize("a, b, message", [
        ([], [1.0], "a must be a nonempty vector or a stack of them"),
        ([1.0], 2.0, "b must be a nonempty vector or a stack of them"),
        ((1.0, float("nan")), (1.0, 1.0), "a must be finite"),
        ((1.0, 1.0), (float("inf"), 1.0), "b must be finite")])
    def test_bad_vectors_rejected(self, a, b, message):
        with pytest.raises(DomainError, match=f"^{message}$"):
            majorizes(a, b)


class TestParamMatrix:
    def test_positivity_enforced(self):
        with pytest.raises(DomainError):
            ParamMatrix2xN((0.5, -0.5), (1.0, 2.0))
        with pytest.raises(DomainError):
            ParamMatrix2xN((0.5, 0.5), (1.0,))

    @pytest.mark.parametrize("row", [("0.5", "0.5"), (True, True),
                                     pytest.param((10**400, 1), id="401-digit int"),
                                     (None, 1.0), (0.5, float("nan"))])
    def test_entries_must_be_positive_reals(self, row):
        with pytest.raises(DomainError, match="matrix entries must be"):
            ParamMatrix2xN(row, (1.0, 2.0))
        with pytest.raises(DomainError, match="matrix entries must be"):
            ParamMatrix2xN.from_dict({"row1": [0.5, 0.5], "row2": list(row)})

    @pytest.mark.parametrize("obj", [{"row1": 5, "row2": [1.0]}, {"row1": [1.0]},
                                     {"row1": None, "row2": None}, [1.0, 2.0], None])
    def test_from_dict_needs_two_rows(self, obj):
        with pytest.raises(DomainError, match="matrix dict needs row1/row2"):
            ParamMatrix2xN.from_dict(obj)

    def test_dict_round_trip(self):
        pm = ParamMatrix2xN((0.6, 0.4), (1.0, 9.0))
        assert ParamMatrix2xN.from_dict(pm.to_dict()) == pm

    def test_script_l_membership(self):
        assert in_script_l(ParamMatrix2xN((0.2, 0.8), (6.0, 2.0)))
        assert not in_script_l(ParamMatrix2xN((0.2, 0.8), (2.0, 6.0)))
        # ties count as oppositely ordered
        assert in_script_l(ParamMatrix2xN((0.5, 0.5), (2.0, 6.0)))

    def test_script_l_three_columns(self):
        assert in_script_l(ParamMatrix2xN((0.5, 0.2, 0.3), (1.0, 3.0, 2.0)))
        assert not in_script_l(ParamMatrix2xN((0.32, 0.38, 0.3), (2.2, 1.8, 2.0)))


class TestTTransform:
    def test_omega_bounds(self):
        TTransform(0.0, (1, 2))
        TTransform(1.0, (1, 2))
        with pytest.raises(DomainError):
            TTransform(-0.1, (1, 2))
        with pytest.raises(DomainError):
            TTransform(1.1, (1, 2))
        with pytest.raises(DomainError):
            TTransform(0.5, (2, 2))

    @pytest.mark.parametrize("omega", ["0.5", True, None, float("nan"), [0.5],
                                       pytest.param(10**400, id="401-digit int")])
    def test_omega_must_be_a_real_number(self, omega):
        with pytest.raises(DomainError, match="omega must be a real number in"):
            TTransform(omega, (1, 2))

    @pytest.mark.parametrize("pair", [(1.7, 2.2), (1, 2, 3), (1,), (0, 1), (True, 2),
                                      ("1", "2"), (1, 1), 12, None])
    def test_pair_must_be_two_distinct_indices(self, pair):
        with pytest.raises(DomainError, match="pair"):
            TTransform(0.5, pair)
        with pytest.raises(DomainError, match="pair"):
            TTransform.from_dict({"omega": 0.5, "pair": pair})

    def test_pair_of_numpy_integers_is_stored_as_ints(self):
        t = TTransform(np.float64(0.25), [np.int64(2), np.int64(1)])
        assert t == TTransform(0.25, (2, 1)) and type(t.pair[0]) is int

    def test_dict_round_trip(self):
        t = TTransform(0.3, (1, 2))
        assert TTransform.from_dict(t.to_dict()) == t

    def test_from_dict_needs_a_pair(self):
        with pytest.raises(DomainError, match=r"^t-transform dict needs omega/pair: 'pair'$"):
            TTransform.from_dict({"omega": 0.5})

    def test_known_product(self):
        pm = ParamMatrix2xN((0.6, 0.4), (1.0, 9.0))
        q = apply_t_transform(pm, TTransform(0.3, (1, 2)))
        np.testing.assert_allclose(q.row1, (0.46, 0.54), atol=1e-12)
        np.testing.assert_allclose(q.row2, (6.6, 3.4), atol=1e-12)

    def test_row_sums_preserved(self):
        for _ in range(1000):
            n = int(rng.integers(2, 5))
            r1 = rng.uniform(0.1, 2.0, size=n)
            r2 = rng.uniform(0.1, 5.0, size=n)
            pm = ParamMatrix2xN(tuple(r1), tuple(r2))
            i, j = rng.choice(n, size=2, replace=False) + 1
            t = TTransform(float(rng.uniform(0, 1)), (int(i), int(j)))
            q = apply_t_transform(pm, t)
            assert abs(sum(q.row1) - sum(r1)) <= 1e-14 * max(1.0, sum(r1))
            assert abs(sum(q.row2) - sum(r2)) <= 1e-14 * max(1.0, sum(r2))

    def test_output_majorized_by_input(self):
        for _ in range(1000):
            n = int(rng.integers(2, 5))
            r1 = rng.uniform(0.1, 2.0, size=n)
            r2 = rng.uniform(0.1, 5.0, size=n)
            pm = ParamMatrix2xN(tuple(r1), tuple(r2))
            i, j = rng.choice(n, size=2, replace=False) + 1
            t = TTransform(float(rng.uniform(0, 1)), (int(i), int(j)))
            q = apply_t_transform(pm, t)
            assert majorizes(pm.row1, q.row1)
            assert majorizes(pm.row2, q.row2)

    def test_pair_indices_validated_at_apply(self):
        pm = ParamMatrix2xN((0.6, 0.4), (1.0, 9.0))
        with pytest.raises(DomainError):
            apply_t_transform(pm, TTransform(0.5, (1, 3)))

    def test_same_pair_composition_is_single_transform(self):
        # omega'' = w*w' + (1-w)*(1-w') for two transforms on one pair
        pm = ParamMatrix2xN((0.5, 0.2, 0.3), (1.0, 3.0, 2.0))
        w1, w2 = 0.85, 0.6
        q = apply_t_transform(apply_t_transform(pm, TTransform(w1, (1, 3))),
                              TTransform(w2, (1, 3)))
        combined = w1 * w2 + (1 - w1) * (1 - w2)
        q_direct = apply_t_transform(pm, TTransform(combined, (1, 3)))
        np.testing.assert_allclose(q.row1, q_direct.row1, atol=1e-14)
        np.testing.assert_allclose(q.row2, q_direct.row2, atol=1e-14)


class TestInference:
    def test_round_trip(self):
        for _ in range(300):
            r1, r2 = random_script_l2(rng)
            pm = ParamMatrix2xN(r1, r2)
            w = float(rng.uniform(0, 1))
            q = apply_t_transform(pm, TTransform(w, (1, 2)))
            t = infer_t_transform_2x2(pm, q)
            assert t is not None
            assert abs(t.omega - w) <= 1e-12
            q2 = apply_t_transform(pm, t)
            np.testing.assert_allclose(q2.row1, q.row1, atol=1e-12)
            np.testing.assert_allclose(q2.row2, q.row2, atol=1e-12)

    def test_rejects_non_transform(self):
        pm = ParamMatrix2xN((0.6, 0.4), (1.0, 9.0))
        q = ParamMatrix2xN((0.46, 0.54), (6.6, 3.5))  # row2 sum broken
        assert infer_t_transform_2x2(pm, q) is None

    def test_identity_recovered(self):
        pm = ParamMatrix2xN((0.6, 0.4), (1.0, 9.0))
        t = infer_t_transform_2x2(pm, pm)
        assert t is not None and abs(t.omega - 1.0) <= 1e-12

    def test_needs_two_columns(self):
        pm = ParamMatrix2xN((0.2, 0.3, 0.5), (1.0, 2.0, 3.0))
        with pytest.raises(DomainError, match=r"^infer_t_transform_2x2 expects 2x2 matrices$"):
            infer_t_transform_2x2(pm, pm)
        with pytest.raises(DomainError, match=r"^infer_t_transform_2x2 expects 2x2 matrices$"):
            infer_t_transform_2x2(ParamMatrix2xN((0.5, 0.5), (1.0, 3.0)), pm)

    @pytest.mark.parametrize("p, q, want", [
        # row1 is constant, so only row2 names omega: (2.5 - 3) / (1 - 3)
        pytest.param(((0.5, 0.5), (1.0, 3.0)), ((0.5, 0.5), (2.5, 1.5)), TTransform(0.25, (1, 2)),
                     id="constant row that agrees"),
        pytest.param(((0.5, 0.5), (1.0, 3.0)), ((0.4, 0.6), (2.5, 1.5)), None,
                     id="constant row that disagrees"),
        pytest.param(((0.5, 0.5), (2.0, 2.0)), ((0.5, 0.5), (2.0, 2.0)), TTransform(1.0, (1, 2)),
                     id="two constant rows"),
        # row1 names omega = 0.25, row2 omega = 0.5
        pytest.param(((0.3, 0.7), (1.0, 3.0)), ((0.6, 0.4), (2.0, 2.0)), None,
                     id="rows that disagree"),
        # both rows name omega = -0.25
        pytest.param(((0.3, 0.7), (1.0, 3.0)), ((0.8, 0.2), (3.5, 0.5)), None,
                     id="omega below 0"),
        # row1's gap is subnormal, so its omega overflows: clipped to 1
        pytest.param(((5e-324, 1e-323), (1.0, 1.0)), ((1.0, 1.0), (1.0, 1.0)), None,
                     id="omega overflows")])
    def test_constant_rows_and_rejected_omegas(self, p, q, want):
        assert infer_t_transform_2x2(ParamMatrix2xN(*p), ParamMatrix2xN(*q)) == want


class TestScriptLStability:
    def test_products_scale_by_squared_lever(self):
        # for 2 columns the pairwise product picks up a factor (2w-1)^2,
        # so membership in the class survives any single T-transform
        for _ in range(200):
            r1, r2 = random_script_l2(rng)
            pm = ParamMatrix2xN(r1, r2)
            w = float(rng.uniform(0, 1))
            q = apply_t_transform(pm, TTransform(w, (1, 2)))
            before = (r1[0] - r1[1]) * (r2[0] - r2[1])
            after = ((q.row1[0] - q.row1[1]) * (q.row2[0] - q.row2[1]))
            np.testing.assert_allclose(after, (2 * w - 1) ** 2 * before,
                                       rtol=1e-10, atol=1e-15)
            assert in_script_l(q)

    def test_three_column_escape(self):
        # with three columns a transform can break the opposite ordering
        # of an untouched pair, which is what the staged checker patrols
        pm = ParamMatrix2xN((0.5, 0.2, 0.3), (1.0, 3.0, 2.0))
        assert in_script_l(pm)
        out = apply_t_transform(pm, TTransform(0.4, (1, 2)))
        np.testing.assert_allclose(out.row1, (0.32, 0.38, 0.3), atol=1e-15)
        np.testing.assert_allclose(out.row2, (2.2, 1.8, 2.0), atol=1e-15)
        assert not in_script_l(out)
        stay = apply_t_transform(pm, TTransform(0.9, (1, 2)))
        np.testing.assert_allclose(stay.row1, (0.47, 0.23, 0.3), atol=1e-15)
        np.testing.assert_allclose(stay.row2, (1.2, 2.8, 2.0), atol=1e-15)
        assert in_script_l(stay)


class TestChainVerify:
    def test_two_step_chain(self):
        pm = ParamMatrix2xN((0.5, 0.2, 0.3), (1.0, 3.0, 2.0))
        ts = (TTransform(0.9, (1, 2)), TTransform(0.7, (2, 3)))
        q = apply_t_transform(apply_t_transform(pm, ts[0]), ts[1])
        np.testing.assert_allclose(q.row1, (0.47, 0.251, 0.279), atol=1e-15)
        np.testing.assert_allclose(q.row2, (1.2, 2.56, 2.24), atol=1e-15)
        assert chain_majorization_verify(pm, q, ts)
        assert not chain_majorization_verify(pm, q, ts[:1])

    def test_empty_chain_requires_equality(self):
        pm = ParamMatrix2xN((0.6, 0.4), (1.0, 9.0))
        assert chain_majorization_verify(pm, pm, ())


def _reference_apply(pm: ParamMatrix2xN, t: TTransform) -> ParamMatrix2xN:
    """One T-transform on one matrix, a column pair of Python floats at a
    time; it shares no arithmetic with the stacked routine."""
    i, j = t.pair[0] - 1, t.pair[1] - 1
    if i >= pm.n or j >= pm.n:
        raise DomainError(f"pair {t.pair} out of range for n={pm.n}")
    w = t.omega
    rows = []
    for row in (list(pm.row1), list(pm.row2)):
        ci, cj = row[i], row[j]
        row[i] = w * ci + (1.0 - w) * cj
        row[j] = (1.0 - w) * ci + w * cj
        rows.append(tuple(row))
    return ParamMatrix2xN(rows[0], rows[1])


def _reference_verify(p: ParamMatrix2xN, q: ParamMatrix2xN, ts) -> bool:
    """chain_majorization_verify through _reference_apply: each entry of
    the image within 1e-10 of the larger magnitude of it and q's entry."""
    if p.n != q.n:
        return False
    cur = p
    for t in ts:
        cur = _reference_apply(cur, t)
    for got, want in zip(cur.row1 + cur.row2, q.row1 + q.row2):
        if abs(got - want) > 1e-10 * max(abs(got), abs(want)):
            return False
    return True


def _hexed(rows) -> list:
    return [[float(v).hex() for v in row] for row in rows]


def _hexed_matrix(pm: ParamMatrix2xN) -> list:
    return _hexed((pm.row1, pm.row2))


def _outcome(fn):
    """fn()'s value, or the text of the DomainError it raises."""
    try:
        return fn()
    except DomainError as exc:
        return f"DomainError: {exc}"


# entries from 1e-300 up, so that no T-transform of them rounds to zero
_ENTRY = st.floats(1e-300, 1e300)
_OMEGA = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))


@st.composite
def _stacked_chains(draw):
    """A stack of 1-4 matrices of 2-4 columns and a chain of 0-3 transforms
    whose indices reach one past the last column."""
    n = draw(st.integers(2, 4))
    mats = [ParamMatrix2xN(*(tuple(draw(st.lists(_ENTRY, min_size=n, max_size=n)))
                             for _ in range(2))) for _ in range(draw(st.integers(1, 4)))]
    pair = st.lists(st.integers(1, n + 1), min_size=2, max_size=2, unique=True)
    return mats, draw(st.lists(st.builds(TTransform, _OMEGA, pair), max_size=3))


_PM3 = ParamMatrix2xN((0.5, 0.2, 0.3), (1.0, 3.0, 2.0))


class TestStackedTTransform:
    @settings(derandomize=True, max_examples=300, deadline=None, database=None)
    @given(_stacked_chains())
    @example(([_PM3], [TTransform(0.0, (1, 2)), TTransform(1.0, (3, 2))]))
    @example(([_PM3, _PM3], [TTransform(0.5, (1, 2)), TTransform(0.5, (2, 4))]))
    def test_stages_and_apply_match_the_reference(self, case):
        # every stage of every stack entry, and apply_t_transform on each
        # matrix and transform, bit for bit, or the same DomainError text
        mats, ts = case

        def reference(pm):
            stages = [pm]
            for t in ts:
                stages.append(_reference_apply(stages[-1], t))
            return [_hexed_matrix(s) for s in stages]

        want = [_outcome(lambda pm=pm: reference(pm)) for pm in mats]
        got = _outcome(lambda: [[_hexed(s[k]) for s in _t_chain(
            np.array([(pm.row1, pm.row2) for pm in mats]), ts)] for k in range(len(mats))])
        assert got == (want[0] if isinstance(want[0], str) else want)
        for pm in mats:
            for t in ts:
                assert (_outcome(lambda: _hexed_matrix(apply_t_transform(pm, t)))
                        == _outcome(lambda: _hexed_matrix(_reference_apply(pm, t))))

    @settings(derandomize=True, max_examples=300, deadline=None, database=None)
    @given(_stacked_chains(), st.sampled_from(["image", "moved", "other", "wider"]),
           st.floats(-1e-9, 1e-9))
    @example(([_PM3], [TTransform(0.5, (1, 4))]), "wider", 0.0)
    @example(([_PM3], [TTransform(1.0, (1, 2)), TTransform(0.0, (2, 3))]), "image", 0.0)
    def test_chain_verify_matches_the_reference(self, case, how, shift):
        # q the chain's image, that image scaled by 1 + shift, the next
        # matrix of the stack, or a matrix one column wider: a q of another
        # width fails before any transform runs, so an out-of-range pair
        # raises nothing there
        mats, ts = case
        p = image = mats[0]
        try:
            for t in ts:
                image = _reference_apply(image, t)
        except DomainError:  # a pair out of range: no image to reproduce
            how = "other" if how in ("image", "moved") else how
        q = {"image": lambda: image,
             "moved": lambda: ParamMatrix2xN(*([v * (1.0 + shift) for v in row]
                                               for row in (image.row1, image.row2))),
             "other": lambda: mats[-1],
             "wider": lambda: ParamMatrix2xN(p.row1 + (1.0,), p.row2 + (1.0,))}[how]()
        want = _outcome(lambda: _reference_verify(p, q, ts))
        assert _outcome(lambda: chain_majorization_verify(p, q, ts)) == want
        stacked = _outcome(lambda: _chain_holds(np.array([[p.row1, p.row2]] * 2),
                                                np.array([[q.row1, q.row2]] * 2), ts).tolist())
        assert stacked == (want if isinstance(want, str) else [want, want])


_K = range(-60, 61)


def _scaled_answers(decide, *args) -> list:
    """decide(*args) with every argument scaled by 2^k, for every k in _K:
    the answer at k = 0 first, then each k whose answer differs from it."""
    want = decide(*args)
    return [want] + [k for k in _K if decide(*(a * 2.0 ** k for a in args)) != want]


def _images(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """The T-transform of weight w on the first two entries of each row of
    x, worked in plain floats."""
    y = x.copy()
    y[:, 0], y[:, 1] = w * x[:, 0] + (1.0 - w) * x[:, 1], (1.0 - w) * x[:, 0] + w * x[:, 1]
    return y


class TestScaleFree:
    """Scaling both compared vectors by 2^k cannot change whether one
    majorizes the other, is oppositely ordered to it or is a chain's image
    of it, so no answer may depend on k."""

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_preorders(self, n):
        # x against its exact T-transform images, which it majorizes, and
        # against unrelated vectors, ties among them
        r = np.random.default_rng(1500 + n)
        x = r.lognormal(size=(600, n))
        x[::7, -1] = x[::7, 0]
        y = np.concatenate([_images(x[:300], r.uniform(size=300)), r.lognormal(size=(300, n))])
        y[::5] = x[::5]
        for decide in (majorizes, weak_supermajorizes, weak_submajorizes):
            for a, b in ((x, y), (y, x)):
                want, *moved = _scaled_answers(lambda a, b: decide(a, b).tolist(), a, b)
                assert moved == [] and 0 < sum(want) < len(want), decide.__name__
        assert all(majorizes(x[:300], y[:300]))

    def test_script_l(self):
        r = np.random.default_rng(1510)
        for _ in range(150):
            n = int(r.integers(2, 5))
            rows = r.lognormal(size=(2, n))
            if r.random() < 0.5:
                rows = np.stack([np.sort(rows[0]), np.sort(rows[1])[::-1]])
            rows[int(r.integers(2)), :2] = rows[0, 0]  # a tie
            want, *moved = _scaled_answers(lambda a: in_script_l(ParamMatrix2xN(*a)), rows)
            assert moved == []

    def test_chain_verify(self):
        # q the chain's image, moved by 0.5 or 2 times the rule's 1e-10 of
        # each entry, or an unrelated matrix
        r = np.random.default_rng(1520)
        seen = set()
        for index in range(150):
            n = int(r.integers(2, 5))
            p = r.lognormal(size=(2, n))
            ts = [TTransform(float(r.uniform()), tuple(int(i) + 1 for i in r.choice(n, 2, False)))
                  for _ in range(int(r.integers(1, 4)))]
            image = ParamMatrix2xN(*p.tolist())
            for t in ts:
                image = _reference_apply(image, t)
            q = np.array([image.row1, image.row2])
            if index % 3 == 1:
                q = q * (1.0 + r.choice([-2e-10, -5e-11, 5e-11, 2e-10], size=q.shape))
            elif index % 3 == 2:
                q = r.lognormal(size=(2, n))
            want, *moved = _scaled_answers(lambda a, b: chain_majorization_verify(
                ParamMatrix2xN(*a), ParamMatrix2xN(*b), ts), p, q)
            assert moved == []
            seen.add(want)
        assert seen == {True, False}


class TestScaleFreeRegressions:
    def test_prefix_sums_of_the_largest_floats(self):
        # their running sums overflow float64 unless scaled first
        big = (1e308, 1e308)
        assert majorizes(big, big) and weak_supermajorizes(big, big)
        assert weak_submajorizes(big, big)
        assert not weak_submajorizes((1e308, 1.7e308), (1.7e308, 1.7e308))
        assert weak_submajorizes((1.7e308, 1.7e308), (1e308, 1.7e308))

    @pytest.mark.parametrize("n", [1000, 5000])
    def test_long_vectors_majorize_their_mean(self, n):
        # the rounding of n-term sums grows with the magnitudes summed: a
        # slack of 1e-12 alone, in any units, is below it on most rows
        x = np.random.default_rng(n).uniform(0.5, 1.0, size=(50, n))
        mean = np.broadcast_to(x.mean(axis=-1, keepdims=True), x.shape)
        for decide in (majorizes, weak_supermajorizes, weak_submajorizes):
            assert all(decide(x, mean)), decide.__name__

    @pytest.mark.parametrize("s", [1.0, 1e3, 1e5, 1e7, 1e300])
    def test_same_pair_chain_reproduces_its_product_at_any_shape_size(self, s):
        # C3.2's premise: two transforms on one pair are the single
        # transform of weight w1*w2 + (1-w1)*(1-w2); from s = 1e5 on the
        # two images differ by more than an absolute 1e-10
        p = ParamMatrix2xN((0.3, 0.7), (1.2345 * s, 9.8765 * s))
        ts = (TTransform(0.85, (1, 2)), TTransform(0.6, (1, 2)))
        q = apply_t_transform(p, TTransform(0.85 * 0.6 + 0.15 * 0.4, (1, 2)))
        assert chain_majorization_verify(p, q, ts)
        assert not chain_majorization_verify(p, q, ts[:1])

    def test_image_one_ulp_off_reproduces(self):
        p = ParamMatrix2xN((0.3, 0.7), (1.2345e5, 9.8765e5))
        t = TTransform(0.3, (1, 2))
        image = apply_t_transform(p, t)
        q = ParamMatrix2xN(image.row1, (float(np.nextafter(image.row2[0], np.inf)),
                                        image.row2[1]))
        assert chain_majorization_verify(p, q, (t,))


class TestSchurProbe:
    def test_convex_surrogate(self):
        f = lambda v: float(np.sum(np.square(v)))
        assert schur_probe(f, (0.7, 0.3), (0.5, 0.5))
        assert schur_probe(f, (0.5, 0.5), (0.5, 0.5))

    def test_requires_majorization(self):
        with pytest.raises(DomainError):
            schur_probe(lambda v: 0.0, (0.5, 0.5), (0.7, 0.3))

    def test_detects_violation(self):
        g = lambda v: -float(np.sum(np.square(v)))  # Schur-concave
        assert not schur_probe(g, (0.9, 0.1), (0.5, 0.5))
