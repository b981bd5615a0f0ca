"""Majorization preorders, the coupled-matrix class script-L, and T-transforms.

Conventions, fixed once here and relied on everywhere else:

* order statistics are taken ascending, x_(1) <= ... <= x_(n);
* majorizes(a, b) means every ascending prefix sum of a is <= the matching
  prefix sum of b, with equal totals;
* weak_supermajorizes(a, b) drops the equal-total requirement but extends
  the prefix inequality to i = n;
* weak_submajorizes(a, b) asks the ascending suffix sums of a to dominate
  those of b;
* a T-transform T = w*I + (1-w)*Pi acts on a 2xN matrix by right
  multiplication, i.e. it mixes two columns.  Column pairs are addressed
  with 1-based indices, matching the JSON wire format
  {"omega": w, "pair": [i, j]}.

The preorders also take stacks of vectors along the last axis, giving one
bool per stack entry; _opposite is script-L over stacks of row pairs.

Every comparison is scale-free.  The compared values are first divided by
one power of two, which brings their largest magnitude into [0.5, 1)
(_units): exact, and no sum of them can overflow.  A running sum then
passes within _SLACK times the magnitudes summed over the same terms, the
size of its rounding error; script L's pairwise products pass within
_SLACK, each row in its own units.  So scaling the inputs by 2^k changes
no answer.  A T-transform chain reproduces q when each entry of its image
lies within _CHAIN_SLACK of the larger magnitude of it and q's entry.
_t_chain is the one T-transform: it carries stacked (..., 2, N) rows
through a chain and keeps every stage, and _chain_holds compares its end
with q.  in_script_l, apply_t_transform and chain_majorization_verify are
their stacks of one.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .ikdist import DomainError, _count, _known_keys, _positive

__all__ = [
    "ParamMatrix2xN",
    "TTransform",
    "majorizes",
    "weak_supermajorizes",
    "weak_submajorizes",
    "in_script_l",
    "apply_t_transform",
    "chain_majorization_verify",
    "infer_t_transform_2x2",
    "schur_probe",
]

_SLACK = 1e-12
_CHAIN_SLACK = 1e-10


def _vec(v, name: str) -> np.ndarray:
    arr = np.asarray(v, dtype=float)
    if arr.ndim == 0 or arr.shape[-1] == 0:
        raise DomainError(f"{name} must be a nonempty vector or a stack of them")
    if not np.all(np.isfinite(arr)):
        raise DomainError(f"{name} must be finite")
    return arr


def _pair(a, b):
    x = _vec(a, "a")
    y = _vec(b, "b")
    if x.shape[-1] != y.shape[-1]:
        raise DomainError(f"length mismatch: {x.shape[-1]} vs {y.shape[-1]}")
    return np.sort(x), np.sort(y)


def _units(*vs) -> tuple:
    """e, then each of vs divided by 2^e, where 2^e is the least power of
    two above the largest magnitude of the vs along the last axis, per
    stack entry (e keeps that axis, of length one)."""
    e = np.frexp(reduce(np.maximum, [np.abs(v).max(axis=-1, keepdims=True) for v in vs]))[1]
    return (e, *(np.ldexp(v, -e) for v in vs))


def _sums(a, b, suffix: bool = False) -> tuple:
    """The running sums of a's and b's ascending arrangements, from the top
    when suffix, in the pair's units, and the slack of each."""
    x, y = _pair(a, b)
    if suffix:
        x, y = x[..., ::-1], y[..., ::-1]
    _, x, y = _units(x, y)
    return (np.cumsum(x, axis=-1), np.cumsum(y, axis=-1),
            _SLACK * np.cumsum(np.abs(x) + np.abs(y), axis=-1))


def _held(held: np.ndarray):
    """A bool for a pair of vectors, the array for stacks of them."""
    return bool(held) if held.ndim == 0 else held


def majorizes(a, b):
    """a majorizes b: ascending prefix sums of a never exceed b's, totals equal."""
    ca, cb, slack = _sums(a, b)
    return _held(np.all(ca <= cb + slack, axis=-1) & (cb[..., -1] <= ca[..., -1] + slack[..., -1]))


def weak_supermajorizes(a, b):
    ca, cb, slack = _sums(a, b)
    return _held(np.all(ca <= cb + slack, axis=-1))


def weak_submajorizes(a, b):
    sa, sb, slack = _sums(a, b, suffix=True)
    return _held(np.all(sa >= sb - slack, axis=-1))


@dataclass(frozen=True)
class ParamMatrix2xN:
    """Positive 2xN matrix; row1 is typically a weight vector, row2 a shape
    parameter vector."""

    row1: tuple[float, ...]
    row2: tuple[float, ...]

    def __post_init__(self) -> None:
        r1 = tuple(_positive("matrix entries", v) for v in self.row1)
        r2 = tuple(_positive("matrix entries", v) for v in self.row2)
        if len(r1) == 0 or len(r1) != len(r2):
            raise DomainError("rows must be nonempty and equally long")
        object.__setattr__(self, "row1", r1)
        object.__setattr__(self, "row2", r2)

    @property
    def n(self) -> int:
        return len(self.row1)

    @classmethod
    def from_dict(cls, obj: dict) -> "ParamMatrix2xN":
        try:
            row1, row2 = tuple(obj["row1"]), tuple(obj["row2"])
        except (KeyError, TypeError) as exc:
            raise DomainError(f"matrix dict needs row1/row2: {exc}") from exc
        _known_keys("matrix dict", obj, ("row1", "row2"))
        return cls(row1, row2)

    def to_dict(self) -> dict:
        return {"row1": list(self.row1), "row2": list(self.row2)}


@dataclass(frozen=True)
class TTransform:
    """T = omega*I + (1-omega)*Pi on one column pair; 1-based indices."""

    omega: float
    pair: tuple[int, int]

    def __post_init__(self) -> None:
        w, pair = self.omega, self.pair
        if not isinstance(w, numbers.Real) or isinstance(w, bool) or not 0 <= w <= 1:
            raise DomainError(f"omega must be a real number in [0, 1], got {w!r}")
        bad = DomainError(f"pair must be two distinct 1-based indices, got {pair!r}")
        if not isinstance(pair, (list, tuple)) or len(pair) != 2:
            raise bad
        i, j = (_count("pair index", k, 1) for k in pair)
        if i == j:
            raise bad
        object.__setattr__(self, "omega", float(w))
        object.__setattr__(self, "pair", (i, j))

    @classmethod
    def from_dict(cls, obj: dict) -> "TTransform":
        try:
            omega, pair = obj["omega"], obj["pair"]
        except (KeyError, TypeError) as exc:
            raise DomainError(f"t-transform dict needs omega/pair: {exc}") from exc
        _known_keys("t-transform dict", obj, ("omega", "pair"))
        return cls(omega, pair)

    def to_dict(self) -> dict:
        return {"omega": self.omega, "pair": [self.pair[0], self.pair[1]]}


def _rows(pm: ParamMatrix2xN) -> np.ndarray:
    return np.array([pm.row1, pm.row2])


def in_script_l(pm: ParamMatrix2xN) -> bool:
    """Membership in script-L: the two rows are oppositely ordered, i.e.
    (row1_i - row1_j) * (row2_i - row2_j) <= 0 for every column pair, each
    row in its own units, with _SLACK for ties."""
    return bool(_opposite(*_rows(pm)))


def _opposite(r1: np.ndarray, r2: np.ndarray) -> np.ndarray:
    """in_script_l for each stacked pair of rows along the last axis."""
    r1, r2 = _units(r1)[1], _units(r2)[1]
    d1 = r1[..., :, None] - r1[..., None, :]
    d2 = r2[..., :, None] - r2[..., None, :]
    return np.all(d1 * d2 <= _SLACK, axis=(-2, -1))


def _t_chain(rows: np.ndarray, ts) -> list[np.ndarray]:
    """Stacked (..., 2, N) rows, then the rows after each transform of ts in
    turn.  Columns i, j become w*(c_i, c_j) + (1-w)*(c_j, c_i), elementwise
    in float64, so each value has the bits that Python floats give it."""
    stages = [rows]
    for t in ts:
        ij = [k - 1 for k in t.pair]
        if max(ij) >= rows.shape[-1]:
            raise DomainError(f"pair {t.pair} out of range for n={rows.shape[-1]}")
        last, stage = stages[-1], stages[-1].copy()
        stage[..., ij] = t.omega * last[..., ij] + (1.0 - t.omega) * last[..., ij[::-1]]
        stages.append(stage)
    return stages


def _chain_holds(p: np.ndarray, q: np.ndarray, ts) -> np.ndarray:
    """chain_majorization_verify for each stacked pair of (..., 2, N) rows of
    p and q; q of another width fails before any transform runs."""
    if p.shape[-1] != q.shape[-1]:
        return np.zeros(p.shape[:-2], dtype=bool)
    image = _t_chain(p, ts)[-1]
    return np.all(np.abs(image - q) <= _CHAIN_SLACK * np.maximum(np.abs(image), np.abs(q)),
                  axis=(-2, -1))


def apply_t_transform(pm: ParamMatrix2xN, t: TTransform) -> ParamMatrix2xN:
    return ParamMatrix2xN(*_t_chain(_rows(pm), (t,))[-1].tolist())


def chain_majorization_verify(
    p: ParamMatrix2xN, q: ParamMatrix2xN, ts: list[TTransform] | tuple[TTransform, ...]
) -> bool:
    """True iff applying ts in order to p reproduces q: every entry of the
    image lies within _CHAIN_SLACK (1e-10) of the larger magnitude of it
    and q's entry."""
    return bool(_chain_holds(_rows(p), _rows(q), ts))


def infer_t_transform_2x2(p: ParamMatrix2xN, q: ParamMatrix2xN) -> TTransform | None:
    """Recover the single T-transform carrying a 2x2 matrix p onto q.

    omega comes from q[0] = omega*p[0] + (1-omega)*p[1] in the row whose
    two entries differ most for their size (1 when both rows are
    constant), clipped to [0, 1].  Returns None unless the transform with
    that omega reproduces q, as chain_majorization_verify decides it.
    """
    if p.n != 2 or q.n != 2:
        raise DomainError("infer_t_transform_2x2 expects 2x2 matrices")
    rows, want = _rows(p), _rows(q)
    k = np.argmax(np.abs(rows[:, 0] - rows[:, 1]) / rows.max(axis=1))
    gap = float(rows[k, 0] - rows[k, 1])  # a float's quotient may overflow to inf quietly
    omega = float(want[k, 0] - rows[k, 1]) / gap if gap else 1.0
    t = TTransform(min(1.0, max(0.0, omega)), (1, 2))
    return t if _chain_holds(rows, want, (t,)) else None


def schur_probe(f, a, b) -> bool:
    """Given majorizes(a, b), report whether f respects the order, i.e.
    f(a) >= f(b) up to _SLACK times |f(a)| + |f(b)|.  Raises if the
    precondition fails."""
    if not majorizes(a, b):
        raise DomainError("schur_probe requires majorizes(a, b)")
    fa, fb = f(a), f(b)
    return bool(fa >= fb - _SLACK * (abs(fa) + abs(fb)))
