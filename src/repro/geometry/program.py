"""Region programs: a region lowered to an OR of ANDs of threshold literals.

Presence quadrature asks one question many times: which samples of a POI's
fixed grid lie inside each of the uncertainty regions joined against it.
Every primitive of such a region is a threshold on a per-sample *row* of
values — the squared distance from a circle or ring centre, the distances
from an extended ellipse's two foci, the indoor walking distance from a
device, or a sample coordinate for a bounding-box test.  A literal
(:data:`PackedLiteral`, fields named by :class:`Literal`) is one such
test, in one generic form::

    f = max(a - sub_a, floor_a)  [+ max(b - sub_b, floor_b)]
    lo <= f <= hi

over one row ``a`` or two rows ``a`` and ``b``.  A literal is also false on
the whole grid when the range of ``f`` over the grid misses ``[span_lo,
span_hi]``, a sub-interval of ``[lo, hi]``: a box test's span is the box
itself, which reproduces the combinators' strict disjointness rejection
before their toleranced masks.  A negated literal is the complement.

:meth:`Region.lower <repro.geometry.region.Region.lower>` turns a region
into a :data:`Dnf` — conjunctions of literals — mirroring exactly what its
``contains_many`` computes point by point: intersections add their own
bounding box, union parts add theirs, a difference appends the negated
subtracted part.  A region class the lowering does not know becomes one
opaque literal answered by its own ``contains_many``.

Every literal computes the same floating-point expression its primitive's
``contains_many`` computes (``x - 0.0`` and ``max(x, -inf)`` leave ``x``
unchanged), so batched counts equal the reference counts exactly.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Hashable, Iterable, NamedTuple

from .mbr import Mbr

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .region import Region

__all__ = [
    "BOX_TOLERANCE",
    "Dnf",
    "Literal",
    "MAX_CONJUNCTIONS",
    "PackedLiteral",
    "Program",
    "X_ROW",
    "Y_ROW",
    "box",
    "conjoin",
    "hypot_row",
    "negate",
    "negation",
    "opaque",
    "pair",
    "program_of",
    "squared_row",
    "threshold",
]

_INF = math.inf
_NEG_INF = -math.inf

#: The tolerance of the combinators' bounding-box masks.
BOX_TOLERANCE = 1e-9

#: Conjunction count above which a product of DNFs is left opaque.
MAX_CONJUNCTIONS = 64

#: Row keys of the sample coordinates.  Distance rows are keyed by
#: :func:`squared_row`, :func:`hypot_row` and, for indoor walking
#: distance, ``("in", field.token)``.
X_ROW: Hashable = ("x",)
Y_ROW: Hashable = ("y",)


def squared_row(x: float, y: float) -> Hashable:
    """Row key of ``dx * dx + dy * dy`` from ``(x, y)`` to every sample."""
    return ("sq", x, y)


def hypot_row(x: float, y: float) -> Hashable:
    """Row key of ``np.hypot(dx, dy)`` from ``(x, y)`` to every sample."""
    return ("eu", x, y)


#: One threshold test (see the module docstring for its form), as a plain
#: tuple in :class:`Literal` field order.  Regions keep their programs as
#: long as they live; plain tuples of numbers and strings are untracked by
#: the garbage collector, named tuples never are.
PackedLiteral = tuple[
    Hashable, "Hashable | None", float, float, float, float, float, float,
    float, float, bool, "Region | None",
]

#: Conjunctions of literals, OR-ed; ``()`` is the empty region and an
#: empty conjunction is true everywhere.
Dnf = tuple[tuple[PackedLiteral, ...], ...]

#: A lowered region ready for evaluation: its DNF with the literals of
#: each conjunction running cheapest first (boxes, Euclidean tests,
#: indoor tests, opaque regions).
Program = Dnf


class Literal(NamedTuple):
    """The fields of a :data:`PackedLiteral`, by name: ``Literal(*packed)``.

    ``row_b`` is ``None`` for single-row tests.  ``region`` is set only on
    opaque literals, which are answered by ``region.contains_many``.
    """

    row_a: Hashable
    row_b: Hashable | None
    sub_a: float
    floor_a: float
    sub_b: float
    floor_b: float
    lo: float
    hi: float
    span_lo: float
    span_hi: float
    negated: bool
    region: "Region | None"


def threshold(row: Hashable, lo: float, hi: float, sub: float = 0.0) -> PackedLiteral:
    """``lo <= row - sub <= hi``."""
    return (row, None, sub, _NEG_INF, 0.0, 0.0, lo, hi, lo, hi, False, None)


def pair(
    row_a: Hashable, sub_a: float, row_b: Hashable, sub_b: float, hi: float
) -> PackedLiteral:
    """``max(a - sub_a, 0) + max(b - sub_b, 0) <= hi``."""
    return (row_a, row_b, sub_a, 0.0, sub_b, 0.0, _NEG_INF, hi, _NEG_INF, hi, False, None)


def box(mbr: Mbr) -> tuple[PackedLiteral, PackedLiteral]:
    """The combinators' box test: the grid is not disjoint from ``mbr``
    and the sample lies in ``mbr`` grown by :data:`BOX_TOLERANCE`."""
    return (
        (
            X_ROW, None, 0.0, _NEG_INF, 0.0, 0.0,
            mbr.min_x - BOX_TOLERANCE, mbr.max_x + BOX_TOLERANCE,
            mbr.min_x, mbr.max_x, False, None,
        ),
        (
            Y_ROW, None, 0.0, _NEG_INF, 0.0, 0.0,
            mbr.min_y - BOX_TOLERANCE, mbr.max_y + BOX_TOLERANCE,
            mbr.min_y, mbr.max_y, False, None,
        ),
    )


def opaque(region: "Region") -> PackedLiteral:
    """A literal answered by ``region.contains_many``."""
    return (
        X_ROW, None, 0.0, _NEG_INF, 0.0, 0.0,
        _NEG_INF, _INF, _NEG_INF, _INF, False, region,
    )


def negation(literal: PackedLiteral) -> PackedLiteral:
    """The complement of ``literal``."""
    return literal[:10] + (not literal[10], literal[11])


def conjoin(dnfs: Iterable[Dnf]) -> Dnf | None:
    """The AND of ``dnfs`` distributed into one DNF.

    ``None`` when the product would exceed :data:`MAX_CONJUNCTIONS`.
    """
    result: Dnf = ((),)
    for dnf in dnfs:
        if len(dnf) == 1 and len(result) == 1:
            result = (result[0] + dnf[0],)
            continue
        if len(result) * len(dnf) > MAX_CONJUNCTIONS:
            return None
        result = tuple(left + right for left in result for right in dnf)
        if not result:
            break
    return result


def negate(dnf: Dnf) -> Dnf | None:
    """The complement of ``dnf`` (De Morgan), or ``None`` if too large."""
    return conjoin(
        tuple((negation(literal),) for literal in conjunction) for conjunction in dnf
    )


def _cost(literal: PackedLiteral) -> int:
    if literal[11] is not None:
        return 3
    tag = literal[0][0]  # type: ignore[index]
    return 0 if tag in ("x", "y") else 2 if tag == "in" else 1


def program_of(dnf: Dnf) -> Program:
    """``dnf`` with each conjunction's literals in evaluation order."""
    return tuple(tuple(sorted(conjunction, key=_cost)) for conjunction in dnf)
