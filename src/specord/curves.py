"""Measurable orderings of the plane via parameterized curves.

Each curve visits the 4^depth cells of a grid in a fixed order and induces a
total preorder on points: z1 precedes z2 when the first visit to z1's cell
comes before the first visit to z2's.  A parameter is the integer
cell-visit index k in [0, 4^depth), standing for the dyadic t = k/4^depth
of [0,1]; no floating point enters the parameter arithmetic.

Conventions, fixed once and for all:

* Hilbert: starts at the bottom-left corner of the square and ends at the
  bottom-right corner; continuous (consecutive parameters land in edge
  adjacent cells).
* Morton: bit interleaving with the y bits at the odd fractional positions
  of t and the x bits at the even positions, so t = .01 (k = 4^(depth-1))
  lands at the unit-square point (1/2, 0).
* Lexicographic: column sweep; x-cell index is the major key, y-cell index
  the minor key, t = 0 at the bottom-left.
* Radial: covers the closed ball inscribed in the square; radius bits sit
  at the odd fractional positions and angle bits at the even ones, so the
  induced order is by quantized radius first, then by quantized angle.

Curve evaluation returns the anchor corner of the selected cell (the
lower-left corner for square-grid curves; the inner/counterclockwise corner
for the radial curve).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .regions import Region, Square, ambient_square


class CurveDomainError(ValueError):
    """Query point or parameter outside the curve's domain."""


# ---------------------------------------------------------------------------
# parameters

def param_to_bits(k: int, bits: int) -> str:
    """Binary expansion '0.b1b2...' of t = k/2^bits, a parameter of `bits` bits."""
    if not 0 <= k < 1 << bits:
        raise ValueError(f"parameter {k} outside [0, 2^{bits})")
    return "0." + format(k, f"0{bits}b")


# ---------------------------------------------------------------------------
# integer curve indexings (exact, arbitrary depth)

def _hilbert_index_to_xy(order: int, d: int) -> tuple[int, int]:
    x = y = 0
    t = d
    s = 1
    top = 1 << order
    while s < top:
        rx = 1 & (t // 2)
        ry = 1 & (t ^ rx)
        if ry == 0:
            if rx == 1:
                x = s - 1 - x
                y = s - 1 - y
            x, y = y, x
        x += s * rx
        y += s * ry
        t //= 4
        s *= 2
    return x, y


def _hilbert_step(state: int, bx: int, by: int) -> tuple[int, int]:
    """One Hilbert level: the base-4 digit of raw bits (bx, by), next state.

    The state is the orientation that the levels above put on the lower
    bits: bit 1 swaps x and y, bit 0 complements both.  The two commute,
    so four states cover every orientation.
    """
    if state & 2:
        bx, by = by, bx
    bx ^= state & 1
    by ^= state & 1
    if by == 0:
        state ^= 2 | bx
    return (3 * bx) ^ by, state


def _hilbert_nibble_table() -> list[int]:
    """Four Hilbert levels at once: entry (state, x nibble, y nibble)."""
    table = []
    for state0 in range(4):
        for xn in range(16):
            for yn in range(16):
                digits, state = 0, state0
                for shift in (3, 2, 1, 0):
                    digit, state = _hilbert_step(state, (xn >> shift) & 1, (yn >> shift) & 1)
                    digits = (digits << 2) | digit
                table.append((digits << 2) | state)
    return table


_HILBERT_NIBBLES = _hilbert_nibble_table()


def _hilbert_xy_to_index(order: int, x: int, y: int) -> int:
    """Hilbert index of cell (x, y), read from the top bit down.

    Each level emits the base-4 digit (3 rx) ^ ry of its orientation-adjusted
    bits and moves to one of four orientation states (swap x and y,
    complement both; see `_hilbert_step`).  `_HILBERT_NIBBLES` holds, for
    each state and each (x nibble, y nibble), the 8 bits of four digits and
    the state after them, so the levels below the first `order % 4` are
    read four at a time.  The integers equal the level-by-level walk.
    """
    d = 0
    state = 0
    shift = order
    for _ in range(order % 4):
        shift -= 1
        digit, state = _hilbert_step(state, (x >> shift) & 1, (y >> shift) & 1)
        d = (d << 2) | digit
    table = _HILBERT_NIBBLES
    while shift:
        shift -= 4
        e = table[(state << 8) | (((x >> shift) & 15) << 4) | ((y >> shift) & 15)]
        d = (d << 8) | (e >> 2)
        state = e & 3
    return d


def _interleave(hi: int, lo: int, depth: int) -> int:
    """Pack two depth-bit integers, `hi` at the odd bit positions."""
    out = 0
    for k in range(depth):
        out |= ((lo >> k) & 1) << (2 * k)
        out |= ((hi >> k) & 1) << (2 * k + 1)
    return out


def _deinterleave(i: int, depth: int) -> tuple[int, int]:
    hi = lo = 0
    for k in range(depth):
        lo |= ((i >> (2 * k)) & 1) << k
        hi |= ((i >> (2 * k + 1)) & 1) << k
    return hi, lo


# ---------------------------------------------------------------------------
# curves

@dataclass(frozen=True)
class OrderingCurve:
    """Base curve over a square domain; subclasses fix the cell visit order."""

    square: Square
    depth: int = 32

    kind = "abstract"

    def __post_init__(self):
        if self.depth < 1:
            raise ValueError("depth must be >= 1")

    # -- square-grid quantization (overridden by the radial curve) ----------

    def _quantize(self, z: complex) -> tuple[int, int]:
        sq = self.square
        if not (sq.x0 <= z.real <= sq.x1 and sq.y0 <= z.imag <= sq.y1):
            raise CurveDomainError(f"point {z} outside the domain square")
        m = 1 << self.depth
        h = sq.side / m
        ix = min(int(math.floor((z.real - sq.x0) / h)), m - 1)
        iy = min(int(math.floor((z.imag - sq.y0) / h)), m - 1)
        return max(ix, 0), max(iy, 0)

    def _cell_anchor(self, ix: int, iy: int) -> complex:
        h = self.square.side / (1 << self.depth)
        return complex(self.square.x0 + ix * h, self.square.y0 + iy * h)

    # -- indexing hooks ------------------------------------------------------

    def _index_to_cell(self, i: int) -> tuple[int, int]:
        raise NotImplementedError

    def _cell_to_index(self, ix: int, iy: int) -> int:
        raise NotImplementedError

    # -- public operations ----------------------------------------------------

    def _check_index(self, k: int) -> int:
        if not 0 <= k < 1 << (2 * self.depth):
            raise CurveDomainError(f"parameter {k} outside [0, 4^{self.depth})")
        return k

    def eval(self, k: int) -> complex:
        """Point visited at cell-visit index k (anchor corner of the cell)."""
        ix, iy = self._index_to_cell(self._check_index(k))
        return self._cell_anchor(ix, iy)

    def min_preimage(self, z: complex) -> int:
        """Index of the first visit to the cell containing z."""
        ix, iy = self._quantize(complex(z))
        return self._cell_to_index(ix, iy)

    def compare(self, z1: complex, z2: complex) -> int:
        """-1, 0, +1 by minimal preimage; 0 exactly when both share a cell."""
        t1, t2 = self.min_preimage(z1), self.min_preimage(z2)
        return (t1 > t2) - (t1 < t2)

    def spec_string(self) -> str:
        return f"{self.kind}:depth={self.depth}"


@dataclass(frozen=True)
class HilbertCurve(OrderingCurve):
    kind = "hilbert"

    def _index_to_cell(self, i):
        return _hilbert_index_to_xy(self.depth, i)

    def _cell_to_index(self, ix, iy):
        return _hilbert_xy_to_index(self.depth, ix, iy)


@dataclass(frozen=True)
class MortonCurve(OrderingCurve):
    kind = "morton"

    def _index_to_cell(self, i):
        iy, ix = _deinterleave(i, self.depth)
        return ix, iy

    def _cell_to_index(self, ix, iy):
        return _interleave(iy, ix, self.depth)


@dataclass(frozen=True)
class LexicographicCurve(OrderingCurve):
    kind = "lex"

    def _index_to_cell(self, i):
        ix, iy = divmod(i, 1 << self.depth)
        return ix, iy

    def _cell_to_index(self, ix, iy):
        return (ix << self.depth) + iy


@dataclass(frozen=True)
class RadialCurve(OrderingCurve):
    """Orders the closed inscribed ball by (quantized radius, quantized angle)."""

    kind = "radial"

    @property
    def radius(self) -> float:
        return self.square.side / 3.0

    def _polar_quantize(self, z: complex) -> tuple[int, int]:
        r = abs(z)
        if r > self.radius * (1.0 + 1e-12):
            raise CurveDomainError(f"point {z} outside the closed ball of the radial curve")
        m = 1 << self.depth
        ri = min(int(math.floor(r / self.radius * m)), m - 1) if self.radius > 0 else 0
        ang = cmath.phase(z) if z != 0 else 0.0
        if ang < 0.0:
            ang += 2.0 * math.pi
        ti = int(math.floor(ang / (2.0 * math.pi) * m))
        return max(ri, 0), min(max(ti, 0), m - 1)

    def eval(self, k: int) -> complex:
        ri, ti = _deinterleave(self._check_index(k), self.depth)
        m = 1 << self.depth
        r = self.radius * ri / m
        ang = 2.0 * math.pi * ti / m
        return complex(r * math.cos(ang), r * math.sin(ang))

    def min_preimage(self, z: complex) -> int:
        ri, ti = self._polar_quantize(complex(z))
        return _interleave(ri, ti, self.depth)


_KINDS = {
    "hilbert": HilbertCurve,
    "morton": MortonCurve,
    "lex": LexicographicCurve,
    "lexicographic": LexicographicCurve,
    "radial": RadialCurve,
}


def parse_curve(spec: str, radius: float) -> OrderingCurve:
    """Build a curve from a spec string like 'hilbert:depth=32' or 'lex'."""
    name, _, rest = spec.strip().partition(":")
    name = name.lower()
    if name not in _KINDS:
        raise ValueError(f"unknown curve kind {name!r}")
    depth = 32
    if rest:
        for fieldspec in rest.split(","):
            key, _, val = fieldspec.partition("=")
            if key == "depth":
                depth = int(val)
            else:
                raise ValueError(f"unknown curve option {fieldspec!r}")
    return _KINDS[name](square=ambient_square(radius), depth=depth)


def curve_for_matrix(spec: str, T) -> OrderingCurve:
    """Curve sized to the matrix: square side three times the operator norm."""
    from .core import operator_norm

    return parse_curve(spec, operator_norm(T))


class CurveSegment(Region):
    """The image of the cells visited up to index k under a curve.

    Membership of z is decided through the minimal preimage: z belongs to
    the segment when the first visit to z's cell comes at index k or
    earlier.  Points outside the curve domain are not in any segment.
    """

    def __init__(self, curve: OrderingCurve, k: int):
        self.curve = curve
        self.k = k

    def contains(self, z: complex) -> bool:
        try:
            return self.curve.min_preimage(complex(z)) <= self.k
        except CurveDomainError:
            return False

    def describe(self) -> str:
        t = self.k / (1 << (2 * self.curve.depth))
        return f"segment:{self.curve.spec_string()},t={t:.17g}"


def ordered_preimages(
    curve: OrderingCurve, locations
) -> tuple[list[tuple[int, int]], list[str]]:
    """Order distinct points by their minimal preimages.

    Returns the pairs (k, i) of `k = curve.min_preimage(locations[i])`,
    sorted by k and then i, for every point inside the curve domain, and the
    problems that keep the points from being ordered: one per point outside
    the domain, then one per pair of consecutive points sharing a cell.
    """
    problems: list[str] = []
    entries = []
    for i, z in enumerate(locations):
        try:
            entries.append((curve.min_preimage(z), i))
        except CurveDomainError as exc:
            problems.append(str(exc))
    entries.sort()
    for (k1, i1), (k2, i2) in zip(entries, entries[1:]):
        if k1 == k2:
            z1, z2 = locations[i1], locations[i2]
            problems.append(
                f"clusters at {z1} and {z2} share the parameter cell k={k1}"
            )
    return entries, problems
