"""Measurable orderings of the plane via parameterized curves.

Each curve maps the dyadic parameters of [0,1] onto a grid of 4^depth cells
and induces a total preorder on points: z1 precedes z2 when the smallest
parameter hitting z1's cell is smaller than the one hitting z2's.  Parameters
are exact dyadic rationals (`fractions.Fraction` with power-of-two
denominator); no floating point enters the parameter arithmetic.

Conventions, fixed once and for all:

* Hilbert: starts at the bottom-left corner of the square and ends at the
  bottom-right corner; continuous (consecutive parameters land in edge
  adjacent cells).
* Morton: bit interleaving with the y bits at the odd fractional positions
  of t and the x bits at the even positions, so t = .01 lands at the
  unit-square point (1/2, 0).
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
from dataclasses import dataclass, field
from fractions import Fraction

from .regions import Region, Square, ambient_square


class CurveDomainError(ValueError):
    """Query point or parameter outside the curve's domain."""


# ---------------------------------------------------------------------------
# dyadic parameter helpers

def param_to_bits(t: Fraction, bits: int) -> str:
    """Exact binary expansion '0.b1b2...' of a dyadic t in [0,1] using `bits` digits."""
    if t < 0 or t > 1:
        raise ValueError("parameter out of [0,1]")
    if t == 1:
        return "1."
    num = t.numerator * (1 << bits)
    if num % t.denominator:
        raise ValueError(f"{t} is not dyadic at {bits} bits")
    return "0." + format(num // t.denominator, f"0{bits}b")


def bits_to_param(s: str) -> Fraction:
    """Inverse of `param_to_bits`."""
    s = s.strip()
    if s in ("1", "1.", "1.0"):
        return Fraction(1)
    if not s.startswith("0."):
        raise ValueError(f"expected '0.<bits>' or '1.', got {s!r}")
    frac_bits = s[2:] or "0"
    if any(c not in "01" for c in frac_bits):
        raise ValueError(f"non-binary digit in {s!r}")
    return Fraction(int(frac_bits, 2), 1 << len(frac_bits))


def _param_to_index(t: Fraction, depth: int) -> int:
    """Map a dyadic t with at most 2*depth bits to its cell-visit index."""
    scale = 1 << (2 * depth)
    num = t.numerator * scale
    if num % t.denominator:
        raise CurveDomainError(
            f"parameter {t} needs more than {2 * depth} fractional bits"
        )
    i = num // t.denominator
    if not 0 <= i <= scale:
        raise CurveDomainError(f"parameter {t} outside [0,1]")
    return min(i, scale - 1)  # t = 1 falls in the final cell


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


def _hilbert_xy_to_index(order: int, x: int, y: int) -> int:
    d = 0
    s = (1 << order) >> 1
    while s > 0:
        rx = 1 if (x & s) > 0 else 0
        ry = 1 if (y & s) > 0 else 0
        d += s * s * ((3 * rx) ^ ry)
        if ry == 0:
            if rx == 1:
                x = s - 1 - x
                y = s - 1 - y
            x, y = y, x
        s >>= 1
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

    def eval(self, t: Fraction) -> complex:
        """Point visited at parameter t (anchor corner of the cell)."""
        i = _param_to_index(Fraction(t), self.depth)
        ix, iy = self._index_to_cell(i)
        return self._cell_anchor(ix, iy)

    def min_preimage(self, z: complex) -> Fraction:
        """Smallest parameter whose cell contains z, as an exact dyadic."""
        ix, iy = self._quantize(complex(z))
        return Fraction(self._cell_to_index(ix, iy), 1 << (2 * self.depth))

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

    def eval(self, t: Fraction) -> complex:
        i = _param_to_index(Fraction(t), self.depth)
        ri, ti = _deinterleave(i, self.depth)
        m = 1 << self.depth
        r = self.radius * ri / m
        ang = 2.0 * math.pi * ti / m
        return complex(r * math.cos(ang), r * math.sin(ang))

    def min_preimage(self, z: complex) -> Fraction:
        ri, ti = self._polar_quantize(complex(z))
        return Fraction(_interleave(ri, ti, self.depth), 1 << (2 * self.depth))


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
    """The image of [0, t] (or [0, t) when not inclusive) under a curve.

    Membership of z is decided through the minimal preimage: z belongs to
    the segment when the first parameter hitting z's cell is at most t.
    Points outside the curve domain are not in any segment.
    """

    def __init__(self, curve: OrderingCurve, t, inclusive: bool = True):
        self.curve = curve
        self.t = Fraction(t)
        self.inclusive = inclusive

    def contains(self, z: complex) -> bool:
        try:
            tm = self.curve.min_preimage(complex(z))
        except CurveDomainError:
            return False
        return tm <= self.t if self.inclusive else tm < self.t

    def describe(self) -> str:
        tag = "segment" if self.inclusive else "segment<"
        return f"{tag}:{self.curve.spec_string()},t={float(self.t):.17g}"


def segment_region(curve: OrderingCurve, t, inclusive: bool = True) -> CurveSegment:
    return CurveSegment(curve, t, inclusive)


@dataclass(frozen=True)
class CurveReport:
    """Outcome of validating a spectrum against a curve."""

    valid: bool
    locations: tuple[complex, ...]          # cluster representatives, curve order
    params: tuple[Fraction, ...]            # their minimal preimages, sorted
    problems: tuple[str, ...] = field(default_factory=tuple)


def curve_validate(curve: OrderingCurve, spectrum, tol: float = 0.0) -> CurveReport:
    """Check that every spectral point is ordered by the curve.

    Points within `tol` of each other are merged into one cluster first.
    Validation fails when a point falls outside the curve domain or two
    distinct clusters share a parameter cell.
    """
    from .core import cluster_points

    pts = [complex(z) for z in spectrum]
    if not pts:
        return CurveReport(valid=True, locations=(), params=())
    clusters = cluster_points(pts, tol)
    problems: list[str] = []
    entries = []
    for c in clusters:
        try:
            t = curve.min_preimage(c.location)
        except CurveDomainError as exc:
            problems.append(str(exc))
            continue
        entries.append((t, c.location))
    entries.sort(key=lambda e: e[0])
    for (t1, z1), (t2, z2) in zip(entries, entries[1:]):
        if t1 == t2:
            problems.append(
                f"clusters at {z1} and {z2} share the parameter cell at t={t1}"
            )
    return CurveReport(
        valid=not problems,
        locations=tuple(z for _, z in entries),
        params=tuple(t for t, _ in entries),
        problems=tuple(problems),
    )
