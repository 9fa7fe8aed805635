"""Planar Borel regions with decidable membership.

Regions are built from closed disks, closed half-planes, and unions of
half-open dyadic grid cells, combined with &, | and ~.  Every region knows
how to answer membership for a single point; boundary ties are resolved by
fixed half-open conventions so membership is deterministic:

* dyadic cells contain their top and left edges (hence the top-left corner)
  and exclude the bottom-left and top-right corners,
* disks and half-planes are closed.

Cells at level n split the ambient square into 2^n x 2^n congruent squares,
indexed k = 1..4^n increasing to the right and then downward (k = 1 is the
top-left cell).
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class Square:
    """Axis-aligned square, described by its center and side length."""

    cx: float
    cy: float
    side: float

    @property
    def x0(self) -> float:
        return self.cx - self.side / 2.0

    @property
    def x1(self) -> float:
        return self.cx + self.side / 2.0

    @property
    def y0(self) -> float:
        return self.cy - self.side / 2.0

    @property
    def y1(self) -> float:
        return self.cy + self.side / 2.0

    def contains(self, z: complex) -> bool:
        """Closed-square membership."""
        return self.x0 <= z.real <= self.x1 and self.y0 <= z.imag <= self.y1


def ambient_square(radius: float) -> Square:
    """The working square of side 3*radius centered at the origin.

    A zero radius (zero matrix) falls back to side 3 so the square is
    never degenerate.
    """
    if radius < 0.0:
        raise ValueError("radius must be nonnegative")
    r = radius if radius > 0.0 else 1.0
    return Square(0.0, 0.0, 3.0 * r)


def cell_box(square: Square, level: int, k: int) -> tuple[float, float, float, float]:
    """(x0, x1, y0, y1) of cell k at the given level; membership is
    x in [x0, x1) and y in (y0, y1]."""
    if level < 0:
        raise ValueError("level must be >= 0")
    m = 1 << level
    if not 1 <= k <= m * m:
        raise ValueError(f"cell index {k} out of range for level {level}")
    row, col = divmod(k - 1, m)
    h = square.side / m
    x0 = square.x0 + col * h
    y1 = square.y1 - row * h
    return x0, x0 + h, y1 - h, y1


def cell_contains(box: tuple[float, float, float, float], z: complex) -> bool:
    x0, x1, y0, y1 = box
    return x0 <= z.real < x1 and y0 < z.imag <= y1


def locate_cell(square: Square, level: int, z: complex) -> int | None:
    """Index of the unique level cell containing z, or None.

    The arithmetic candidate from floor division is corrected against the
    half-open membership rule, so points lying exactly on shared edges are
    assigned consistently with `cell_contains`.  The candidate is tested
    first with `cell_box`'s float operations written out; the 3x3
    neighbourhood is searched only when it misses.
    """
    m = 1 << level
    h = square.side / m
    col = int(math.floor((z.real - square.x0) / h)) if h > 0 else 0
    row = int(math.floor((square.y1 - z.imag) / h)) if h > 0 else 0
    if 0 <= row < m and 0 <= col < m:
        x0 = square.x0 + col * h
        y1 = square.y1 - row * h
        if x0 <= z.real < x0 + h and y1 - h < z.imag <= y1:
            return row * m + col + 1
    for r in (row, row - 1, row + 1):
        for c in (col, col - 1, col + 1):
            if 0 <= r < m and 0 <= c < m:
                k = r * m + c + 1
                if cell_contains(cell_box(square, level, k), z):
                    return k
    return None


class AmbiguousRegionError(ValueError):
    """A spectral cluster straddles the region boundary undecidably."""


class Region:
    """Base class; combine with &, | and ~."""

    def contains(self, z: complex) -> bool:
        raise NotImplementedError

    def describe(self) -> str:
        raise NotImplementedError

    def __and__(self, other: "Region") -> "Region":
        return _And(self, other)

    def __or__(self, other: "Region") -> "Region":
        return _Or(self, other)

    def __invert__(self) -> "Region":
        return _Not(self)

    def __repr__(self) -> str:
        return f"Region({self.describe()})"


class Disk(Region):
    def __init__(self, center: complex, radius: float):
        if radius < 0:
            raise ValueError("radius must be nonnegative")
        self.center = complex(center)
        self.radius = float(radius)

    def contains(self, z: complex) -> bool:
        return abs(z - self.center) <= self.radius

    def describe(self) -> str:
        return f"disk:{self.center.real:.17g},{self.center.imag:.17g},{self.radius:.17g}"


class HalfPlane(Region):
    """Closed half-plane a*x + b*y <= c."""

    def __init__(self, a: float, b: float, c: float):
        if a == 0.0 and b == 0.0:
            raise ValueError("half-plane normal must be nonzero")
        self.a, self.b, self.c = float(a), float(b), float(c)

    def contains(self, z: complex) -> bool:
        return self.a * z.real + self.b * z.imag <= self.c

    def describe(self) -> str:
        return f"halfplane:{self.a:.17g},{self.b:.17g},{self.c:.17g}"


class CellUnion(Region):
    """Union of half-open dyadic cells of one level of the ambient square."""

    def __init__(self, square: Square, level: int, cells):
        self.square = square
        self.level = int(level)
        m = 1 << self.level
        ks = frozenset(int(k) for k in cells)
        for k in ks:
            if not 1 <= k <= m * m:
                raise ValueError(f"cell index {k} out of range for level {level}")
        self.cells = ks

    def contains(self, z: complex) -> bool:
        k = locate_cell(self.square, self.level, z)
        return k is not None and k in self.cells

    def describe(self) -> str:
        ks = ",".join(str(k) for k in sorted(self.cells))
        return f"cells:n={self.level},k={ks}"


class FullPlane(Region):
    def contains(self, z: complex) -> bool:
        return True

    def describe(self) -> str:
        return "all"


class EmptyRegion(Region):
    def contains(self, z: complex) -> bool:
        return False

    def describe(self) -> str:
        return "none"


class _And(Region):
    def __init__(self, left, right):
        self.left, self.right = left, right

    def contains(self, z: complex) -> bool:
        return self.left.contains(z) and self.right.contains(z)

    def describe(self) -> str:
        return f"{self.left.describe()}&{self.right.describe()}"


class _Or(Region):
    def __init__(self, left, right):
        self.left, self.right = left, right

    def contains(self, z: complex) -> bool:
        return self.left.contains(z) or self.right.contains(z)

    def describe(self) -> str:
        return f"{self.left.describe()}|{self.right.describe()}"


class _Not(Region):
    def __init__(self, inner):
        self.inner = inner

    def contains(self, z: complex) -> bool:
        return not self.inner.contains(z)

    def describe(self) -> str:
        return f"!{self.inner.describe()}"


def disk(cx: float, cy: float, r: float) -> Region:
    return Disk(complex(cx, cy), r)


def halfplane(a: float, b: float, c: float) -> Region:
    return HalfPlane(a, b, c)


def decide_cluster(region: Region, members) -> bool:
    """Unanimous membership of a cluster's member eigenvalues.

    Raises AmbiguousRegionError when the members do not agree, i.e. the
    cluster straddles the boundary within numerical resolution.
    """
    votes = [region.contains(complex(m)) for m in members]
    if all(votes):
        return True
    if not any(votes):
        return False
    raise AmbiguousRegionError(
        f"cluster straddles region boundary at {members[0]}: "
        f"{sum(votes)} of {len(votes)} members inside"
    )


# ---------------------------------------------------------------------------
# spec-string parsing: "disk:cx,cy,r", "halfplane:a,b,c", "cells:n=3,k=1,5,9",
# "all", "none", combined with  &  |  and prefix !

def parse_region(spec: str, square: Square) -> Region:
    spec = spec.strip()
    if "|" in spec:
        parts = spec.split("|")
        out = parse_region(parts[0], square)
        for p in parts[1:]:
            out = out | parse_region(p, square)
        return out
    if "&" in spec:
        parts = spec.split("&")
        out = parse_region(parts[0], square)
        for p in parts[1:]:
            out = out & parse_region(p, square)
        return out
    if spec.startswith("!"):
        return ~parse_region(spec[1:], square)
    return _parse_atom(spec, square)


def _parse_atom(spec: str, square: Square) -> Region:
    if spec == "all":
        return FullPlane()
    if spec == "none":
        return EmptyRegion()
    kind, _, rest = spec.partition(":")
    if kind == "disk":
        cx, cy, r = (float(v) for v in rest.split(","))
        return disk(cx, cy, r)
    if kind == "halfplane":
        a, b, c = (float(v) for v in rest.split(","))
        return halfplane(a, b, c)
    if kind == "cells":
        level = None
        ks: list[int] = []
        fields = rest.split(",")
        i = 0
        while i < len(fields):
            f = fields[i]
            if f.startswith("n="):
                level = int(f[2:])
            elif f.startswith("k="):
                ks.append(int(f[2:]))
            else:
                ks.append(int(f))
            i += 1
        if level is None:
            raise ValueError(f"cells region needs n=<level>: {spec!r}")
        return CellUnion(square, level, ks)
    raise ValueError(f"unrecognized region spec {spec!r}")
