import numpy as np
import pytest

from specord.regions import (
    AmbiguousRegionError,
    CellUnion,
    EmptyRegion,
    FullPlane,
    Square,
    ambient_square,
    cell_box,
    cell_contains,
    decide_cluster,
    disk,
    halfplane,
    locate_cell,
    parse_region,
)

SQ = Square(0.0, 0.0, 3.0)


def test_ambient_square():
    sq = ambient_square(2.0)
    assert sq.side == 6.0 and sq.contains(2.0 + 0j)
    assert ambient_square(0.0).side == 3.0  # zero norm falls back
    with pytest.raises(ValueError):
        ambient_square(-1.0)


def test_cell_indexing_top_left_first():
    # level 1: cell 1 is the top-left quarter
    x0, x1, y0, y1 = cell_box(SQ, 1, 1)
    assert (x0, x1, y0, y1) == (-1.5, 0.0, 0.0, 1.5)
    # k increases to the right then down
    assert cell_box(SQ, 1, 2)[0] == 0.0
    assert cell_box(SQ, 1, 3)[3] == 0.0
    assert cell_box(SQ, 1, 4) == (0.0, 1.5, -1.5, 0.0)
    with pytest.raises(ValueError):
        cell_box(SQ, 1, 5)


def test_half_open_membership():
    box = cell_box(SQ, 1, 1)  # [-1.5, 0) x (0, 1.5]
    assert cell_contains(box, complex(-1.5, 1.5))   # top-left corner in
    assert not cell_contains(box, complex(0.0, 1.5))  # top-right corner out
    assert not cell_contains(box, complex(-1.5, 0.0))  # bottom-left corner out
    assert cell_contains(box, complex(-1.0, 1.5))   # top edge in
    assert cell_contains(box, complex(-1.5, 1.0))   # left edge in
    assert not cell_contains(box, complex(-1.0, 0.0))  # bottom edge out


def test_shared_edges_belong_to_exactly_one_cell():
    rng = np.random.default_rng(0)
    level = 2
    m = 1 << level
    h = SQ.side / m
    pts = []
    for i in range(1, m):
        # interior grid lines, both orientations
        pts.append(complex(SQ.x0 + i * h, rng.uniform(-1.4, 1.4)))
        pts.append(complex(rng.uniform(-1.4, 1.4), SQ.y0 + i * h))
        pts.append(complex(SQ.x0 + i * h, SQ.y0 + i * h))  # interior corner
    for z in pts:
        owners = [
            k for k in range(1, m * m + 1) if cell_contains(cell_box(SQ, level, k), z)
        ]
        assert len(owners) == 1
        assert locate_cell(SQ, level, z) == owners[0]


def test_locate_cell_interior_points():
    rng = np.random.default_rng(1)
    for _ in range(500):
        z = complex(rng.uniform(-1.49, 1.49), rng.uniform(-1.49, 1.49))
        k = locate_cell(SQ, 3, z)
        assert k is not None
        assert cell_contains(cell_box(SQ, 3, k), z)


def locate_cell_oracle(square, level, z):
    """The 3x3 search around the arithmetic candidate, without a fast path."""
    m = 1 << level
    h = square.side / m
    col = int(np.floor((z.real - square.x0) / h))
    row = int(np.floor((square.y1 - z.imag) / h))
    for r in (row, row - 1, row + 1):
        for c in (col, col - 1, col + 1):
            if 0 <= r < m and 0 <= c < m:
                k = r * m + c + 1
                if cell_contains(cell_box(square, level, k), z):
                    return k
    return None


@pytest.mark.parametrize("square", [SQ, Square(0.3, -0.7, 0.1), Square(0.0, 0.0, 6e-7)])
def test_locate_cell_matches_search_on_edges_corners_and_outside(square):
    rng = np.random.default_rng(2)
    for level in (0, 1, 3, 7):
        m = 1 << level
        h = square.side / m
        xs = [square.x0 + i * h for i in range(m + 1)]
        ys = [square.y0 + i * h for i in range(m + 1)]
        pts = [complex(x, y) for x in xs for y in ys]               # corners
        pts += [complex(x, rng.uniform(square.y0, square.y1)) for x in xs]
        pts += [complex(rng.uniform(square.x0, square.x1), y) for y in ys]
        pts += [complex(np.nextafter(x, d), np.nextafter(y, e))       # one ulp off
                for x in xs[:3] for y in ys[-3:] for d in (-1e9, 1e9) for e in (-1e9, 1e9)]
        pts += [complex(*rng.uniform(-2.0 * square.side, 2.0 * square.side, 2))
                for _ in range(200)]                                  # mostly outside
        for z in pts:
            assert locate_cell(square, level, z) == locate_cell_oracle(square, level, z)


def test_region_combinators():
    d = disk(0, 0, 1)
    h = halfplane(1, 0, 0)  # x <= 0
    assert d.contains(1 + 0j)          # closed disk boundary
    assert (d & h).contains(-0.5 + 0j)
    assert not (d & h).contains(0.5 + 0j)
    assert (d | h).contains(-2 + 0j)
    assert (~d).contains(2 + 0j)
    assert not (~d).contains(0j)
    assert FullPlane().contains(5 + 5j)
    assert not EmptyRegion().contains(0j)


def test_cell_union_region():
    cu = CellUnion(SQ, 1, {1, 4})
    assert cu.contains(complex(-1.0, 1.0))
    assert cu.contains(complex(1.0, -1.0))
    assert not cu.contains(complex(1.0, 1.0))
    with pytest.raises(ValueError):
        CellUnion(SQ, 1, {9})


def test_parse_region_strings():
    sq = SQ
    r = parse_region("disk:0,0,1", sq)
    assert r.contains(0.5 + 0j) and not r.contains(1.5 + 0j)
    r = parse_region("halfplane:1,0,0", sq)
    assert r.contains(-1 + 0j) and not r.contains(1 + 0j)
    r = parse_region("cells:n=1,k=1,4", sq)
    assert r.contains(complex(-1.0, 1.0)) and not r.contains(complex(1.0, 1.0))
    r = parse_region("disk:0,0,1&!disk:0,0,0.5", sq)
    assert r.contains(0.75 + 0j) and not r.contains(0j)
    r = parse_region("disk:-1,0,0.2|disk:1,0,0.2", sq)
    assert r.contains(-1 + 0j) and r.contains(1 + 0j) and not r.contains(0j)
    with pytest.raises(ValueError):
        parse_region("blob:1,2", sq)
    with pytest.raises(ValueError):
        parse_region("cells:k=1", sq)


def test_decide_cluster():
    d = disk(0, 0, 1)
    assert decide_cluster(d, [0.5 + 0j, 0.5 + 1e-12j])
    assert not decide_cluster(d, [2 + 0j])
    with pytest.raises(AmbiguousRegionError):
        decide_cluster(d, [0.9999 + 0j, 1.0001 + 0j])
