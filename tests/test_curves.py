import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import specord
from specord.curves import (
    CurveDomainError,
    _hilbert_index_to_xy,
    _hilbert_xy_to_index,
    CurveSegment,
    LexicographicCurve,
    param_to_bits,
    parse_curve,
)

KINDS = ("hilbert", "morton", "lex", "radial")


def make(kind, depth=32, radius=1.0):
    return parse_curve(f"{kind}:depth={depth}", radius)


def morton_oracle_k(x_bits: str, y_bits: str) -> int:
    """Independent interleave oracle: y bits at odd fractional positions."""
    out = ""
    for yb, xb in zip(y_bits, x_bits):
        out += yb + xb
    return int(out, 2)


def test_param_bits_roundtrip():
    k = 5 * 2**4  # t = 5/16 at 8 bits
    s = param_to_bits(k, 8)
    assert s == "0.01010000"
    assert int(s[2:], 2) == k
    with pytest.raises(ValueError):
        param_to_bits(2**8, 8)


def test_hilbert_starts_bottom_left_ends_bottom_right():
    c = make("hilbert", depth=6)
    z0 = c.eval(0)
    assert z0 == complex(-1.5, -1.5)
    z1 = c.eval(4**6 - 1)
    h = 3.0 / 2**6
    assert abs(z1.real - (1.5 - h)) < 1e-12 and abs(z1.imag + 1.5) < 1e-12


def test_hilbert_adjacent_parameters_adjacent_cells():
    c = make("hilbert", depth=5)
    for i in range(4**5 - 1):
        a = c.eval(i)
        b = c.eval(i + 1)
        d = abs(b - a)
        assert abs(d - 3.0 / 2**5) < 1e-12  # exactly one cell side apart


def test_hilbert_covers_all_cells():
    c = make("hilbert", depth=4)
    cells = {c.eval(i) for i in range(4**4)}
    assert len(cells) == 4**4


def hilbert_index_oracle(order: int, x: int, y: int) -> int:
    """The level-by-level walk that the nibble table replaced."""
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


def test_hilbert_index_matches_walk_on_small_orders():
    for order in range(1, 8):
        m = 1 << order
        for x in range(m):
            for y in range(m):
                d = _hilbert_xy_to_index(order, x, y)
                assert d == hilbert_index_oracle(order, x, y)
                assert _hilbert_index_to_xy(order, d) == (x, y)


def test_hilbert_index_matches_walk_at_order_32():
    m = 1 << 32
    rng = np.random.default_rng(5)
    pts = [(0, 0), (0, m - 1), (m - 1, 0), (m - 1, m - 1)]
    pts += [(int(x), int(y)) for x, y in rng.integers(0, m, size=(20000, 2))]
    for x, y in pts:
        assert _hilbert_xy_to_index(32, x, y) == hilbert_index_oracle(32, x, y)


def test_morton_example_against_interleave_oracle():
    c = make("morton")
    # t = .01 in binary -> unit square (1/2, 0) -> lower-left area of our square
    z = c.eval(4**31)
    assert z == complex(0.0, -1.5)
    assert c.min_preimage(complex(0.0, -1.5)) == 4**31
    assert c.min_preimage(z) == morton_oracle_k("1" + "0" * 31, "0" * 32)


def test_morton_random_points_match_oracle():
    c = make("morton", depth=10)
    rng = np.random.default_rng(0)
    for _ in range(200):
        ix = int(rng.integers(0, 2**10))
        iy = int(rng.integers(0, 2**10))
        h = 3.0 / 2**10
        z = complex(-1.5 + (ix + 0.5) * h, -1.5 + (iy + 0.5) * h)
        want = morton_oracle_k(format(ix, "010b"), format(iy, "010b"))
        assert c.min_preimage(z) == want


def test_morton_cell_parameter_mass_is_exact():
    # the parameter mass of a level-d cell is exactly 4^(-d): 4^(6-d) indices
    c = make("morton", depth=6)
    rng = np.random.default_rng(1)
    for _ in range(20):
        d = int(rng.integers(1, 5))
        ix = int(rng.integers(0, 2**d))
        iy = int(rng.integers(0, 2**d))
        scale = 2 ** (6 - d)
        params = [
            c.min_preimage(
                complex(
                    -1.5 + (ix * scale + sx + 0.5) * 3.0 / 2**6,
                    -1.5 + (iy * scale + sy + 0.5) * 3.0 / 2**6,
                )
            )
            for sx in range(scale)
            for sy in range(scale)
        ]
        lo = min(params)
        assert max(params) - lo < 4 ** (6 - d)
        assert 0 <= lo < 4**6
        assert len(set(params)) == 4 ** (6 - d)


def test_lexicographic_conventions():
    c = make("lex", depth=8, radius=2.0)
    assert c.eval(0) == complex(-3.0, -3.0)
    assert c.compare(1 + 0j, 2 + 0j) == -1
    # x-major: any increase in the x cell dominates y
    assert c.compare(complex(-1.0, 2.9), complex(1.0, -2.9)) == -1


def test_radial_orders_by_modulus_then_angle():
    c = make("radial", depth=16)
    assert c.eval(0) == 0j
    assert c.compare(0.2 + 0j, 0.5 + 0j) == -1
    assert c.compare(0.5 + 0j, -0.5 + 0j) == -1  # same ring, smaller angle first
    with pytest.raises(CurveDomainError):
        c.min_preimage(1.2 + 0j)  # outside the closed unit ball


def test_curve_eval_rejects_bad_parameters():
    c = make("hilbert", depth=4)
    with pytest.raises((CurveDomainError, ValueError)):
        c.eval(-(4**3))  # t = -1/4
    with pytest.raises(CurveDomainError):
        c.eval(4**4)  # one past the last cell


def test_min_preimage_outside_square_rejected():
    c = make("hilbert")
    with pytest.raises(CurveDomainError):
        c.min_preimage(complex(2.0, 0.0))


def test_compare_total_preorder_on_random_triples():
    rng = np.random.default_rng(7)
    for kind in KINDS:
        c = make(kind, depth=20)
        pts = rng.uniform(-0.7, 0.7, size=(300, 2))
        zs = [complex(x, y) for x, y in pts]
        for _ in range(2500):
            i, j, k = rng.integers(0, len(zs), size=3)
            a, b, d = zs[i], zs[j], zs[k]
            assert c.compare(a, b) == -c.compare(b, a)
            if c.compare(a, b) <= 0 and c.compare(b, d) <= 0:
                assert c.compare(a, d) <= 0


def test_strict_comparisons_stable_under_refinement():
    rng = np.random.default_rng(8)
    for kind in KINDS:
        shallow = make(kind, depth=16)
        deep = make(kind, depth=24)
        pts = rng.uniform(-0.7, 0.7, size=(200, 2))
        zs = [complex(x, y) for x, y in pts]
        for i in range(0, 200, 2):
            a, b = zs[i], zs[i + 1]
            c16 = shallow.compare(a, b)
            if c16 != 0:
                assert deep.compare(a, b) == c16


def test_min_preimage_refines_by_truncation():
    # interleaved curves refine hierarchically: the deep parameter lives in
    # the shallow parameter's cell interval
    rng = np.random.default_rng(9)
    for kind in ("hilbert", "morton", "radial"):
        shallow = make(kind, depth=12)
        deep = make(kind, depth=20)
        for _ in range(100):
            z = complex(rng.uniform(-0.7, 0.7), rng.uniform(-0.7, 0.7))
            ks = shallow.min_preimage(z)
            kd = deep.min_preimage(z)
            assert ks * 4**8 <= kd < (ks + 1) * 4**8


def test_lex_refines_in_the_major_coordinate():
    # the column sweep re-scales its minor part under refinement, but the
    # major (x) cell index is a prefix of the refined one
    rng = np.random.default_rng(9)
    shallow = make("lex", depth=12)
    deep = make("lex", depth=20)
    for _ in range(100):
        z = complex(rng.uniform(-0.7, 0.7), rng.uniform(-0.7, 0.7))
        ks = shallow.min_preimage(z)
        kd = deep.min_preimage(z)
        assert ks >> 12 == kd >> 28  # t * 2^12 truncated


def test_hilbert_holder_locality():
    c = make("hilbert", depth=16)
    side = c.square.side
    rng = np.random.default_rng(10)
    bits = 2 * 16
    for _ in range(10**4):
        n1 = int(rng.integers(0, 1 << bits))
        n2 = int(rng.integers(0, 1 << bits))
        lhs = abs(c.eval(n1) - c.eval(n2))
        assert lhs <= 4.0 * side * (abs(n1 - n2) / (1 << bits)) ** 0.5 + 1e-12


def test_distinct_points_get_distinct_parameters():
    c = make("hilbert")
    assert c.min_preimage(0.25 + 0.1j) != c.min_preimage(-0.3 + 0.6j)
    assert c.compare(0.25 + 0.1j, 0.25 + 0.1j) == 0


def test_curve_segment_region():
    c = make("lex", radius=2.0)
    k1 = c.min_preimage(1 + 0j)
    seg = CurveSegment(c, k1)
    assert seg.contains(1 + 0j)
    assert not seg.contains(2 + 0j)
    half = CurveSegment(c, k1 - 1)  # the half-open segment [0, k1)
    assert not half.contains(1 + 0j)
    assert not seg.contains(100 + 0j)  # outside the domain square


def test_parse_curve_errors():
    with pytest.raises(ValueError):
        parse_curve("spiral", 1.0)
    with pytest.raises(ValueError):
        parse_curve("hilbert:width=3", 1.0)
    c = parse_curve("lexicographic:depth=8", 1.0)
    assert isinstance(c, LexicographicCurve) and c.depth == 8


def test_library_does_not_import_fractions():
    # parameters are integer cell indices; numpy and scipy alone leave
    # `fractions` unimported, so its presence would come from specord
    src = str(Path(specord.__file__).resolve().parent.parent)
    code = "import sys, specord; print('fractions' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "False"
