import json
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg
from hypothesis import HealthCheck, example, given, settings, strategies as st

from specord.core import (
    Cluster,
    as_matrix,
    cluster_labels,
    cluster_tolerance,
    eigenvalue_matching_distance,
    fk_determinant,
    json_int,
    load_matrix,
    matrix_digest,
    matrix_from_dict,
    openblas_threads,
    operator_norm,
    matrix_json_bytes,
    save_matrix,
    schur_form,
    single_thread_blas,
    _G17_BLOCK,
    _bottleneck,
    _openblas_libraries,
    _g17_blocks,
    _reorder_by_keys,
)
from specord.ensembles import EnsembleSpec, sample


def reconstruct(form):
    """U R U* of a Schur form."""
    U, R = form.unitary, form.triangular
    return U @ R @ U.conj().T


def charpoly_roots(A):
    """Eigenvalue oracle via Faddeev-LeVerrier coefficients and companion roots."""
    A = np.asarray(A, dtype=complex)
    n = A.shape[0]
    coeffs = [1.0 + 0j]
    M = np.zeros_like(A)
    for k in range(1, n + 1):
        M = A @ M + coeffs[-1] * np.eye(n)
        coeffs.append(-np.trace(A @ M) / k)
    return np.roots(np.array(coeffs))


def test_as_matrix_rejects_bad_input():
    with pytest.raises(ValueError):
        as_matrix(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        as_matrix(np.array([[np.nan, 0], [0, 1]]))
    with pytest.raises(ValueError):
        as_matrix(np.zeros((0, 0)))


def test_schur_diagonal_input_passthrough():
    S = schur_form(np.diag([1.0, 2.0]).astype(complex))
    assert np.allclose(S.unitary, np.eye(2), atol=1e-12)
    assert np.allclose(S.triangular, np.diag([1.0, 2.0]), atol=1e-12)
    assert S.diag_order == (1.0 + 0j, 2.0 + 0j)


def test_schur_nilpotent_block_passthrough():
    J = np.array([[0, 1], [0, 0]], dtype=complex)
    S = schur_form(J)
    assert np.allclose(S.triangular, J, atol=1e-14)
    assert S.diag_order == (0j, 0j)


def test_schur_ginibre_against_charpoly_oracle():
    T = sample(EnsembleSpec("ginibre", 6, seed=7))
    S = schur_form(T)
    err = np.linalg.norm(reconstruct(S) - T) / np.linalg.norm(T)
    assert err <= 1e-10
    assert eigenvalue_matching_distance(S.diag_order, charpoly_roots(T)) <= 1e-8


def test_schur_invariants_over_seeded_matrices():
    rng = np.random.default_rng(0)
    for trial in range(1000):
        n = int(rng.integers(2, 33))
        T = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        S = schur_form(T)
        U, R = S.unitary, S.triangular
        assert np.linalg.norm(U.conj().T @ U - np.eye(n)) <= 1e-12 * n
        assert np.linalg.norm(np.tril(R, -1)) <= 1e-10 * np.linalg.norm(R)
        rel = np.linalg.norm(reconstruct(S) - T) / np.linalg.norm(T)
        assert rel <= 1e-10


def lex_keys(values, descending=False):
    """Integer keys ranking values by (real, imag); equal values share a key."""
    pts = [(float(z.real), float(z.imag)) for z in values]
    levels = sorted(set(pts), reverse=descending)
    return [levels.index(p) for p in pts]


def test_reorder_diagonal_permutation():
    S = schur_form(np.diag([2.0, 1.0]).astype(complex))
    out = _reorder_by_keys(S, lex_keys(S.diag_order))
    assert out.diag_order == (1.0 + 0j, 2.0 + 0j)
    assert np.allclose(reconstruct(out), np.diag([2.0, 1.0]), atol=1e-12)


def test_reorder_puts_requested_eigenvalue_first():
    # eigenvector oracle: the eigenvector of [[1,1],[0,2]] for 2 is (1,1)/sqrt(2)
    T = np.array([[1, 1], [0, 2]], dtype=complex)
    S = schur_form(T)
    out = _reorder_by_keys(S, lex_keys(S.diag_order, descending=True))
    assert abs(out.diag_order[0] - 2.0) < 1e-12
    v = out.unitary[:, 0]
    target = np.array([1.0, 1.0]) / np.sqrt(2.0)
    phase = v[0] / target[0]
    assert abs(abs(phase) - 1.0) < 1e-12
    assert np.allclose(v, phase * target, atol=1e-12)
    assert np.allclose(reconstruct(out), T, atol=1e-12)


def test_reorder_sorted_input_unchanged():
    T = np.triu(np.arange(9).reshape(3, 3) + 1).astype(complex)
    S = schur_form(T)
    out = _reorder_by_keys(S, lex_keys(S.diag_order))
    assert np.array_equal(out.triangular, S.triangular)
    assert np.array_equal(out.unitary, S.unitary)


def test_reorder_preserves_eigenvalue_multiset():
    rng = np.random.default_rng(5)
    for _ in range(200):
        n = int(rng.integers(2, 17))
        T = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        S = schur_form(T)
        out = _reorder_by_keys(S, lex_keys(S.diag_order))
        assert eigenvalue_matching_distance(out.diag_order, S.diag_order) <= 1e-8
        keys = [(z.real, z.imag) for z in out.diag_order]
        assert keys == sorted(keys)
        assert np.linalg.norm(reconstruct(out) - T) <= 1e-10 * max(
            1.0, np.linalg.norm(T)
        )


def test_reorder_leaves_input_and_permutes_diagonal_bits():
    T = sample(EnsembleSpec("ginibre", 24, seed=4))
    S = schur_form(T)
    # Fortran-ordered arrays, as scipy returns them: the layout in which an
    # in-place LAPACK update could write through to the caller's form
    S = replace(S, unitary=np.asfortranarray(S.unitary),
                triangular=np.asfortranarray(S.triangular))
    U0, R0 = S.unitary.copy(), S.triangular.copy()
    keys = [int(k) for k in np.random.default_rng(8).integers(0, 5, size=24)]
    perm = sorted(range(24), key=keys.__getitem__)
    for _ in range(2):
        out = _reorder_by_keys(S, keys)
        assert np.array_equal(S.unitary, U0)
        assert np.array_equal(S.triangular, R0)
        assert np.diag(out.triangular).tobytes() == np.diag(R0)[perm].tobytes()
        assert out.diag_order == tuple(np.diag(R0)[perm])
        assert np.linalg.norm(reconstruct(out) - T) <= 1e-13 * np.linalg.norm(T)


def insertion_sort_reorder(form, keys):
    """Reference: each entry moves to its slot in one ztrexc call on (R, U)."""
    R = np.array(form.triangular, dtype=np.complex128, order="F")
    U = np.array(form.unitary, dtype=np.complex128, order="F")
    order = sorted(range(len(keys)), key=keys.__getitem__)
    at = list(range(len(keys)))
    for p, idx in enumerate(order):
        q = at.index(idx, p)
        if q != p:
            R, U, info = scipy.linalg.lapack.ztrexc(R, U, q + 1, p + 1,
                                                    overwrite_a=1, overwrite_q=1)
            assert info == 0
            at.insert(p, at.pop(q))
    return R, U


@pytest.mark.parametrize("n", [1, 2, 40, 64, 65, 97, 160])
def test_reorder_matches_insertion_sort_oracle(n):
    # up to n = 64 the reorder is the insertion sort, bit for bit; beyond,
    # the windows give the same diagonal bits and errors of the same size
    T = sample(EnsembleSpec("ginibre", n, seed=n))
    S = schur_form(T)
    rng = np.random.default_rng(n)
    for keys in (list(rng.permutation(n)), [int(k) for k in rng.integers(0, 2, n)],
                 [int(k) for k in rng.integers(0, 6, n)], list(range(n))[::-1]):
        R0, U0 = insertion_sort_reorder(S, keys)
        out = _reorder_by_keys(S, keys)
        R, U = out.triangular, out.unitary
        assert np.diag(R).tobytes() == np.diag(R0).tobytes()
        assert not np.tril(R, -1).any()
        if n <= 64:
            assert R.tobytes() == R0.tobytes() and U.tobytes() == U0.tobytes()
            continue
        eye = np.eye(n)
        rec = np.linalg.norm(U @ R @ U.conj().T - T) / np.linalg.norm(T)
        rec0 = np.linalg.norm(U0 @ R0 @ U0.conj().T - T) / np.linalg.norm(T)
        assert rec <= 2 * rec0 + 1e-15
        orth, orth0 = (np.linalg.norm(V.conj().T @ V - eye) for V in (U, U0))
        assert orth <= 2 * orth0 + 1e-15
        # the same flag subspaces: the leading columns span the same range
        k = n // 2
        assert np.linalg.norm(U0[:, :k].conj().T @ U[:, k:]) <= 1e-10


def test_blocked_reorder_leaves_input_and_sorted_input_bits():
    n = 150
    T = sample(EnsembleSpec("ginibre", n, seed=3))
    S = schur_form(T)
    S = replace(S, unitary=np.asfortranarray(S.unitary),
                triangular=np.asfortranarray(S.triangular))
    U0, R0 = S.unitary.copy(), S.triangular.copy()
    keys = lex_keys(S.diag_order)
    out = _reorder_by_keys(S, keys)
    assert np.array_equal(S.unitary, U0) and np.array_equal(S.triangular, R0)
    again = _reorder_by_keys(out, lex_keys(out.diag_order))
    assert again.triangular.tobytes() == out.triangular.tobytes()
    assert again.unitary.tobytes() == out.unitary.tobytes()
    # a sorted prefix stays in place; only the windows below it move
    keys = [0] * 100 + [int(k) for k in np.random.default_rng(2).integers(1, 4, 50)]
    part = _reorder_by_keys(S, keys)
    assert part.unitary[:, :100].tobytes() == S.unitary[:, :100].tobytes()


def test_fk_determinant_examples():
    assert np.isclose(fk_determinant(np.diag([2.0, 8.0])), 4.0)
    assert fk_determinant(np.array([[0, 1], [0, 0]])) == 0.0
    # direct determinant arithmetic: |det|^(1/2) = sqrt(2), and the corner
    # split 1^(1/2) * 2^(1/2) agrees
    T = np.array([[1, 5], [0, 2]], dtype=complex)
    assert np.isclose(fk_determinant(T), np.sqrt(2.0), atol=1e-12)
    assert np.isclose(fk_determinant(T), 1.0 ** 0.5 * 2.0 ** 0.5, atol=1e-12)


def test_fk_determinant_multiplicative():
    rng = np.random.default_rng(11)
    for _ in range(50):
        n = int(rng.integers(2, 9))
        S = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        T = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        S += 3 * np.eye(n)
        T += 3 * np.eye(n)
        lhs = fk_determinant(S @ T)
        rhs = fk_determinant(S) * fk_determinant(T)
        assert abs(lhs - rhs) <= 1e-9 * max(lhs, rhs)


def test_cluster_points():
    pts = [1.0, 1.0 + 1e-10, 2.0, 2.0 + 1e-10, 5.0j]
    cl, _ = cluster_labels(pts, 1e-8)
    assert [c.multiplicity for c in cl] == [1, 2, 2]
    assert abs(cl[1].location - (1.0 + 5e-11)) < 1e-12


def test_cluster_labels_follow_components_not_locations():
    # 2.7 chains to 1.8 (0.9 apart) but lies nearer the singleton 3.75's
    # location (1.05) than its own component's mean 1.35
    pts = [0.0, 0.9, 1.8, 2.7, 3.75]
    clusters, labels = cluster_labels(pts, 1.0)
    assert [c.multiplicity for c in clusters] == [4, 1]
    assert labels == [0, 0, 0, 0, 1]
    for i, z in enumerate(pts):
        assert z in clusters[labels[i]].members


def brute_force_cluster_labels(values, tol):
    """The reference: union every pair i < j with abs(v_i - v_j) <= tol."""
    vals = [complex(v) for v in values]
    parent = list(range(len(vals)))

    def find(i):
        while parent[i] != i:
            i = parent[i]
        return i

    for i in range(len(vals)):
        for j in range(i + 1, len(vals)):
            if abs(vals[i] - vals[j]) <= tol:
                ri, rj = find(i), find(j)
                if ri != rj:
                    parent[ri] = rj
    groups = {}
    for i in range(len(vals)):
        groups.setdefault(find(i), []).append(i)
    components = list(groups.values())
    clusters = [Cluster(location=sum(vals[i] for i in g) / len(g),
                        members=tuple(vals[i] for i in g))
                for g in components]
    order = sorted(range(len(clusters)),
                   key=lambda c: (clusters[c].location.real, clusters[c].location.imag))
    labels = [0] * len(vals)
    for pos, c in enumerate(order):
        for i in components[c]:
            labels[i] = pos
    return [clusters[c] for c in order], labels


# lattice points of step tol/2 make ties, chains and pairs exactly tol apart;
# the offsets put pairs a rounding away from tol
_LATTICE = st.tuples(st.integers(-6, 6), st.integers(-6, 6),
                     st.sampled_from([0.0, 1e-17, -1e-17, 3e-9]))


@settings(max_examples=300, deadline=None)
@given(points=st.lists(_LATTICE, max_size=24),
       tol=st.sampled_from([0.5, 1e-8, 0.3, 0.0]),
       shift=st.sampled_from([0.0, 1.0, -1e8, 7e3]),
       repeats=st.lists(st.integers(0, 23), max_size=6))
def test_cluster_labels_match_brute_force_pairs(points, tol, shift, repeats):
    vals = [complex(shift + a * tol / 2 + e, b * tol / 2 - e) for a, b, e in points]
    vals += [vals[r % len(vals)] for r in repeats if vals]  # exact ties
    clusters, labels = cluster_labels(vals, tol)
    ref_clusters, ref_labels = brute_force_cluster_labels(vals, tol)
    assert labels == ref_labels
    assert [(c.location, c.members) for c in clusters] == [
        (c.location, c.members) for c in ref_clusters]


def test_matching_distance_fast_path_equals_bottleneck(monkeypatch):
    # when the nearest partners form a bijection the distance is read off
    # without `_bottleneck`; either way it is the same entry of `dist`
    calls = []

    def counted(dist):
        calls.append(1)
        return _bottleneck(dist)

    monkeypatch.setattr("specord.core._bottleneck", counted)
    rng = np.random.default_rng(5)
    cases = [
        ([0, 3, 10], [-1, 1, 10], True),  # row 0 ties; the first minimum serves
        ([0, 2], [1, 3], False),  # row 1 ties and takes row 0's partner
        ([1, 1, 2], [1, 2, 2], False),  # repeated values
        (np.arange(8), np.arange(8) + 0.5, False),  # every row ties
    ]
    for _ in range(200):
        a = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        b = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        cases += [(a, b, None), (a, rng.permutation(a) + 0.01 * b, True)]
    paths = set()
    for a, b, fast in cases:
        dist = np.abs(np.subtract.outer(np.asarray(a, complex), np.asarray(b, complex)))
        calls.clear()
        got = eigenvalue_matching_distance(a, b)
        assert got == _bottleneck(dist), (a, b)
        took_fast = not calls
        assert fast is None or took_fast == fast, (a, b)
        paths.add(took_fast)
    assert paths == {True, False}


def test_matrix_io_roundtrip(tmp_path):
    rng = np.random.default_rng(3)
    T = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    path = tmp_path / "m.json"
    save_matrix(T, path)
    back = load_matrix(path)
    assert np.array_equal(back, as_matrix(T))
    doc = json.loads(path.read_text())
    assert doc["n"] == 4 and len(doc["entries"]) == 16
    assert matrix_digest(back) == matrix_digest(T)


def test_matrix_io_keeps_negative_zero(tmp_path):
    # the writer puts -0.0 as `-0`, which json alone reads as the integer 0
    T = np.empty((2, 2), dtype=np.complex128)
    T.real = [[-0.0, 0.5], [0.0, 1.0]]
    T.imag = [[1.0, -0.0], [0.0, -0.25]]
    path = tmp_path / "m.json"
    save_matrix(T, path)
    assert b"[-0,1]" in path.read_bytes()
    back = load_matrix(path)
    assert np.array_equal(np.signbit(back.real), np.signbit(T.real))
    assert np.array_equal(np.signbit(back.imag), np.signbit(T.imag))
    assert matrix_json_bytes(back) == matrix_json_bytes(T)
    # other integer literals still read as ints, and -0.0 stays a float
    path.write_text('{"n":1,"entries":[[-0.0,3]]}')
    assert matrix_json_bytes(load_matrix(path)) == b'{"n":1,"entries":[[-0,3]]}'


def test_matrix_json_17_digits():
    T = np.array([[1.0 / 3.0]], dtype=complex)
    text = matrix_json_bytes(T).decode()
    assert "0.33333333333333331" in text


def per_entry_matrix_json_bytes(T) -> bytes:
    """Reference: the serialization written one f-string per entry."""
    T = as_matrix(T)
    n = T.shape[0]
    cells = ",".join(f"[{z.real:.17g},{z.imag:.17g}]" for z in T.ravel())
    return f'{{"n":{n},"entries":[{cells}]}}'.encode("ascii")


def _g17_text(values, seps) -> bytes:
    return b"".join(_g17_blocks(values, seps))


def percent_g17_text(values, seps) -> bytes:
    """Reference: `'%.17g' % v` for each value, the i-th followed by seps[i % len(seps)]."""
    text = "".join("%.17g" + sep.decode() for sep in seps) * (len(values) // len(seps))
    text += "".join("%.17g" + sep.decode() for sep in seps[:len(values) % len(seps)])
    return (text % tuple(np.asarray(values, dtype=np.float64).tolist())).encode("ascii")


def percent_matrix_json_bytes(T) -> bytes:
    """Reference: the serialization as one `%` over every entry."""
    T = as_matrix(T)
    n = T.shape[0]
    parts = T.ravel().view(np.float64).tolist()
    cells = ",".join(["[%.17g,%.17g]"] * (n * n)) % tuple(parts)
    return f'{{"n":{n},"entries":[{cells}]}}'.encode("ascii")


_FINITE = st.floats(allow_nan=False, allow_infinity=False, allow_subnormal=True)


@settings(max_examples=300, deadline=None)
@given(values=st.lists(_FINITE, max_size=40),
       bits=st.lists(st.integers(0, 2**64 - 1), max_size=40))
def test_g17_text_matches_percent_on_finite_floats(values, bits):
    patterns = np.array(bits, dtype=np.uint64).view(np.float64)
    x = np.concatenate([np.array(values, dtype=np.float64), patterns[np.isfinite(patterns)]])
    for seps in ((b",",), (b",", b"],["), (b",", b",", b"\n")):
        assert _g17_text(x, seps) == percent_g17_text(x, seps)


def _hard_cases() -> np.ndarray:
    """Zeros, extremes, powers of ten, ties and scaled integers."""
    cases = [0.0, 5e-324, np.nextafter(0.0, 1.0) * 3, 2.2250738585072014e-308,
             np.nextafter(2.2250738585072014e-308, 0.0), np.finfo(np.float64).max,
             9.9999999999999995e-05, 1e-4, 1e16, 1e17, 99999999999999984.0]
    for k in range(-323, 309):
        p = float(f"1e{k}")
        cases += [np.nextafter(p, 0.0), p, np.nextafter(p, np.inf)]
    halfway = 1.0 + np.arange(1, 2**12) * 2.0**-17  # 18 significant digits: exact ties
    ints = np.random.default_rng(5).integers(1, 2**53, 2000).astype(np.float64)
    x = np.concatenate([cases, halfway, halfway * 2.0**40, halfway * 2.0**-40,
                        *(ints * 2.0**e for e in range(-70, 71, 10))])
    return np.concatenate([x, -x])


def test_g17_text_matches_percent_on_hard_cases():
    x = _hard_cases()
    assert _g17_text(x, (b",",)) == percent_g17_text(x, (b",",))


@pytest.mark.parametrize("size", [_G17_BLOCK - 1, _G17_BLOCK, _G17_BLOCK + 1, 8191, 8192, 8193])
def test_g17_text_at_block_boundaries(size):
    rng = np.random.default_rng(size)
    x = rng.standard_normal(size) * 10.0 ** rng.integers(-8, 20, size)
    x[::97] = 0.0
    for seps in ((b",", b"],["), (b",", b",", b"\n"), (b",",) * 31 + (b"\n",)):
        assert _g17_text(x, seps) == percent_g17_text(x, seps)
    assert _g17_text(x[:0], (b",",)) == b""


def test_matrix_json_bytes_matches_percent_on_a_decomposition():
    from specord.curves import curve_for_matrix
    from specord.spectral import decompose

    T = sample(EnsembleSpec("ginibre", 64, seed=1))
    dec = decompose(T, curve_for_matrix("hilbert:depth=32", T))
    for M in (dec.T, dec.N, dec.Q, dec.table.unitary):
        assert matrix_json_bytes(M) == percent_matrix_json_bytes(M)


# edge values of the writer: signed zeros, subnormals, the ends of the range,
# integers, and values at 10^16 and 10^17, where %.17g turns to exponents
_SAVE_EDGES = np.array([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 1e308, -1e308,
                        np.finfo(np.float64).max, 1.0, -7.0, 123456789.0, 2.0**53,
                        1e16, np.nextafter(1e16, 0.0), 1e17, np.nextafter(1e17, np.inf),
                        -1e17, 0.1])


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(n=st.integers(1, 70), seed=st.integers(0, 2**32 - 1),
       edge_share=st.sampled_from([0.0, 0.5, 1.0]))
@example(n=46, seed=1, edge_share=0.5)
@example(n=70, seed=2, edge_share=1.0)
def test_save_matrix_streams_the_bytes_of_matrix_json_bytes(tmp_path, n, seed, edge_share):
    # n >= 46 has more than _G17_BLOCK values (2 n^2), so the file is
    # written in several blocks and only the last loses its separator
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(2 * n * n) * 10.0 ** rng.integers(-20, 20, 2 * n * n)
    edge = rng.random(2 * n * n) < edge_share
    x[edge] = rng.choice(_SAVE_EDGES, np.count_nonzero(edge))
    T = x.view(np.complex128).reshape(n, n)
    path = tmp_path / "m.json"
    save_matrix(T, path)
    text = matrix_json_bytes(T)
    assert path.read_bytes() == text + b"\n"
    assert text == percent_matrix_json_bytes(T)


def test_save_matrix_of_an_invalid_matrix_creates_no_file(tmp_path):
    with pytest.raises(ValueError):
        save_matrix(np.array([[1.0, np.inf], [0.0, 1.0]]), tmp_path / "m.json")
    assert not (tmp_path / "m.json").exists()


def test_save_matrix_writes_a_complex_row_major_matrix_without_a_copy(tmp_path):
    # the writer's own work is a fixed 4,096-value block at a time, so the
    # peak does not grow with n once n^2 exceeds a block; a validating copy
    # of T would add one n x n matrix (16 n^2 bytes) to it
    peaks = {}
    for n in (64, 128):
        T = sample(EnsembleSpec("ginibre", n, seed=1))
        save_matrix(T, tmp_path / "warm.json")  # the formatter's tables, built once
        tracemalloc.start()
        try:
            save_matrix(T, tmp_path / f"{n}.json")
            peaks[n] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (tmp_path / f"{n}.json").read_bytes() == matrix_json_bytes(T) + b"\n"
    assert peaks[128] - peaks[64] <= 0.25 * 16 * 128**2


def test_matrix_json_bytes_matches_per_entry_format_in_every_layout():
    vals = np.array([-0.0, 5e-324, 1e308, -1e-300, 0.1, 1.0, -3.0, 2.5e-7, -1e308])
    rng = np.random.default_rng(11)
    re = rng.choice(vals, (8, 8)) * rng.choice([-1.0, 1.0], (8, 8))
    im = rng.choice(vals, (8, 8)) * rng.choice([-1.0, 1.0], (8, 8))
    base = np.empty((8, 8), dtype=np.complex128)
    base.real, base.imag = re, im  # re + 1j * im would turn a real -0.0 into 0.0
    layouts = {
        "C-ordered": base,
        "Fortran-ordered": np.asfortranarray(base),
        "transposed view": base.T,
        "strided slice": base[::2, 1::2],
        "real float64": re,
        "1x1": np.array([[complex(-0.0, 5e-324)]]),
    }
    assert not as_matrix(layouts["Fortran-ordered"]).flags.c_contiguous
    for name, M in layouts.items():
        assert matrix_json_bytes(M) == per_entry_matrix_json_bytes(M), name
    assert matrix_json_bytes(np.array([[complex(1.0, -0.0)]])) == (
        b'{"n":1,"entries":[[1,-0]]}'
    )


def test_cluster_tolerance_scales_with_norm():
    assert cluster_tolerance(np.eye(2)) == 1e-8
    assert np.isclose(cluster_tolerance(10 * np.eye(2)), 1e-7)


def loop_matrix_from_dict(doc):
    """Reference: every entry type-checked and converted one at a time."""
    n = int(doc["n"])
    values = []
    for k, e in enumerate(doc["entries"]):
        if (type(e) is list and len(e) == 2
                and type(e[0]) in (int, float) and type(e[1]) in (int, float)):
            try:
                values.append(complex(e[0], e[1]))
                continue
            except OverflowError:
                pass
        raise ValueError(f"matrix entry {k} is not a pair of numbers: {e!r:.60}")
    return as_matrix(np.array(values, dtype=np.complex128).reshape(n, n))


_BIG = 2 ** 1024
_NUMBER = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.integers(-2 ** 70, 2 ** 70),
    st.sampled_from([0, -0.0, 0.0, json_int("-0"), 5e-324, 2 ** 53 + 1, -(2 ** 63) - 1,
                     10 ** 308, _BIG - 2 ** 970 - 1, _BIG - 2 ** 970, -_BIG, 10 ** 400]),
)
_PAIR = st.lists(_NUMBER, min_size=2, max_size=2)
_BAD_ENTRY = st.one_of(
    st.lists(st.one_of(_NUMBER, st.booleans()), min_size=2, max_size=2),
    st.lists(st.one_of(_NUMBER, st.text(max_size=2), st.none()), min_size=2, max_size=2),
    st.lists(_NUMBER, max_size=3).filter(lambda e: len(e) != 2),
    st.tuples(_NUMBER, _NUMBER),
    _NUMBER,
    st.booleans(),
)


@settings(max_examples=300, deadline=None)
@given(n=st.integers(1, 3), data=st.data())
def test_matrix_from_dict_matches_entry_loop(n, data):
    entries = data.draw(st.lists(_PAIR, min_size=n * n, max_size=n * n))
    for _ in range(data.draw(st.integers(0, 2))):
        entries[data.draw(st.integers(0, n * n - 1))] = data.draw(_BAD_ENTRY)
    doc = {"n": n, "entries": entries}
    try:
        want = loop_matrix_from_dict(doc)
    except ValueError as exc:
        with pytest.raises(ValueError) as got:
            matrix_from_dict(doc)
        assert str(got.value) == str(exc)
        return
    assert matrix_from_dict(doc).tobytes() == want.tobytes()


def test_single_thread_blas_nests_and_restores():
    before = openblas_threads()
    with single_thread_blas() as outer:
        assert outer == bool(before)
        with single_thread_blas() as inner:
            assert inner == outer
        # the inner exit leaves the outer block pinned
        assert set(openblas_threads().values()) <= {1}
        with pytest.raises(RuntimeError):
            with single_thread_blas():
                raise RuntimeError
        assert set(openblas_threads().values()) <= {1}
    assert openblas_threads() == before


def test_norm_and_schur_form_do_not_depend_on_blas_threads():
    # at n = 128 two OpenBLAS threads give other bits than one for the SVD
    # and the Schur form of these inputs (at n = 64 they do not), so both
    # must pin their own BLAS calls
    G = sample(EnsembleSpec("ginibre", 128, seed=1))
    E = sample(EnsembleSpec("elliptic", 128, seed=1, params=(("rho", 0.5),)))
    with single_thread_blas():
        want = schur_form(G), operator_norm(E)
    libs = _openblas_libraries()
    saved = [(put, int(get())) for _, get, put in libs]
    try:
        for _, _, put in libs:
            put(2)
        got = schur_form(G), operator_norm(E)
    finally:
        for put, count in saved:
            put(count)
    assert got[0].unitary.tobytes() == want[0].unitary.tobytes()
    assert got[0].triangular.tobytes() == want[0].triangular.tobytes()
    assert got[0].norm.hex() == want[0].norm.hex()
    assert got[1].hex() == want[1].hex()
