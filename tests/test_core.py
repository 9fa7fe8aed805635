import json

import numpy as np
import pytest

from specord.core import (
    as_matrix,
    cluster_labels,
    cluster_points,
    cluster_tolerance,
    eigenvalue_matching_distance,
    fk_determinant,
    load_matrix,
    matrix_digest,
    matrix_json_bytes,
    normalized_trace,
    operator_norm,
    power_growth,
    save_matrix,
    SchurForm,
    schur_form,
    _bottleneck,
    _reorder_by_keys,
)
from specord.ensembles import EnsembleSpec, sample


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
    err = np.linalg.norm(S.reconstruct() - T) / np.linalg.norm(T)
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
        rel = np.linalg.norm(S.reconstruct() - T) / np.linalg.norm(T)
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
    assert np.allclose(out.reconstruct(), np.diag([2.0, 1.0]), atol=1e-12)


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
    assert np.allclose(out.reconstruct(), T, atol=1e-12)


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
        assert np.linalg.norm(out.reconstruct() - T) <= 1e-10 * max(
            1.0, np.linalg.norm(T)
        )


def test_reorder_leaves_input_and_permutes_diagonal_bits():
    T = sample(EnsembleSpec("ginibre", 24, seed=4))
    S = schur_form(T)
    # Fortran-ordered arrays, as scipy returns them: the layout in which an
    # in-place LAPACK update could write through to the caller's form
    S = SchurForm(
        unitary=np.asfortranarray(S.unitary),
        triangular=np.asfortranarray(S.triangular),
        diag_order=S.diag_order,
    )
    U0, R0 = S.unitary.copy(), S.triangular.copy()
    keys = [int(k) for k in np.random.default_rng(8).integers(0, 5, size=24)]
    perm = sorted(range(24), key=keys.__getitem__)
    for _ in range(2):
        out = _reorder_by_keys(S, keys)
        assert np.array_equal(S.unitary, U0)
        assert np.array_equal(S.triangular, R0)
        assert np.diag(out.triangular).tobytes() == np.diag(R0)[perm].tobytes()
        assert out.diag_order == tuple(np.diag(R0)[perm])
        assert np.linalg.norm(out.reconstruct() - T) <= 1e-13 * np.linalg.norm(T)


def test_normalized_trace():
    assert normalized_trace(np.eye(3)) == 1.0
    assert normalized_trace(np.diag([1.0, 2.0])) == 1.5
    P = np.diag([1.0, 1.0, 0.0, 0.0])  # rank-2 projection in dimension 4
    assert normalized_trace(P) == 0.5


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


def test_power_growth_examples():
    J3 = np.diag(np.ones(2), 1).astype(complex)
    seq = power_growth(J3, 3)
    assert seq[-1] == 0.0
    # unitary input: all entries 1
    rng = np.random.default_rng(2)
    G = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    U, _ = np.linalg.qr(G)
    assert np.allclose(power_growth(U, 6), np.ones(6), atol=1e-10)


def test_power_growth_strict_upper_svd_oracle():
    T = sample(EnsembleSpec("strict_upper", 16, seed=3))
    seq = power_growth(T, 16)
    P = np.eye(16, dtype=complex)
    for m in range(1, 17):
        P = P @ T
        oracle = np.linalg.svd(P, compute_uv=False).max() ** (1.0 / m)
        assert np.isclose(seq[m - 1], oracle, atol=1e-10)
    assert seq[-1] == 0.0
    tail = seq[8:]
    assert all(a >= b - 1e-12 for a, b in zip(tail, tail[1:]))


def test_power_growth_converges_to_spectral_radius():
    rng = np.random.default_rng(9)
    for _ in range(5):
        n = 12
        d = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        G = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        U, _ = np.linalg.qr(G)
        T = U @ np.diag(d) @ U.conj().T
        seq = power_growth(T, 200)
        assert abs(seq[-1] - np.abs(d).max()) <= 0.05


def test_power_growth_bounded_by_norm():
    rng = np.random.default_rng(4)
    T = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    nm = operator_norm(T)
    for v in power_growth(T, 12):
        assert 0.0 <= v <= nm + 1e-9


def test_cluster_points():
    pts = [1.0, 1.0 + 1e-10, 2.0, 2.0 + 1e-10, 5.0j]
    cl = cluster_points(pts, 1e-8)
    assert [c.multiplicity for c in cl] == [1, 2, 2]
    assert abs(cl[1].location - (1.0 + 5e-11)) < 1e-12


def test_cluster_labels_follow_components_not_locations():
    # 2.7 chains to 1.8 (0.9 apart) but lies nearer the singleton 3.75's
    # location (1.05) than its own component's mean 1.35
    pts = [0.0, 0.9, 1.8, 2.7, 3.75]
    clusters, labels = cluster_labels(pts, 1.0)
    assert clusters == cluster_points(pts, 1.0)
    assert [c.multiplicity for c in clusters] == [4, 1]
    assert labels == [0, 0, 0, 0, 1]
    for i, z in enumerate(pts):
        assert z in clusters[labels[i]].members


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
