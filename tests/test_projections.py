import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from specord.brown import empirical_brown, region_mass
from specord.core import cluster_labels, operator_norm, schur_form, _reorder_by_keys
from specord.ensembles import EnsembleSpec, sample
from specord.projections import (
    Projection,
    hs_projection,
    hyperinvariance_check,
    invariance_leak,
    projection_from_columns,
    _commutant_samples,
    _eigenvector_factors,
    _paterson_stockmeyer,
    _powers,
)
from specord.regions import AmbiguousRegionError, EmptyRegion, FullPlane, disk, halfplane

T_EXAMPLE = np.array([[0, 1], [0, 3]], dtype=complex)


def test_hs_projection_examples():
    P = hs_projection(T_EXAMPLE, disk(0, 0, 1))
    assert P.rank == 1
    assert np.allclose(P.matrix, np.diag([1.0, 0.0]), atol=1e-12)

    # eigenvector oracle: (T - 3I) v = 0 gives v = (1, 3)/sqrt(10)
    P = hs_projection(T_EXAMPLE, disk(3, 0, 0.5))
    v = np.array([1.0, 3.0]) / np.sqrt(10.0)
    assert P.rank == 1
    assert np.allclose(P.matrix, np.outer(v, v.conj()), atol=1e-12)

    assert hs_projection(T_EXAMPLE, EmptyRegion()).rank == 0
    full = hs_projection(T_EXAMPLE, FullPlane())
    assert full.rank == 2 and np.allclose(full.matrix, np.eye(2), atol=1e-12)


def test_projection_invariants():
    rng = np.random.default_rng(0)
    T = rng.standard_normal((12, 12)) + 1j * rng.standard_normal((12, 12))
    P = hs_projection(T, halfplane(1, 0, 0))
    assert np.linalg.norm(P.basis.conj().T @ P.basis - np.eye(P.rank)) <= 1e-10
    assert np.isclose(np.trace(P.matrix).real, P.rank)
    # invariance: (I - P) T P = 0
    n = T.shape[0]
    leak = np.linalg.norm((np.eye(n) - P.matrix) @ T @ P.matrix)
    assert leak <= 1e-9 * np.linalg.norm(T, 2)


def test_hs_trace_equals_counting_mass():
    rng = np.random.default_rng(1)
    for spec in (EnsembleSpec("ginibre", 10, seed=4),
                  EnsembleSpec("normal_plus_nilpotent", 12, seed=2,
                               params=(("scale", 0.5),))):
        T = sample(spec)
        nu = empirical_brown(T)
        for _ in range(25):
            cx, cy = rng.uniform(-2, 2, size=2)
            B = disk(cx, cy, rng.uniform(0.2, 2.0))
            try:
                P = hs_projection(T, B)
            except AmbiguousRegionError:
                continue
            assert P.rank == round(region_mass(nu, B) * T.shape[0])


def test_hs_ambiguous_cluster_rejected():
    T = np.diag([1.0, 1.0 + 5e-9]).astype(complex)  # one cluster, spread 5e-9
    with pytest.raises(AmbiguousRegionError):
        hs_projection(T, disk(0, 0, 1.0 + 2.5e-9))


def test_hs_monotone_under_region_inclusion():
    rng = np.random.default_rng(2)
    T = sample(EnsembleSpec("ginibre", 14, seed=9))
    for _ in range(40):
        cx, cy = rng.uniform(-1, 1, size=2)
        r = rng.uniform(0.2, 1.0)
        B1 = disk(cx, cy, r)
        B2 = disk(cx, cy, r + rng.uniform(0.1, 1.0))
        try:
            P1 = hs_projection(T, B1)
            P2 = hs_projection(T, B2)
        except AmbiguousRegionError:
            continue
        assert np.linalg.norm(P1.matrix - P1.matrix @ P2.matrix) <= 1e-9


def test_hs_independent_of_interior_ordering():
    # the projection depends only on the membership split, not on how the
    # eigenvalues are arranged inside or outside the region
    T = sample(EnsembleSpec("ginibre", 10, seed=12))
    B = halfplane(0, 1, 0)  # y <= 0
    P_ref = hs_projection(T, B)
    form = schur_form(T)
    rng = np.random.default_rng(3)
    for _ in range(4):
        tiebreak = {z: rng.random() for z in form.diag_order}
        keys = []
        for z in form.diag_order:
            inside = B.contains(complex(z))
            keys.append((0 if inside else 1) + tiebreak[z] * 1e-3)
        ranks = {k: i for i, k in enumerate(sorted(keys))}
        out = _reorder_by_keys(form, [ranks[k] for k in keys])
        P = projection_from_columns(out.unitary[:, : P_ref.rank], 10)
        assert np.linalg.norm(P.matrix - P_ref.matrix) <= 1e-9


def test_hs_projection_with_shared_form_keeps_bits():
    T = sample(EnsembleSpec("ginibre", 16, seed=9))
    form = schur_form(T)
    before = (form.unitary.tobytes(), form.triangular.tobytes())
    for B in (disk(0, 0, 0.5), halfplane(1, 0, 0), halfplane(0, 1, 0),
              EmptyRegion(), FullPlane()):
        want, got = hs_projection(T, B), hs_projection(T, B, form=form)
        assert got.basis.shape == want.basis.shape
        assert got.basis.tobytes() == want.basis.tobytes()
    assert (form.unitary.tobytes(), form.triangular.tobytes()) == before


def test_hyperinvariance():
    T = sample(EnsembleSpec("ginibre", 8, seed=20))
    P = hs_projection(T, halfplane(1, 0, 0))
    rep = hyperinvariance_check(schur_form(T), P, samples=20, seed=3)
    assert rep.verdict == "pass"
    assert rep.samples > 0
    assert not rep.polynomials_only

    # invariance under T itself and the identity, via polynomial samples
    J = np.diag(np.ones(3), 1).astype(complex)  # defective: polynomials only
    Pfull = Projection(basis=np.eye(4, dtype=complex))
    rep = hyperinvariance_check(schur_form(J), Pfull, samples=10, seed=4)
    assert rep.polynomials_only
    assert rep.verdict == "pass"


def test_basis_projection_rank_zero_and_complement():
    P0 = projection_from_columns(np.zeros((3, 0), dtype=complex), 3)
    assert P0.rank == 0 and P0.n == 3
    assert np.array_equal(P0.matrix, np.zeros((3, 3)))

    # the complement of a unitary's leading columns is its other columns
    rng = np.random.default_rng(8)
    Q, _ = np.linalg.qr(rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5)))
    P, C = Projection(basis=Q[:, :2]), Projection(basis=Q[:, 2:])
    assert P.rank == 2 and C.rank == 3 and P.n == C.n == 5
    assert np.linalg.norm(P.matrix + C.matrix - np.eye(5)) <= 1e-12


def dense_leak(X, B):
    P = B @ B.conj().T
    return np.linalg.norm((np.eye(len(X)) - P) @ X @ P)


def test_invariance_leak_matches_dense_formula():
    rng = np.random.default_rng(12)
    n = 9
    X = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    for k in (0, n, int(rng.integers(1, n))):
        B = Q[:, :k]
        assert np.isclose(invariance_leak(X, B), dense_leak(X, B), rtol=1e-12, atol=1e-14)


# ---------------------------------------------------------------------------
# commutant samples against the stored idempotents and the power loop

def reference_samples(form, samples, seed):
    """(polynomials_only, samples) drawn as a sum over one stored dense
    idempotent per cluster and a term-by-term power loop."""
    T, n = form.matrix, form.n
    rng = np.random.default_rng(seed)
    Tn = T / max(form.norm, 1.0)
    idempotents = []
    w, V = np.linalg.eig(T)
    if float(np.linalg.cond(V)) < 1e8:
        Vinv = np.linalg.inv(V)
        clusters, labels = cluster_labels(w.tolist(), form.tol)
        owner = np.array(labels)
        for ci in range(len(clusters)):
            idempotents.append((V * (owner == ci)[None, :]) @ Vinv)
    out = []
    for _ in range(samples):
        if idempotents and rng.random() < 0.5:
            m = len(idempotents)
            coeff = rng.standard_normal(m) + 1j * rng.standard_normal(m)
            out.append(sum(c * E for c, E in zip(coeff, idempotents)))
        else:
            deg = int(rng.integers(1, n + 1))
            coeff = rng.standard_normal(deg + 1) + 1j * rng.standard_normal(deg + 1)
            out.append(power_sum(coeff, Tn))
    return not idempotents, out


def power_sum(coeff, X):
    S = coeff[0] * np.eye(len(X), dtype=np.complex128)
    Pk = np.eye(len(X), dtype=np.complex128)
    for c in coeff[1:]:
        Pk = Pk @ X
        S = S + c * Pk
    return S


def reference_check(form, P, samples, seed):
    """(samples, polynomials_only, verdict, max_leak) judged on
    `reference_samples`."""
    T = form.matrix
    polynomials_only, draws = reference_samples(form, samples, seed)
    used, max_leak = 0, 0.0
    for S in draws:
        nS = operator_norm(S)
        if nS == 0.0:
            continue
        S = S / nS
        if operator_norm(S @ T - T @ S) > 1e-9 * max(form.norm, 1.0):
            continue
        used += 1
        max_leak = max(max_leak, invariance_leak(S, P.basis))
    verdict = "pass" if used > 0 and max_leak <= 1e-8 else "fail"
    return used, polynomials_only, verdict, max_leak


def small_matrix(n, kind, seed):
    """A diagonalizable matrix with repeated eigenvalues (X D X^-1, X
    within a factor 2 of unitary), or a unitary conjugate of a Jordan block,
    whose last diagonal entry may differ."""
    rng = np.random.default_rng(seed)
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    points = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    lam = points[rng.integers(0, 3, size=n)]
    if kind == "diagonalizable":
        X = Q @ (np.eye(n) + 0.3 * np.triu(rng.standard_normal((n, n)), 1) / max(1, n - 1))
        return X @ np.diag(lam) @ np.linalg.inv(X)
    J = lam[0] * np.eye(n) + np.diag(np.ones(n - 1), 1)
    J[-1, -1] = lam[-1]
    return Q @ J @ Q.conj().T


@settings(max_examples=60, deadline=None, derandomize=True)
@given(n=st.integers(1, 6), kind=st.sampled_from(["diagonalizable", "defective"]),
       seed=st.integers(0, 2**32 - 1), draw_seed=st.integers(0, 2**16))
def test_commutant_samples_match_stored_idempotents_and_power_sums(n, kind, seed,
                                                                   draw_seed):
    form = schur_form(small_matrix(n, kind, seed))
    polynomials_only, want = reference_samples(form, 12, draw_seed)
    factors = _eigenvector_factors(form)
    assert (factors is None) == polynomials_only
    got = list(_commutant_samples(form, factors, 12, draw_seed))
    assert len(got) == len(want)
    for S, R in zip(got, want):
        assert np.linalg.norm(S - R, 2) <= 1e-12 * np.linalg.norm(R, 2)
    P = hs_projection(form.matrix, halfplane(1, 0, 0), form=form)
    rep = hyperinvariance_check(form, P, samples=12, seed=draw_seed)
    used, polys, verdict, max_leak = reference_check(form, P, 12, draw_seed)
    assert (rep.samples, rep.polynomials_only, rep.verdict) == (used, polys, verdict)
    assert abs(rep.max_leak - max_leak) <= 1e-12


@pytest.mark.parametrize("n", [1, 3, 8, 15])
def test_paterson_stockmeyer_matches_power_sum(n):
    rng = np.random.default_rng(n)
    T = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    X = T / np.linalg.norm(T, 2)
    powers = _powers(X, math.isqrt(n) + 1)
    # every degree 1..n, with d + 1 = s^2 at d = 3, 8 and 15
    for d in range(1, n + 1):
        re, im = rng.standard_normal(d + 1), rng.standard_normal(d + 1)
        want = power_sum(re + 1j * im, X)
        got = _paterson_stockmeyer(re, im, powers)
        assert np.linalg.norm(got - want, 2) <= 1e-12 * np.linalg.norm(want, 2), d


def test_hyperinvariance_memory_is_quadratic():
    # a stored dense idempotent per cluster would take n^3 16 bytes (14 MB)
    n = 96
    T = sample(EnsembleSpec("ginibre", n, seed=2))
    form = schur_form(T)
    P = hs_projection(T, halfplane(1, 0, 0), form=form)
    tracemalloc.start()
    try:
        rep = hyperinvariance_check(form, P, samples=12, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not rep.polynomials_only and rep.samples == 12
    assert peak <= 40 * n * n * 16
