import hashlib
import json
import math
import os
import subprocess
import sys
import threading
import tracemalloc
from collections import Counter
from functools import cached_property
from pathlib import Path

import numpy as np
import pytest

import specord
from specord.brown import _measure_from_values, empirical_brown, measure_distance, mixture
from specord.core import (
    SchurForm,
    fk_determinant,
    openblas_threads,
    operator_norm,
    schur_form,
)
from specord.projections import hs_projection, invariance_leak
from specord.curves import CurveSegment, LexicographicCurve, parse_curve
from specord.ensembles import EnsembleSpec, sample
from specord.regions import CellUnion, EmptyRegion, FullPlane, ambient_square, disk
from specord.spectral import (
    CurveValidationError,
    SpectralTable,
    build_table,
    decompose,
    write_bundle,
)
from specord.verify import (
    _snap_atoms,
    verify_block_split,
    verify_convergence,
    verify_decomposition,
)

T12 = np.array([[1, 1], [0, 2]], dtype=complex)

# at tol 1e-8 the first four values chain into one cluster centred at
# 0.5 - 1.35e-8, and 0.5 - 3.75e-8 is a singleton; the chain member
# 0.5 - 2.7e-8 lies nearer the singleton's location than its own
CHAIN = np.diag(0.5 + 1e-8 * np.array([0.0, -0.9, -1.8, -2.7, -3.75]))


def lex_curve_for(T):
    return parse_curve("lex", operator_norm(T))


class ReversedLex(LexicographicCurve):
    """Lex ordering traversed backwards: a measurable ordering that puts the
    rightmost spectral point first."""

    def min_preimage(self, z):
        return (1 << 2 * self.depth) - 1 - super().min_preimage(z)


class CrowdedLex(LexicographicCurve):
    """Lex ordering with the cell of 2 moved next to the cell of 1: a
    transposition of two cell indices, so injective and measurable, with
    the eigenvalues of T12 on adjacent keys, as close as parameters get."""

    def min_preimage(self, z):
        k = super().min_preimage(z)
        k1, k2 = super().min_preimage(1), super().min_preimage(2)
        return {k2: k1 + 1, k1 + 1: k2}.get(k, k)


def test_flag_projection_examples():
    c = lex_curve_for(T12)
    table = build_table(T12, c)
    assert np.allclose(table.flag_at((1 << 2 * c.depth) - 1).matrix, np.eye(2))
    assert table.flag_at(0).rank == 0
    t1 = c.min_preimage(1 + 0j)
    P = table.flag_at(t1)
    assert np.allclose(P.matrix, np.diag([1.0, 0.0]), atol=1e-12)
    # right-continuity: constant between consecutive cluster parameters
    t2 = c.min_preimage(2 + 0j)
    mid = t1 + (t2 - t1) // 2
    assert np.array_equal(table.flag_at(mid).matrix, P.matrix)


def test_spectral_projection_examples():
    c = lex_curve_for(T12)
    table = build_table(T12, c)
    assert table.spectral_projection(FullPlane()).rank == 2
    assert table.spectral_projection(EmptyRegion()).rank == 0
    E = table.spectral_projection(disk(1, 0, 0.25))
    assert E.rank == 1 and np.allclose(E.matrix, np.diag([1, 0]), atol=1e-12)


def test_spectral_projection_with_crowded_parameters():
    c = CrowdedLex(square=ambient_square(operator_norm(T12)), depth=32)
    table = build_table(T12, c)
    assert table.params[1] - table.params[0] == 1
    E = table.spectral_projection(disk(1, 0, 0.25))
    assert E.rank == 1 and np.allclose(E.matrix, np.diag([1, 0]), atol=1e-12)


def test_spectral_projection_matches_flags_at_random_params():
    T = sample(EnsembleSpec("ginibre", 8, seed=6))
    c = parse_curve("morton:depth=32", operator_norm(T))
    table = build_table(T, c)
    rng = np.random.default_rng(1)
    bits = 2 * c.depth
    ts = list(table.params)
    for _ in range(20):
        num = (int(rng.integers(0, 1 << 32)) << 32) | int(rng.integers(0, 1 << 32))
        ts.append(num)
    for t in ts:
        E = table.spectral_projection(CurveSegment(c, t))
        P = table.flag_at(t)
        assert np.linalg.norm(E.matrix - P.matrix) <= 1e-9


def test_spectral_projection_equals_cluster_sum_oracle():
    # the concatenated cluster columns must span the generalized-eigenspace sum
    T = sample(EnsembleSpec("normal_plus_nilpotent", 10, seed=8,
                            params=(("scale", 0.7),)))
    c = parse_curve("hilbert:depth=32", operator_norm(T))
    table = build_table(T, c)
    rng = np.random.default_rng(2)
    for _ in range(20):
        B = disk(rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(0.3, 1.5))
        members = table.member_clusters(B)
        oracle = sum(
            (table.range_projection(i, i + 1).matrix for i in members),
            np.zeros((table.n, table.n), dtype=complex),
        )
        E = table.spectral_projection(B)
        assert np.linalg.norm(E.matrix - oracle) <= 1e-9
        assert E.rank == sum(table.clusters[i].multiplicity for i in members)


def test_dyadic_cells_match_grid_conventions():
    square = ambient_square(1.0)
    cells = [CellUnion(square, 0, {1})]
    assert len(cells) == 1 and cells[0].contains(0j)
    cells = [CellUnion(square, 1, {k}) for k in range(1, 5)]
    assert len(cells) == 4
    # cell 1 is top-left: contains (-1, 1), not (1, 1)
    assert cells[0].contains(complex(-1.0, 1.0))
    assert not cells[0].contains(complex(1.0, 1.0))
    # shared-edge points belong to exactly one cell
    for z in (complex(0.0, 0.5), complex(0.5, 0.0), complex(0.0, 0.0)):
        assert sum(c.contains(z) for c in cells) == 1
    # the cells cover the closed ball of radius 1
    rng = np.random.default_rng(3)
    for _ in range(200):
        ang = rng.uniform(0, 2 * np.pi)
        r = rng.uniform(0, 1)
        z = complex(r * np.cos(ang), r * np.sin(ang))
        assert sum(c.contains(z) for c in cells) == 1


def test_dyadic_expectation_examples():
    T = np.diag([1.0, 2.0]).astype(complex)
    c = lex_curve_for(T)
    table = build_table(T, c)
    # level 3 separates the two eigenvalues -> expectation reproduces T
    assert np.allclose(table.expectation(3), T, atol=1e-12)
    # level 0 merges them -> scalar 1.5 on the identity
    assert np.allclose(table.expectation(0), 1.5 * np.eye(2), atol=1e-12)
    # trace preserving at every level
    for lvl in range(0, 5):
        E = table.expectation(lvl)
        assert abs(np.trace(E) - np.trace(T)) <= 1e-10


def test_dyadic_expectation_converges_to_normal_part():
    T = sample(EnsembleSpec("ginibre", 12, seed=10))
    c = parse_curve("hilbert:depth=32", operator_norm(T))
    table = build_table(T, c)
    N = table.normal_part()
    for lvl in range(1, 11):
        bound = 3.0 * math.sqrt(2.0) * operator_norm(T) / 2**lvl
        assert np.linalg.norm(N - table.expectation(lvl), 2) <= bound + 1e-12


def test_residual_radius_for_commuting_inputs():
    T = np.diag(sample(EnsembleSpec("ginibre", 10, seed=11)).diagonal())
    c = parse_curve("morton:depth=32", operator_norm(T))
    table = build_table(T, c)
    for lvl in range(1, 11):
        bound = 6.0 * math.sqrt(2.0) * operator_norm(T) / 2**lvl
        resid = T - table.expectation(lvl)
        assert np.abs(np.linalg.eigvals(resid)).max() <= bound + 1e-12


def test_binomial_power_bound_verbatim():
    # scaled normal + nilpotent commuting input, 20 unit vectors, m <= 20
    d = np.array([0.3, 0.3, -0.2 + 0.1j, 0.1j, 0.1j, -0.25])
    T = np.diag(d).astype(complex)
    T = T / (2 * operator_norm(T))
    c = parse_curve("hilbert:depth=32", operator_norm(T))
    table = build_table(T, c)
    N = table.normal_part()
    Q = T - N
    rng = np.random.default_rng(4)
    for lvl in range(1, 7):
        delta = 3.0 * math.sqrt(2.0) * operator_norm(T) / 2**lvl
        Dn = T - table.expectation(lvl)
        for _ in range(20):
            eta = rng.standard_normal(6) + 1j * rng.standard_normal(6)
            eta /= np.linalg.norm(eta)
            v = eta.copy()
            w = eta.copy()
            for m in range(1, 21):
                v = Q @ (Q @ v)
                w = Dn @ w
                lhs = np.linalg.norm(v)
                rhs = 4.0**m * max(delta**m, np.linalg.norm(w))
                assert lhs <= rhs * (1 + 1e-9) + 1e-300


def test_decompose_worked_example_forward_order():
    c = lex_curve_for(T12)
    dec = decompose(T12, c)
    assert np.allclose(dec.N, np.diag([1.0, 2.0]), atol=1e-10)
    assert np.allclose(dec.Q, np.array([[0, 1], [0, 0]]), atol=1e-10)
    assert np.array_equal(dec.N + dec.Q, T12)


def test_decompose_worked_example_reversed_order():
    c = ReversedLex(square=ambient_square(operator_norm(T12)), depth=32)
    dec = decompose(T12, c)
    want_N = np.array([[1.5, 0.5], [0.5, 1.5]])
    want_Q = np.array([[-0.5, 0.5], [-0.5, 0.5]])
    assert np.allclose(dec.N, want_N, atol=1e-10)
    assert np.allclose(dec.Q, want_Q, atol=1e-10)
    assert np.linalg.norm(dec.Q @ dec.Q) <= 1e-12


def test_ordering_sensitivity_operator_differs_measure_does_not():
    fwd = decompose(T12, lex_curve_for(T12))
    rev = decompose(T12, ReversedLex(square=ambient_square(operator_norm(T12)),
                                     depth=32))
    assert np.linalg.norm(fwd.N - rev.N) > 0.5
    assert measure_distance(
        empirical_brown(fwd.N), empirical_brown(rev.N)
    ) <= 1e-10


def test_decompose_normal_input_is_fixed():
    rng = np.random.default_rng(5)
    d = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    G = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    U, _ = np.linalg.qr(G)
    T = U @ np.diag(d) @ U.conj().T
    dec = decompose(T, parse_curve("hilbert:depth=32", operator_norm(T)))
    assert np.linalg.norm(dec.Q) <= 1e-9 * operator_norm(T)
    assert np.linalg.norm(dec.N - T) <= 1e-9 * operator_norm(T)


def test_decompose_jordan_single_cluster():
    J = np.diag(np.full(4, 2.0 + 0j)) + np.diag(np.ones(3), 1)
    dec = decompose(J, parse_curve("hilbert:depth=32", operator_norm(J)))
    assert np.allclose(dec.N, 2.0 * np.eye(4), atol=1e-12)
    assert np.allclose(dec.Q, np.diag(np.ones(3), 1), atol=1e-12)
    qn = dec.report["quasinilpotent_diag"] + dec.report["quasinilpotent_lower"]
    assert qn <= 1e-8


def test_decompose_properties_on_samples():
    for spec in (EnsembleSpec("ginibre", 16, seed=13),
                  EnsembleSpec("strict_upper", 12, seed=14),
                  EnsembleSpec("elliptic", 10, seed=15, params=(("rho", 0.5),))):
        T = sample(spec)
        dec = decompose(T, parse_curve("hilbert:depth=32", operator_norm(T)))
        assert np.array_equal(dec.Q, T - dec.N)  # exact by construction
        assert np.abs(dec.N + dec.Q - T).max() <= 4 * np.finfo(float).eps * max(
            1.0, operator_norm(T)
        )
        nfro2 = np.linalg.norm(dec.N) ** 2
        assert dec.report["normality_defect"] <= 1e-9 * max(nfro2, 1e-30)
        assert dec.report["measure_distance"] <= 1e-8
        qn = dec.report["quasinilpotent_diag"] + dec.report["quasinilpotent_lower"]
        assert qn <= 1e-8 * max(1.0, operator_norm(T))


def test_decompose_with_shared_form_keeps_bits():
    # one form passed to several decompositions gives the bits each one
    # computes from its own form, and is left as it was
    for spec in (EnsembleSpec("ginibre", 24, seed=4),
                 EnsembleSpec("normal_plus_nilpotent", 12, seed=3,
                              params=(("scale", 0.5),)),
                 EnsembleSpec("jordan", 4, params=(("lam", 2.0),))):
        T = sample(spec)
        form = schur_form(T)
        before = (form.unitary.tobytes(), form.triangular.tobytes(), form.diag_order)
        for curve_spec in ("hilbert:depth=32", "morton:depth=32", "lex"):
            c = parse_curve(curve_spec, operator_norm(T))
            want, got = decompose(T, c), decompose(T, c, form=form)
            for name in ("N", "Q"):
                assert getattr(got, name).tobytes() == getattr(want, name).tobytes()
            assert got.table.unitary.tobytes() == want.table.unitary.tobytes()
            assert got.table.form.triangular.tobytes() == want.table.form.triangular.tobytes()
            assert repr(got.report) == repr(want.report)
            assert got.normal_measure == want.normal_measure
            # N's measure from its pencil is within 1e-12 max(1, ||N||) of
            # the one from eigvals(N)
            assert measure_distance(got.normal_measure,
                                    empirical_brown(want.N, tol=want.table.tol)) \
                <= 1e-12 * max(1.0, operator_norm(want.N))
        assert (form.unitary.tobytes(), form.triangular.tobytes(),
                form.diag_order) == before


def test_table_invariants():
    T = sample(EnsembleSpec("ginibre", 10, seed=16))
    table = build_table(T, parse_curve("radial:depth=32", operator_norm(T)))
    assert list(table.params) == sorted(table.params)
    # flags increase
    flags = [table.range_projection(0, i + 1) for i in range(len(table.clusters))]
    for P1, P2 in zip(flags, flags[1:]):
        assert np.linalg.norm(P1.matrix - P1.matrix @ P2.matrix) <= 1e-9
    # cluster projections are pairwise orthogonal and sum to the identity
    total = np.zeros((10, 10), dtype=complex)
    cluster_projs = [table.range_projection(i, i + 1) for i in range(len(table.clusters))]
    for i, Pi in enumerate(cluster_projs):
        total += Pi.matrix
        for Pj in cluster_projs[i + 1 :]:
            assert np.linalg.norm(Pi.matrix @ Pj.matrix) <= 1e-9
    assert np.linalg.norm(total - np.eye(10)) <= 1e-9
    assert sum(c.multiplicity for c in table.clusters) == 10


def test_block_diagonal_expectation():
    # block upper-triangular input: the expectation keeps the diagonal blocks
    A = np.array([[1.0, 2.0], [0.0, 3.0]])
    B = np.array([[5.0, 1.0], [0.0, 6.0]])
    C = np.ones((2, 2))
    T = np.block([[A, C], [np.zeros((2, 2)), B]]).astype(complex)
    c = parse_curve("lex", operator_norm(T))
    table = build_table(T, c)
    D = table.block_diagonal_part()
    # shifted determinants agree
    rng = np.random.default_rng(6)
    for _ in range(20):
        lam = complex(rng.uniform(-8, 8), rng.uniform(-8, 8))
        d1 = fk_determinant(T - lam * np.eye(4))
        d2 = fk_determinant(D - lam * np.eye(4))
        if min(abs(lam - z) for z in (1, 3, 5, 6)) < 0.3:
            continue
        assert abs(d1 - d2) <= 1e-8 * max(d1, d2)
    # diagonal input is fixed
    T2 = np.diag([1.0, 2.0, 3.0]).astype(complex)
    t2 = build_table(T2, parse_curve("lex", 3.0))
    assert np.allclose(t2.block_diagonal_part(), T2, atol=1e-12)
    # the coarsest flag (single cluster) keeps J itself
    J = np.array([[0, 1], [0, 0]], dtype=complex)
    tj = build_table(J, parse_curve("hilbert:depth=32", 1.0))
    assert np.array_equal(tj.block_diagonal_part(), J)


def jordan_beside_simple():
    """Upper triangular: a 3x3 Jordan block at 0.5 and two simple eigenvalues."""
    rng = np.random.default_rng(8)
    T = np.triu(rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5)), 1)
    np.fill_diagonal(T, [0.5, 0.5, 0.5, -0.4 + 0.3j, 0.2 - 0.6j])
    T[0, 1] = T[1, 2] = 1.0
    return T


@pytest.mark.parametrize("T", [sample(EnsembleSpec("ginibre", 12, seed=17)),
                               jordan_beside_simple()],
                         ids=["ginibre-12", "jordan-beside-simple"])
def test_commuting_table_matches_a_table_built_from_n(T):
    # N's table is read off T's; a fresh Schur form of N is the reference
    dec = decompose(T, parse_curve("hilbert:depth=32", operator_norm(T)))
    got = dec.commuting_table
    assert got is not dec.table and got.matrix is dec.N
    want = build_table(dec.N, dec.table.curve)
    assert (got.params, got.ranks) == (want.params, want.ranks)
    assert [c.multiplicity for c in got.clusters] == [c.multiplicity for c in want.clusters]
    assert got.norm == want.norm
    for a, b in zip(got.clusters, want.clusters):
        assert abs(a.location - b.location) <= got.tol
    for r in got.ranks[1:]:
        Pa, Pb = got.unitary[:, :r], want.unitary[:, :r]
        assert np.linalg.norm(Pa @ Pa.conj().T - Pb @ Pb.conj().T) <= 1e-12
    for lvl in range(1, 7):
        diff = np.linalg.norm(got.expectation(lvl) - want.expectation(lvl))
        assert diff <= 1e-12 * got.norm, lvl
    assert got.normal_part().tobytes() == dec.N.tobytes()
    assert sum(c.multiplicity for c in got.clusters) == T.shape[0]


def normal_matrix():
    """A random unitary conjugate of six distinct eigenvalues."""
    rng = np.random.default_rng(12)
    V, _ = np.linalg.qr(rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6)))
    d = np.array([0.6, -0.3 + 0.4j, 0.1 - 0.7j, -0.5 - 0.2j, 0.2 + 0.2j, 0.8j])
    return (V * d) @ V.conj().T


COMPRESSION_INPUTS = [sample(EnsembleSpec("ginibre", 12, seed=17)), jordan_beside_simple(),
                      normal_matrix()]
COMPRESSION_IDS = ["ginibre-12", "jordan-beside-simple", "normal"]


def sandwich_expectation(table, level):
    """E_{D_n}(T) summed cell by cell as tau(E_k T E_k)/tau(E_k) E_k, each
    compression formed from the cell's columns."""
    T = table.matrix
    out = np.zeros_like(T)
    for _, idxs in sorted(table.cell_assignment(level).items()):
        cols = table.cluster_columns(idxs)
        scalar = np.trace(cols.conj().T @ T @ cols) / cols.shape[1]
        out += scalar * (cols @ cols.conj().T)
    return out


def leak_commutes(table):
    """T P = P T for every cluster projection, from the leaks of T and T*."""
    T = table.matrix
    bound = 1e-9 * max(1.0, table.norm)
    return all(
        np.hypot(invariance_leak(T, B), invariance_leak(T.conj().T, B)) <= bound
        for B in (table.range_projection(i, i + 1).basis
                  for i in range(len(table.clusters)))
    )


def sandwich_block_split(form, k):
    """The leak, determinant error and matching distance of
    `verify_block_split`, from compressions formed from U's columns."""
    T, n, tol = form.matrix, form.n, form.tol
    B, Bc = form.unitary[:, :k], form.unitary[:, k:]
    A, C = B.conj().T @ T @ B, Bc.conj().T @ T @ Bc
    dT, dA, dC = fk_determinant(T), fk_determinant(A), fk_determinant(C)
    split = dA ** (k / n) * dC ** ((n - k) / n)
    nu_T = empirical_brown(T, tol=tol)
    parts = [_measure_from_values(_snap_atoms(np.linalg.eigvals(M).tolist(),
                                              list(nu_T.locations)), tol)
             for M in (A, C)]
    mix = mixture([(parts[0], k / n), (parts[1], (n - k) / n)], tol)
    return (invariance_leak(T, B), abs(dT - split) / max(dT, split, 1e-300),
            measure_distance(mix, nu_T))


@pytest.mark.parametrize("T", COMPRESSION_INPUTS, ids=COMPRESSION_IDS)
def test_compression_blocks_match_the_sandwich_formulas(T):
    # expectations, the commutation test and the block split read blocks of
    # G = U* T U; forming each compression from U's columns is the reference
    dec = decompose(T, parse_curve("hilbert:depth=32", operator_norm(T)))
    table = dec.table
    scale = 1e-12 * max(1.0, table.norm)
    for lvl in range(7):
        diff = np.linalg.norm(table.expectation(lvl) - sandwich_expectation(table, lvl))
        assert diff <= scale, lvl
    assert table.commutes_with_cluster_projs() == leak_commutes(table)
    xtable = dec.commuting_table
    assert xtable.commutes_with_cluster_projs() and leak_commutes(xtable)
    k = table.ranks[len(table.clusters) // 2 + 1]
    leak, det_err, dist = sandwich_block_split(table.form, k)
    assert abs(np.linalg.norm(table.form.compression[k:, :k]) - leak) <= scale
    det, meas = verify_block_split(table.form, k)
    assert [v.name for v in det.values] == ["relative-error"]
    assert [v.name for v in meas.values] == ["matching-distance"]
    assert abs(det.values[0].measured - det_err) <= 1e-12
    assert abs(meas.values[0].measured - dist) <= 1e-12


@pytest.mark.parametrize("T", COMPRESSION_INPUTS, ids=COMPRESSION_IDS)
def test_each_form_is_compressed_once(monkeypatch, T):
    # the self-check families read T's ordered form, and N's when the input
    # is preconditioned, through one cached G each
    compressed = []
    compression = SchurForm.__dict__["compression"].func

    def counted(form):
        compressed.append(form)
        return compression(form)

    prop = cached_property(counted)
    prop.__set_name__(SchurForm, "compression")
    monkeypatch.setattr(SchurForm, "compression", prop)
    expectations = Counter()
    expectation = SpectralTable.expectation

    def counted_expectation(table, level):
        expectations[id(table), level] += 1
        return expectation(table, level)

    monkeypatch.setattr(SpectralTable, "expectation", counted_expectation)
    dec = decompose(T, parse_curve("hilbert:depth=32", operator_norm(T)))
    assert compressed == []
    verify_decomposition(dec, seed=1)
    verify_convergence(dec, n_max=3)
    verify_block_split(dec.table.form, dec.table.ranks[len(dec.table.clusters) // 2 + 1])
    xtable = dec.commuting_table
    forms = [dec.table.form] + ([] if xtable is dec.table else [xtable.form])
    assert compressed == forms
    # the radius loop reuses the rate loop's E_n when X is T
    assert expectations == Counter({(id(t), lvl): 1 for t in {dec.table, xtable}
                                    for lvl in (1, 2, 3)})


def test_curve_validation_failure_raises():
    T = np.diag([0.1, 0.100001]).astype(complex)  # same cell at depth 3
    with pytest.raises(CurveValidationError):
        build_table(T, parse_curve("hilbert:depth=3", operator_norm(T)))
    # an eigenvalue outside the curve's square fails and is named
    T = np.diag([1.0, 10.0]).astype(complex)
    with pytest.raises(CurveValidationError, match="10"):
        build_table(T, parse_curve("lex", 2.0))


def test_bundle_roundtrip(tmp_path):
    dec = decompose(T12, lex_curve_for(T12))
    write_bundle(dec, tmp_path)
    from specord.core import load_matrix

    assert np.array_equal(load_matrix(tmp_path / "T.json"), T12)
    N = load_matrix(tmp_path / "N.json")
    Q = load_matrix(tmp_path / "Q.json")
    assert np.array_equal(N + Q, T12)
    doc = json.loads((tmp_path / "table.json").read_text())
    assert doc["curve"].startswith("lex")
    assert [c["multiplicity"] for c in doc["clusters"]] == [1, 1]
    assert all(c["param"].startswith("0.") for c in doc["clusters"])
    assert doc["clusters"][0]["flag_rank"] == 1


def test_spectral_projection_vs_hs_projection():
    # E(B) and the invariant-subspace projection for B always share their
    # trace, and coincide as operators exactly on curve segments (initial
    # pieces of the order).  On other regions they are genuinely different
    # operators for non-normal input: E lives in the commutative algebra of
    # one ordering, the invariant projection does not.
    from specord.projections import hs_projection
    from specord.regions import AmbiguousRegionError, halfplane

    rng = np.random.default_rng(7)
    T = sample(EnsembleSpec("ginibre", 12, seed=21))
    curve = parse_curve("hilbert:depth=32", operator_norm(T))
    table = build_table(T, curve)
    saw_operator_gap = False
    for _ in range(20):
        if rng.random() < 0.5:
            B = disk(rng.uniform(-1, 1), rng.uniform(-1, 1),
                     rng.uniform(0.3, 1.5))
        else:
            a, b = rng.standard_normal(2)
            B = halfplane(a, b, rng.uniform(-1, 1))
        try:
            P_hs = hs_projection(T, B)
        except AmbiguousRegionError:
            continue
        E = table.spectral_projection(B)
        assert E.rank == P_hs.rank  # traces agree on every region
        if np.linalg.norm(E.matrix - P_hs.matrix) > 1e-6:
            saw_operator_gap = True
    assert saw_operator_gap
    # on curve segments the two routes compute the same object through
    # independent code paths (table columns vs membership reorder)
    for i in range(len(table.params)):
        seg = CurveSegment(curve, table.params[i])
        P_hs = hs_projection(T, seg)
        E = table.spectral_projection(seg)
        assert np.linalg.norm(E.matrix - P_hs.matrix) <= 1e-9
        assert np.linalg.norm(E.matrix - table.range_projection(0, i + 1).matrix) <= 1e-9


def test_all_curve_kinds_handle_edge_spectra():
    # eigenvalues exactly on cell edges and on the ball boundary must pass
    # through every ordering, including the radial one whose domain is the
    # closed inscribed ball
    from specord.ensembles import curve_stress_matrices

    for name, T in curve_stress_matrices():
        for kind in ("hilbert:depth=32", "morton:depth=32", "lex", "radial"):
            dec = decompose(T, parse_curve(kind, operator_norm(T)))
            assert dec.report["measure_distance"] <= 1e-10, (name, kind)
            qn = dec.report["quasinilpotent_diag"] + dec.report["quasinilpotent_lower"]
            assert qn <= 1e-10, (name, kind)
            assert np.linalg.norm(dec.Q) <= 1e-10, (name, kind)  # normal inputs


def test_decompose_memory_stays_linear_in_dense_matrices():
    # the table keeps the ordered unitary, not a dense matrix per flag or
    # cluster: decompose holds O(1) n x n complex arrays, not O(k)
    n = 128
    T = sample(EnsembleSpec("ginibre", n, seed=1))
    curve = parse_curve("hilbert:depth=32", operator_norm(T))
    tracemalloc.start()
    try:
        decompose(T, curve)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 40 * n * n * 16, peak


@pytest.mark.parametrize("spec", ["lex", "hilbert:depth=32"])
def test_cluster_columns_carry_their_members(spec):
    T = CHAIN.astype(complex)
    table = build_table(T, parse_curve(spec, operator_norm(T)))
    assert sorted(c.multiplicity for c in table.clusters) == [1, 4]
    U = table.unitary
    rayleigh = np.einsum("ij,ik,kj->j", U.conj(), T, U)
    for i, c in enumerate(table.clusters):
        cols = rayleigh[table.ranks[i]:table.ranks[i + 1]]
        np.testing.assert_allclose(np.sort(cols.real), np.sort(np.real(c.members)),
                                   rtol=0, atol=1e-14)
    # Q's diagonal is each member minus its own cluster's location
    spread = max(abs(z - c.location) for c in table.clusters for z in c.members)
    dec = decompose(T, parse_curve(spec, operator_norm(T)))
    assert dec.report["quasinilpotent_diag"] == pytest.approx(spread, abs=1e-15)

    singleton = min(table.clusters, key=lambda c: c.location.real)
    assert singleton.multiplicity == 1
    P = hs_projection(T, disk(singleton.location.real, 0.0, 0.5e-8))
    assert P.rank == 1
    np.testing.assert_allclose(P.matrix, np.diag([0, 0, 0, 0, 1.0]), atol=1e-14)


def decomposition_bits(T):
    dec = decompose(T, parse_curve("hilbert:depth=32", operator_norm(T)))
    return hashlib.sha256(dec.N.tobytes() + dec.Q.tobytes() + dec.table.unitary.tobytes()
                          + repr(dec.report).encode()).hexdigest()


def test_concurrent_decompositions_match_serial():
    # more callers than cores: pinned blocks overlap, the first to enter pins
    # every OpenBLAS library and the last to exit restores the counts;
    # n > 64 runs the window matmuls
    mats = [sample(EnsembleSpec("ginibre", 96, seed=s)) for s in (1, 2)]
    want = [decomposition_bits(T) for T in mats]
    before = openblas_threads()
    callers = 2 * (os.cpu_count() or 1) + 2
    got = [None] * callers

    def run(i):
        for _ in range(3):
            bits = decomposition_bits(mats[i % 2])
            got[i] = bits if got[i] in (None, bits) else "differs"

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=run, args=(i,)) for i in range(callers)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert got == [want[i % 2] for i in range(callers)]
    assert openblas_threads() == before


BUNDLE_CHILD = """
import hashlib, sys
from pathlib import Path
from specord import cli
from specord.curves import curve_for_matrix
from specord.ensembles import parse_ensemble, sample
from specord.spectral import decompose, write_bundle
out = Path(sys.argv[1])
T = sample(parse_ensemble("ginibre:n=200,seed=3"))
write_bundle(decompose(T, curve_for_matrix("hilbert:depth=32", T)), out / "library")
code = cli.main(["decompose", "--ensemble", "ginibre:n=64,seed=5", "--out", str(out / "cli")])
assert code in (0, 1), code
for path in sorted(out.rglob("*")):
    if path.is_file():
        print(path.relative_to(out), hashlib.sha256(path.read_bytes()).hexdigest())
"""


def test_decomposition_bundles_independent_of_blas_threads(tmp_path):
    # library decompose + write_bundle at n = 200 and the CLI decompose at
    # n = 64; each thread count applies to a child process only
    src = str(Path(specord.__file__).resolve().parent.parent)
    listings = {}
    for threads in ("1", "2"):
        path = [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
               "PYTHONPATH": os.pathsep.join(path)}
        out = tmp_path / threads
        proc = subprocess.run([sys.executable, "-c", BUNDLE_CHILD, str(out)], env=env,
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, (threads, proc.stderr[-2000:])
        listings[threads] = [line for line in proc.stdout.splitlines()
                             if line.startswith(("library", "cli"))]
    assert len(listings["1"]) == 10
    assert listings["1"] == listings["2"]
