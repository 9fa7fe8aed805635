import ctypes
import hashlib
import os
import subprocess
import sys
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import specord
from specord import brown, core
from specord.brown import (
    PointMeasure,
    brown_density_grid,
    empirical_brown,
    measure_distance,
    mixture,
    region_mass,
    write_atoms_csv,
    write_density_csv,
    write_density_pgm,
)
from specord.core import (
    cluster_tolerance,
    eigenvalue_matching_distance,
    openblas_threads,
    operator_norm,
)
from specord.curves import curve_for_matrix
from specord.ensembles import EnsembleSpec, corpus_matrices, parse_ensemble, sample
from specord.spectral import decompose
from specord.regions import EmptyRegion, FullPlane, Square, disk


def test_point_measure_invariants():
    with pytest.raises(ValueError):
        PointMeasure(atoms=((0j, 0.5),))  # weights must sum to 1
    with pytest.raises(ValueError):
        PointMeasure(atoms=((0j, 1.5), (1j, -0.5)))
    m = PointMeasure(atoms=((0j, 0.5), (1j, 0.5)))
    assert m.locations == (0j, 1j) and m.weights == (0.5, 0.5)


def test_empirical_examples():
    m = empirical_brown(np.diag([1, 1j, -1, -1j]))
    assert len(m.atoms) == 4
    assert all(np.isclose(w, 0.25) for w in m.weights)

    J3 = np.diag(np.ones(2), 1)
    m = empirical_brown(J3)
    assert m.atoms == ((0j, 1.0),)

    m = empirical_brown(np.array([[1, 1], [0, 2]]))
    assert sorted(m.locations, key=lambda z: z.real) == [1 + 0j, 2 + 0j]
    assert m.weights == (0.5, 0.5)


def test_translation_covariance():
    rng = np.random.default_rng(3)
    T = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    alpha = 0.7 - 0.3j
    m0 = empirical_brown(T)
    m1 = empirical_brown(T - alpha * np.eye(6))
    shifted = PointMeasure(atoms=tuple((z - alpha, w) for z, w in m0.atoms))
    assert measure_distance(m1, shifted) <= 1e-10


def test_density_zero_matrix_concentrates_at_origin():
    # closed-form oracle: potential is log sqrt(|lambda|^2 + eps^2), whose
    # distributional Laplacian mass sits at the origin
    T = np.zeros((4, 4), dtype=complex)
    g = brown_density_grid(T, g=32, eps=1e-3)
    masses = g.masses
    center = masses[15:17, 15:17].sum()
    assert center >= 0.9
    assert 0.9 <= g.total_mass() <= 1.02


def test_density_roots_of_unity_ring():
    roots = np.exp(2j * np.pi * np.arange(8) / 8)
    T = np.diag(roots)
    g = brown_density_grid(T, g=64)
    sq = g.square
    h = sq.side / 64
    xs = sq.x0 + (np.arange(64) + 0.5) * h
    ys = sq.y1 - (np.arange(64) + 0.5) * h
    X, Y = np.meshgrid(xs, ys)
    ring = np.abs(np.sqrt(X**2 + Y**2) - 1.0) < 0.15
    assert g.masses[ring].sum() >= 0.8
    assert g.total_mass() <= 1.02


def test_density_total_mass_bounded():
    for spec in (EnsembleSpec("ginibre", 12, seed=2),
                  EnsembleSpec("strict_upper", 8, seed=1)):
        g = brown_density_grid(sample(spec), g=32)
        assert 0.9 <= g.total_mass() <= 1.02
        assert g.clamped().min() >= 0.0


def test_density_argument_validation():
    with pytest.raises(ValueError):
        brown_density_grid(np.eye(2), g=8)
    with pytest.raises(ValueError):
        brown_density_grid(np.eye(2), g=32, eps=0.0)


REFERENCE_CASES = {
    "ginibre": (sample(EnsembleSpec("ginibre", 16, seed=4)), 16),
    "n=1": (np.array([[0.3 - 0.2j]]), 16),
    # non-normal, with the eigenvalue 0.25 + 0.1j twice
    "upper-triangular-repeated": (np.array([[0.25 + 0.1j, 1.0, 0.5j],
                                            [0.0, 0.25 + 0.1j, -0.7],
                                            [0.0, 0.0, -0.6 + 0.3j]]), 16),
    "partial-last-batch": (sample(EnsembleSpec("ginibre", 6, seed=5)), 17),
}


@pytest.mark.parametrize("case", REFERENCE_CASES)
def test_density_grid_matches_per_point_cholesky(case):
    # reference: each point's potential from its own np.linalg.cholesky
    T, g = REFERENCE_CASES[case]
    if case == "partial-last-batch":
        assert (g + 2) ** 2 % brown._CHUNK != 0
    n = T.shape[0]
    grid = brown_density_grid(T, g=g)
    sq, eps = grid.square, grid.eps
    h = sq.side / g
    phi = np.empty((g + 2, g + 2))
    for i in range(g + 2):
        for j in range(g + 2):
            lam = complex(sq.x0 + (j - 0.5) * h, sq.y1 - (i - 0.5) * h)
            A = T - lam * np.eye(n)
            L = np.linalg.cholesky(A.conj().T @ A + eps**2 * np.eye(n))
            phi[i, j] = np.log(np.diag(L).real).mean()
    masses = (phi[:-2, 1:-1] + phi[2:, 1:-1] + phi[1:-1, :-2] + phi[1:-1, 2:]
              - 4.0 * phi[1:-1, 1:-1]) / (2.0 * np.pi)
    np.testing.assert_allclose(grid.masses, masses, rtol=0, atol=1e-12)


def test_density_grid_runs_one_svd(monkeypatch):
    T = sample(EnsembleSpec("ginibre", 6, seed=2))
    original, svds = np.linalg.norm, []

    def counted(x, ord=None, *args, **kwargs):
        if ord == 2:
            svds.append(1)
        return original(x, ord, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "norm", counted)
    grid = brown_density_grid(T, g=16)
    assert len(svds) == 1
    assert grid.eps == 1e-3 * max(1.0, float(original(T, 2)))


def test_lapack_binding_checks_signature():
    # the capsule name is the C signature: a mismatch fails when binding,
    # never inside a call
    from scipy.linalg import cython_blas, cython_lapack

    with pytest.raises(ValueError):
        core._bind(cython_lapack, "zpotrf", b"void (char *, int *, double *, int *, int *)",
                   ctypes.c_char_p, ctypes.c_void_p, ctypes.c_void_p, ctypes.c_void_p,
                   ctypes.c_void_p)
    with pytest.raises(ValueError):
        core._bind(cython_blas, "dgemm", b"void (char *)", ctypes.c_char_p)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the overflow itself
def test_density_grid_rejects_non_finite_potential(monkeypatch):
    # an infinite square puts the grid points at infinity
    with pytest.raises(ValueError, match="density grid: the log potential is not finite"):
        brown_density_grid(np.eye(4), g=16, square=Square(cx=0.0, cy=0.0, side=np.inf))

    def not_positive_definite(uplo, n, a, lda, info):
        info.value = 2

    monkeypatch.setattr("specord.brown._zpotrf", not_positive_definite)
    with pytest.raises(ValueError, match="not finite at 324 of 324 points"):
        brown_density_grid(np.eye(4), g=16)


def test_density_grid_of_large_norm_is_scaled():
    # ||T||^2 overflows at 2^600: the grid is evaluated on T scaled by a
    # power of two, with the square and eps, so the masses are unchanged
    T = sample(EnsembleSpec("ginibre", 8, seed=1))
    base = brown_density_grid(T, g=16)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        big = brown_density_grid(T * 2.0**600, g=16)
    np.testing.assert_allclose(big.masses, base.masses, rtol=0, atol=1e-12)
    # the result carries the input's own square and eps
    assert big.square.side == pytest.approx(base.square.side * 2.0**600, rel=1e-14)
    assert big.eps == pytest.approx(base.eps * 2.0**600, rel=1e-14)


def test_forced_grid_scaling_moves_masses_only_at_roundoff(monkeypatch):
    T = sample(EnsembleSpec("ginibre", 8, seed=2)) * 2.0**200
    before = brown_density_grid(T, g=16).masses
    monkeypatch.setattr(brown, "_GRID_SCALE_EXP", 150)  # now scaled by 2^-203
    scaled = brown_density_grid(T, g=16).masses
    assert not np.array_equal(before, scaled)
    np.testing.assert_allclose(scaled, before, rtol=0, atol=1e-12)


def test_region_mass():
    m = empirical_brown(np.diag([1.0, 2.0]))
    assert region_mass(m, disk(1, 0, 0.1)) == 0.5
    assert region_mass(m, FullPlane()) == 1.0
    assert region_mass(m, EmptyRegion()) == 0.0


def test_measure_distance():
    m1 = PointMeasure(atoms=((1 + 0j, 0.5), (2 + 0j, 0.5)))
    m2 = PointMeasure(atoms=((2 + 0j, 0.5), (1 + 0j, 0.5)))
    assert measure_distance(m1, m1) == 0.0
    assert measure_distance(m1, m2) == 0.0
    m3 = PointMeasure(atoms=((1 + 0j, 1.0),))
    assert measure_distance(m1, m3) == float("inf")
    m4 = PointMeasure(atoms=((1.1 + 0j, 0.5), (2 + 0j, 0.5)))
    assert np.isclose(measure_distance(m1, m4), 0.1)


def test_measure_distance_bottleneck_not_greedy():
    # optimal assignment has max distance 1; a greedy nearest match gives 2
    a = PointMeasure(atoms=((0j, 0.5), (2 + 0j, 0.5)))
    b = PointMeasure(atoms=((1 + 0j, 0.5), (3 + 0j, 0.5)))
    assert np.isclose(measure_distance(a, b), 1.0)


def test_mixture():
    m1 = PointMeasure(atoms=((1 + 0j, 1.0),))
    m2 = PointMeasure(atoms=((2 + 0j, 1.0),))
    mix = mixture([(m1, 0.5), (m2, 0.5)], tol=1e-8)
    assert mix.weights == (0.5, 0.5)
    # coincident atoms merge
    mix2 = mixture([(m1, 0.25), (m1, 0.75)], tol=1e-8)
    assert mix2.atoms == ((1 + 0j, 1.0),)
    with pytest.raises(ValueError):
        mixture([(m1, 0.4)], tol=1e-8)


def test_quasinilpotence_criterion_on_corpus():
    # growth tail below 0.05 exactly when the counting measure is a point
    # mass at the origin
    from specord.core import operator_norm
    from specord.ensembles import corpus_matrices

    for name, T in corpus_matrices():
        # ||T^200||^(1/200), taken on T/||T|| so no power overflows
        s = operator_norm(T)
        tail = 0.0 if s == 0.0 else (
            s * np.linalg.norm(np.linalg.matrix_power(T / s, 200), 2) ** (1 / 200))
        m = empirical_brown(T)
        is_delta0 = len(m.atoms) == 1 and abs(m.atoms[0][0]) <= 1e-8
        assert (tail <= 0.05) == is_delta0, (name, tail, m.atoms[:2])


def test_atoms_csv_roundtrip(tmp_path):
    m = empirical_brown(np.diag([1.0, 2.0, 2.0]))
    path = tmp_path / "atoms.csv"
    write_atoms_csv(m, path)
    text = path.read_bytes()
    assert text == (
        b"re,im,weight\n"
        b"1,0,0.33333333333333331\n"
        b"2,0,0.66666666666666663\n"
    )
    rows = [[float(v) for v in line.split(b",")] for line in text.splitlines()[1:]]
    assert [(complex(re, im), w) for re, im, w in rows] == list(m.atoms)


def percent_density_csv(grid) -> bytes:
    """Reference: the density file written by one `%` over every mass."""
    rows, cols = grid.masses.shape
    line = ",".join(["%.17g"] * cols) + "\n"
    return ((line * rows) % tuple(grid.masses.ravel().tolist())).encode("ascii")


def fstring_atoms_csv(m) -> bytes:
    """Reference: the atoms file written one f-string per atom."""
    rows = "".join(f"{z.real:.17g},{z.imag:.17g},{w:.17g}\n" for z, w in m.atoms)
    return ("re,im,weight\n" + rows).encode("ascii")


def test_csv_writers_match_percent_formatting(tmp_path):
    T = sample(EnsembleSpec("ginibre", 16, seed=2))
    grid = brown_density_grid(T, g=32)
    write_density_csv(grid, tmp_path / "density.csv")
    assert (tmp_path / "density.csv").read_bytes() == percent_density_csv(grid)
    for m in (empirical_brown(T), empirical_brown(np.diag([-0.0, 1e-300, 2.5e17]))):
        write_atoms_csv(m, tmp_path / "atoms.csv")
        assert (tmp_path / "atoms.csv").read_bytes() == fstring_atoms_csv(m)


def test_density_outputs(tmp_path):
    g = brown_density_grid(np.zeros((2, 2), dtype=complex), g=16)
    write_density_csv(g, tmp_path / "d.csv")
    rows = (tmp_path / "d.csv").read_text().strip().split("\n")
    assert len(rows) == 16 and len(rows[0].split(",")) == 16
    write_density_pgm(g, tmp_path / "d.pgm")
    blob = (tmp_path / "d.pgm").read_bytes()
    assert blob.startswith(b"P5\n16 16\n255\n")
    assert len(blob) == len(b"P5\n16 16\n255\n") + 16 * 16


GRID_CHILD = """
import hashlib, os, sys
if sys.argv[1] != "all":
    os.sched_setaffinity(0, {int(sys.argv[1])})
from specord import brown_density_grid, parse_ensemble, sample
T = sample(parse_ensemble("ginibre:n=64,seed=1"))
print(hashlib.sha256(brown_density_grid(T, g=32).masses.tobytes()).hexdigest())
"""


def test_density_grid_bits_independent_of_threads_and_cpus():
    # each setting applies to a child process only: the BLAS thread count,
    # and the CPU affinity, which OpenBLAS reads at load time and the grid
    # reads for its worker count
    settings = [({"OPENBLAS_NUM_THREADS": "1"}, "all"),
                ({"OPENBLAS_NUM_THREADS": "2"}, "all")]
    if hasattr(os, "sched_setaffinity"):
        settings += [({}, str(min(os.sched_getaffinity(0)))), ({}, "all")]
    src = str(Path(specord.__file__).resolve().parent.parent)
    digests = {}
    for setting, cpus in settings:
        path = [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]
        env = {**os.environ, **setting, "PYTHONPATH": os.pathsep.join(path)}
        proc = subprocess.run([sys.executable, "-c", GRID_CHILD, cpus], env=env,
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, (setting, cpus, proc.stderr[-2000:])
        digests[f"{setting} cpus={cpus}"] = proc.stdout.split()[-1]
    assert len(set(digests.values())) == 1, digests


def test_density_grid_restores_blas_threads(monkeypatch):
    T = sample(EnsembleSpec("ginibre", 8, seed=1))
    before = openblas_threads()
    brown_density_grid(T, g=16)
    assert openblas_threads() == before

    inside = []

    def failing_zpotrf(*args):
        inside.append(openblas_threads())
        raise np.linalg.LinAlgError("injected")

    monkeypatch.setattr("specord.brown._zpotrf", failing_zpotrf)
    with pytest.raises(np.linalg.LinAlgError, match="injected"):
        brown_density_grid(T, g=16)
    assert inside and all(v == 1 for counts in inside for v in counts.values())
    assert openblas_threads() == before


def test_concurrent_density_grids_match_serial(monkeypatch):
    # more callers than cores, switching often: pinned blocks overlap, the
    # counts stay pinned until the last one exits, each grid's workers
    # write only their own rows, and the grids take turns, so no more
    # workers run at once than one grid starts
    T = sample(EnsembleSpec("ginibre", 16, seed=2))
    want = hashlib.sha256(brown_density_grid(T, g=24).masses.tobytes()).hexdigest()
    before = openblas_threads()
    got = []
    live, peak, count = [0], [0], threading.Lock()
    log_potential = brown._log_potential

    def counted(*args):
        with count:
            live[0] += 1
            peak[0] = max(peak[0], live[0])
        try:
            log_potential(*args)
        finally:
            with count:
                live[0] -= 1

    monkeypatch.setattr(brown, "_log_potential", counted)

    def run():
        got.append(hashlib.sha256(brown_density_grid(T, g=24).masses.tobytes()).hexdigest())

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=run) for _ in range(2 * (os.cpu_count() or 1) + 2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert got == [want] * len(threads)
    assert 1 <= peak[0] <= brown._cpu_count()
    assert openblas_threads() == before


def _unitary(n: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    Z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    Q, R = np.linalg.qr(Z)
    return Q * (np.diag(R) / np.abs(np.diag(R)))


def _normal(d, seed: int) -> np.ndarray:
    """W diag(d) W* for a random unitary W."""
    W = _unitary(len(d), seed)
    return (W * np.asarray(d, dtype=np.complex128)) @ W.conj().T


@settings(max_examples=200, deadline=None, derandomize=True)
@given(n=st.integers(1, 24), seed=st.integers(0, 2**32 - 1), scale=st.integers(-20, 20),
       data=st.data())
def test_normal_eigvals_match_eigvals(n, seed, scale, data):
    # a few distinct eigenvalues, each repeated, on a scale of 2^scale
    pool = data.draw(st.lists(st.complex_numbers(max_magnitude=3.0, allow_nan=False,
                                                 allow_infinity=False),
                              min_size=1, max_size=n))
    d = [pool[i] * 2.0**scale
         for i in data.draw(st.lists(st.integers(0, len(pool) - 1), min_size=n, max_size=n))]
    N = _normal(d, seed)
    got = brown._normal_eigvals(N, cluster_tolerance(N))
    dist = eigenvalue_matching_distance(got, np.linalg.eigvals(N))
    assert dist <= 1e-12 * max(1.0, operator_norm(N))


def test_normal_eigvals_tie_in_the_pencil_falls_back(monkeypatch):
    # 0 and alpha - i are distinct but both have x + alpha y = 0, so they
    # share an eigenspace of H + alpha K and eigh mixes their eigenvectors
    alpha = brown._PENCIL_ALPHA
    assert alpha + alpha * -1.0 == 0.0
    N = _normal([0.0, alpha - 1j, 1.0, 2j], seed=3)
    calls = []
    eigvals = np.linalg.eigvals
    monkeypatch.setattr(np.linalg, "eigvals", lambda A: calls.append(A) or eigvals(A))
    got = brown._normal_eigvals(N, cluster_tolerance(N))
    assert len(calls) == 1
    assert got.tobytes() == eigvals(N).tobytes()


def test_normal_part_spectra_need_no_fallback(monkeypatch):
    # every corpus entry, and the three n=256 matrices of the decompose-n256
    # benchmark workload (seed 1) along its three curves: N's eigenvalues
    # come from the pencil alone, and no decomposition runs eigvals
    calls = []
    monkeypatch.setattr(np.linalg, "eigvals", lambda A: calls.append(A))
    for _, T in corpus_matrices():
        decompose(T, curve_for_matrix("hilbert:depth=32", T))
    for spec in ("ginibre:n=256,seed=1", "elliptic:n=256,rho=0.5,seed=1",
                 "normal_plus_nilpotent:n=256,scale=0.5,seed=1"):
        T = sample(parse_ensemble(spec))
        form = core.schur_form(T)
        for curve in ("hilbert:depth=32", "morton:depth=32", "lex"):
            decompose(T, curve_for_matrix(curve, T), form=form)
    assert calls == []
