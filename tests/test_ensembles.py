import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import specord
from specord.core import matrix_digest, operator_norm
from specord.ensembles import (
    EnsembleSpec,
    _cos_sin_2pi,
    _log1m,
    _Rand,
    corpus,
    corpus_manifest,
    corpus_matrices,
    curve_stress_matrices,
    parse_ensemble,
    sample,
)

DIGESTS = json.loads(
    (Path(__file__).parent / "data" / "corpus_digests.json").read_text()
)


def test_jordan_block_exact():
    J = sample(parse_ensemble("jordan:n=4,lam=2"))
    want = 2.0 * np.eye(4) + np.diag(np.ones(3), 1)
    assert np.array_equal(J, want.astype(complex))


def test_strict_upper_degenerate_dimension():
    assert np.array_equal(sample(parse_ensemble("strict_upper:n=1")),
                          np.zeros((1, 1), dtype=complex))


def test_strict_upper_exactly_nilpotent():
    T = sample(parse_ensemble("strict_upper:n=16,seed=3"))
    P = np.eye(16, dtype=complex)
    for _ in range(16):
        P = P @ T
    assert np.linalg.norm(P) == 0.0
    assert np.linalg.norm(np.tril(T)) == 0.0


def test_ginibre_norm_in_circular_law_window():
    T = sample(parse_ensemble("ginibre:n=32,seed=7"))
    assert 1.5 <= operator_norm(T) <= 3.0


def test_elliptic_parameter_validation():
    with pytest.raises(ValueError):
        sample(EnsembleSpec("elliptic", 8, seed=1, params=(("rho", 1.5),)))
    with pytest.raises(ValueError):
        sample(EnsembleSpec("diag_perturb", 8, seed=1, params=(("eps", -1.0),)))
    with pytest.raises(ValueError):
        sample(EnsembleSpec("ginibre", 0, seed=1))


def test_elliptic_limits():
    # rho = 0 behaves like ginibre; rho = 1 is hermitian
    T = sample(EnsembleSpec("elliptic", 24, seed=2, params=(("rho", 1.0),)))
    assert np.linalg.norm(T - T.conj().T) <= 1e-12
    T = sample(EnsembleSpec("elliptic", 24, seed=2, params=(("rho", 0.0),)))
    assert np.abs(np.linalg.eigvals(T).imag).max() > 0.05


def test_sample_determinism():
    a = sample(parse_ensemble("ginibre:n=8,seed=5"))
    b = sample(parse_ensemble("ginibre:n=8,seed=5"))
    assert np.array_equal(a, b)
    c = sample(parse_ensemble("ginibre:n=8,seed=6"))
    assert not np.array_equal(a, c)


def test_spec_string_roundtrip():
    spec = parse_ensemble("elliptic:n=16,rho=-0.5,seed=12")
    assert spec.kind == "elliptic" and spec.n == 16 and spec.seed == 12
    assert spec.param("rho", 0.0) == -0.5
    back = parse_ensemble(spec.spec_string())
    assert back == spec
    with pytest.raises(ValueError):
        parse_ensemble("ginibre:seed=1")
    with pytest.raises(ValueError):
        parse_ensemble("wishart:n=4")


def test_corpus_contents():
    specs = corpus()
    assert len(specs) >= 40
    assert any(s.kind == "jordan" and s.n == 4 and s.param("lam", 0) == 2.0
               for s in specs)
    kinds = {s.kind for s in specs}
    assert kinds == {"ginibre", "elliptic", "jordan", "strict_upper",
                     "normal_plus_nilpotent", "diag_perturb"}
    sizes = [s.n for s in specs]
    assert min(sizes) <= 2 and max(sizes) == 64


def test_curve_stress_entries_sit_on_cell_edges():
    stress = curve_stress_matrices()
    assert len(stress) == 2
    for _, M in stress:
        assert operator_norm(M) == 1.0
    # entries on the level-1 vertical edge through 0
    m1 = stress[0][1]
    assert any(z.real == 0.0 and z != 0 for z in np.diag(m1))
    assert any(z == 0.0 for z in np.diag(m1))


def _mismatches(manifest):
    """Specs whose entry differs from the frozen file, position by position."""
    return [entry["spec"] for entry, want in zip(manifest, DIGESTS) if entry != want]


def test_corpus_digests_frozen():
    manifest = corpus_manifest()
    assert manifest == DIGESTS, f"entries differ from the frozen file: {_mismatches(manifest)}"


def test_corpus_matrices_match_digests():
    matrices = corpus_matrices()
    assert len(matrices) == len(DIGESTS)
    names = [(name, entry["spec"]) for (name, _), entry in zip(matrices, DIGESTS)
             if name != entry["spec"]]
    assert not names, f"names differ from the frozen specs: {names}"
    wrong = [name for (name, M), entry in zip(matrices, DIGESTS)
             if matrix_digest(M) != entry["digest"]]
    assert not wrong, f"digests differ for: {wrong}"


def _cpu_dispatch_names() -> list[str]:
    try:
        from numpy._core._multiarray_umath import __cpu_dispatch__
    except ImportError:  # numpy < 2
        from numpy.core._multiarray_umath import __cpu_dispatch__
    return list(__cpu_dispatch__)


def test_corpus_digests_independent_of_cpu_kernels():
    # the frozen digests must not depend on which kernels this CPU selects:
    # numpy's dispatched SIMD loops, libm's FMA variants, the BLAS core type
    # and thread count; each setting is applied to a child process only
    settings = [
        {"NPY_DISABLE_CPU_FEATURES": " ".join(_cpu_dispatch_names())},
        {"GLIBC_TUNABLES": "glibc.cpu.hwcaps=-AVX2,-FMA"},
        {"OPENBLAS_CORETYPE": "Prescott"},
        {"OPENBLAS_NUM_THREADS": "1"},
    ]
    src = str(Path(specord.__file__).resolve().parent.parent)
    code = ("import json; from specord.ensembles import corpus_manifest; "
            "print(json.dumps(corpus_manifest()))")
    for setting in settings:
        path = [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]
        env = {**os.environ, **setting, "PYTHONPATH": os.pathsep.join(path)}
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, (setting, proc.stderr[-2000:])
        manifest = json.loads(proc.stdout.splitlines()[-1])
        assert manifest == DIGESTS, (setting, _mismatches(manifest))


def test_row_sums_run_top_to_bottom():
    # the sampler's sums are np.add.reduce over an outer axis; the digests
    # assume it adds the rows in order, whatever the row length
    rng = np.random.default_rng(0)
    for shape, axis in [((2, 37, 5, 2), 1), ((64, 64), 0), ((9, 1, 2), 0)]:
        X = rng.standard_normal(shape) * 10.0 ** rng.integers(-12, 12, shape)
        acc = np.take(X, 0, axis=axis)
        for i in range(1, shape[axis]):
            acc = acc + np.take(X, i, axis=axis)
        assert np.array_equal(np.add.reduce(X, axis=axis), acc)


def test_elementary_polynomials_match_libm():
    k = np.arange(0, 2 ** 20, 7, dtype=np.float64)
    u = np.concatenate([k * 2.0 ** -20, [0.0, 0.125, 0.25, 0.375, 0.5, 0.75,
                                         0.875, 1.0 - 2.0 ** -53]])
    assert np.max(np.abs(_log1m(u) - np.log1p(-u)) / np.abs(np.log1p(-u)).clip(1e-300)) <= 4e-16
    assert _log1m(np.zeros(1))[0] == 0.0
    cos, sin = _cos_sin_2pi(u)
    # the reference rounds 2 pi u first, which costs up to ~4e-16 itself
    assert np.max(np.abs(cos - np.cos(2 * np.pi * u))) <= 1e-15
    assert np.max(np.abs(sin - np.sin(2 * np.pi * u))) <= 1e-15
    assert np.max(np.abs(cos * cos + sin * sin - 1.0)) <= 1e-15


def test_haar_unitary_is_unitary():
    U = _Rand(3).unitary(256)
    assert np.linalg.norm(U.conj().T @ U - np.eye(256)) <= 1e-13


def test_haar_unitary_moments():
    # Haar measure on U(3): E tr U = 0, E |tr U|^2 = 1, E |U_11|^2 = 1/3
    samples = [_Rand(seed).unitary(3) for seed in range(2000)]
    tr = np.array([np.trace(U) for U in samples])
    assert abs(tr.mean()) <= 0.1
    assert abs(np.mean(np.abs(tr) ** 2) - 1.0) <= 0.1
    assert abs(np.mean([abs(U[0, 0]) ** 2 for U in samples]) - 1 / 3) <= 0.03


def test_normal_plus_nilpotent_is_haar_conjugate():
    # the sample is U A U* with A = diag(d) + strictly upper part, drawn in
    # the order d, upper part, unitary
    n, scale, seed = 40, 1.0, 9
    T = sample(EnsembleSpec("normal_plus_nilpotent", n, seed=seed,
                            params=(("scale", scale),)))
    rand = _Rand(seed)
    d = rand.disk_points(n)
    upper = rand.complex_normals(n * (n - 1) // 2)
    A = np.diag(d[:, 0] + 1j * d[:, 1])
    A[np.triu_indices(n, 1)] = scale * (upper[:, 0] + 1j * upper[:, 1]) / np.sqrt(n)
    U = rand.unitary(n)
    assert np.abs(U @ A @ U.conj().T - T).max() <= 1e-14
