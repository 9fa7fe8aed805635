"""specord: spectral orderings and normal + quasinilpotent decompositions.

The library orders the spectrum of a dense complex matrix along a
space-filling (or otherwise measurable) curve, builds the increasing flag of
invariant-subspace projections induced by that order, assembles the projection
valued spectral measure generated by the flag, and splits the matrix as
``T = N + Q`` with ``N`` normal, ``Q`` quasinilpotent, and ``N`` carrying the
eigenvalue distribution of ``T``.
"""

from .core import (
    SchurConvergenceError,
    SchurForm,
    as_matrix,
    cluster_tolerance,
    fk_determinant,
    load_matrix,
    matrix_digest,
    operator_norm,
    save_matrix,
    schur_form,
)
from .curves import (
    HilbertCurve,
    LexicographicCurve,
    MortonCurve,
    OrderingCurve,
    RadialCurve,
    curve_for_matrix,
    parse_curve,
)
from .regions import Region, Square, ambient_square, parse_region
from .brown import (
    DensityGrid,
    PointMeasure,
    brown_density_grid,
    empirical_brown,
    measure_distance,
    region_mass,
)
from .projections import (
    Projection,
    hs_projection,
    hyperinvariance_check,
)
from .spectral import SpectralTable, build_table, decompose
from .ensembles import EnsembleSpec, corpus, parse_ensemble, sample

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
