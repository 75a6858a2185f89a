"""Shared test inputs: the fixed matrix zoo, coefficient vectors and weights.

Randomized inputs are drawn once from seeded generators so goldens and
failures stay reproducible between runs.
"""

from __future__ import annotations

import random
from fractions import Fraction

from vpart import (
    ConstantOne,
    GeometricWeights,
    LatticePathCount,
    NotPointedError,
    StepMatrix,
    TableWeight,
    certify_pointed,
)

UNIT_1D = StepMatrix([(1,)])
BASIS_2D = StepMatrix([(1, 0), (0, 1)])
DELANNOY = StepMatrix([(1, 0), (0, 1), (1, 1)])
MIXED_SIGN = StepMatrix([(2, -1), (-1, 2)])
TWO_ONES = StepMatrix([(1,), (1,)])
GAPPED = StepMatrix([(2,), (3,)])
R3 = StepMatrix([(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)])
# rank 2 in three dimensions, with a repeated column
REPEATED_3D = StepMatrix([(1, 0, 1), (0, 1, 1), (1, 0, 1)])
# the index-2 sublattice of even coordinate sums, with one free column
EVEN_3D = StepMatrix([(1, 1, 0), (1, 0, 1), (0, 1, 1), (2, 0, 0)])


def random_pointed_matrix(seed: int, dim: int = 2, nsteps: int = 4) -> StepMatrix:
    rng = random.Random(seed)
    while True:
        cols = [tuple(rng.randint(-2, 2) for _ in range(dim)) for _ in range(nsteps)]
        if any(all(v == 0 for v in col) for col in cols):
            continue
        matrix = StepMatrix(cols)
        try:
            certify_pointed(matrix)
        except NotPointedError:
            continue
        return matrix


RANDOM_2X4 = random_pointed_matrix(seed=1105)

# the main zoo: every identity that quantifies over "all test matrices" runs here
MAIN_MATRICES = [UNIT_1D, BASIS_2D, DELANNOY, MIXED_SIGN, RANDOM_2X4]
PATH_SERIES_MATRICES = [DELANNOY, BASIS_2D, TWO_ONES]


def random_table_weight(seed: int, nsteps: int, corner: int = 2) -> TableWeight:
    rng = random.Random(seed)
    size = (corner + 1) ** nsteps
    values = [Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(size)]
    return TableWeight((corner,) * nsteps, values)


def geometric_for(nsteps: int) -> GeometricWeights:
    ratios = (Fraction(1, 2), Fraction(1, 3), Fraction(1, 5), Fraction(1, 7))
    return GeometricWeights(ratios[:nsteps])


def weights_for(matrix: StepMatrix, seed: int = 7) -> list:
    return [
        ConstantOne(),
        LatticePathCount(),
        geometric_for(matrix.nsteps),
        random_table_weight(seed, matrix.nsteps),
    ]


def coeff_vectors(nsteps: int) -> list[tuple[Fraction, ...]]:
    """Two fixed rational coefficient vectors per arity, no sum constraint."""
    first = (Fraction(1, 2), Fraction(-1, 3), Fraction(2), Fraction(1, 5))
    second = (Fraction(0), Fraction(1), Fraction(-1, 2), Fraction(3, 7))
    return [first[:nsteps], second[:nsteps]]
