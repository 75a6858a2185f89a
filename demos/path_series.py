"""Truncated generating series for step-walk counts, three ways.

The number of walks from the origin to each target, using only the allowed
steps, has generating function 1 / (1 - sum of step monomials).  This script
builds that series by graded recursion, re-derives it by substituting step
monomials into the path-count series, and spot-checks both against direct
enumeration.
"""

from vpart import (
    LatticePathCount,
    LatticeVector,
    StepMatrix,
    certify_pointed,
    generalized_vp,
    geometric_inverse,
    substitute_monomial,
    weight_series,
)

steps = StepMatrix([(1, 0), (0, 1), (1, 1)])
cert = certify_pointed(steps)
bound = 4

# Route one: invert 1 - z^(1,0) - z^(0,1) - z^(1,1) up to degree 4.
inverse = geometric_inverse(steps, cert, bound)
print("walk-count series up to functional degree 4:")
print(inverse.render())
print()

# Route two: start from the series of plain path counts in step space and
# substitute each variable by its step monomial.  That series is the
# path-count table of the unit steps, so it comes from the same step pass as
# route one; `vpart verify prop2` checks the closed form by sides that share
# no code.
substituted = substitute_monomial(
    weight_series(LatticePathCount(), steps.nsteps, bound), steps, cert, bound
)
print("substitution route agrees:", substituted == inverse)

# Route three: weighted enumeration at a single target.
diagonal = LatticeVector((2, 2))
direct = generalized_vp(steps, cert, diagonal, LatticePathCount())
print(f"walks to {diagonal} by direct enumeration:", direct)
print(f"series coefficient at {diagonal}:", inverse.coefficient(diagonal))
print()

# With orthogonal unit steps the same machinery produces the binomials.
basis = StepMatrix([(1, 0), (0, 1)])
basis_cert = certify_pointed(basis)
print("unit-step series up to degree 3 (binomial coefficients):")
print(geometric_inverse(basis, basis_cert, 3).render())
