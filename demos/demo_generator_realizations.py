"""Two independent builders of the same generator algebra, seen three ways.

Builds the helicity-basis sextet, which is the (l, 0) carrier of the
two-spin ladders, a two-spin ladder family on a (l, ldot) carrier, and
the direct-coupling family with its printed basis change, then runs the
commutator tables over each and shows they close identically.
"""

from helirep.core import RepLabel
from helirep.generators import (
    ab_from_families,
    basis_change,
    commutator_report,
    gn_ops,
    helicity_ops,
    split_families,
    waerden_ops,
)
from helirep.halfint import half

print("helicity realization, spin 2:")
ops = helicity_ops(half(4))
rep = commutator_report(ops, "lorentz")
print(f"  {len(rep['residuals'])} bracket relations, "
      f"max residual {rep['max_residual']:.2e}")
assert rep["max_residual"] <= 1e-12

families = split_families(ops)
pair = commutator_report(families, "su2_pair")
print(f"  split into two commuting families: max {pair['max_residual']:.2e}")
assert pair["max_residual"] <= 1e-12

print("two-spin ladder realization, (1, 1/2):")
ladders = waerden_ops(half(2), half(1))
lad = commutator_report(ladders, "ladder")
lor = commutator_report(ab_from_families(ladders), "lorentz")
print(f"  ladder table max {lad['max_residual']:.2e}, "
      f"recombined table max {lor['max_residual']:.2e}")
assert max(lad["max_residual"], lor["max_residual"]) <= 1e-12

print("direct-coupling realization, base spin 1 with 3 levels:")
# The irrep (1, 2): Gel'fand-Naimark's l0 = 2 - 1 = 1, towers 1, 2, 3.
mapped = basis_change(gn_ops(RepLabel(half(2), half(4))))
rep = commutator_report(mapped, "lorentz")
print(f"  after the printed basis change: max {rep['max_residual']:.2e}")
assert rep["max_residual"] <= 1e-12
print("all three realizations satisfy the same bracket tables")
