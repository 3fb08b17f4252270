"""Anticommuting generator towers and the transposition cover.

Builds the tensor-product Clifford generators, confirms exact
anticommutation and span bookkeeping, inspects the odd-rank direct sum,
and reads off the realized scalars of the transposition relations.
"""

from helirep.clifford import (
    brauer_weyl,
    odd_direct_sum,
    schur_transpositions,
    verify_clifford,
    verify_tn_relations,
)

for n in (4, 7):
    basis = brauer_weyl(n)
    rep = verify_clifford(basis)
    kind = "odd (block-doubled)" if basis.is_odd else "even"
    print(f"rank {n} [{kind}]: dim {basis.dim}, "
          f"anticommutation failures {len(rep['failures'])}, "
          f"span {rep['span_dim']}")
    assert rep["ok"]

odd = odd_direct_sum(3)
scal_a, scal_b = odd["volume_scalars"]
print(f"rank-7 direct sum: volume element central = {odd['volume_central']}, "
      f"opposite block scalars {scal_a} / {scal_b}")
print(f"  picking one block is multiplicative: largest entry between the "
      f"blocks {odd['projection_homomorphism_residual']:.2e} over all 128 "
      f"subset products")
assert odd["ok"]

gens = schur_transpositions(6)
rep = verify_tn_relations(gens)
print(f"transposition cover on 6 letters ({len(gens.t)} generators):")
print(f"  squares -> {rep['s1'].real:+.0f}, braid cubes -> "
      f"{rep['s2'].real:+.0f}, far pairs -> {rep['s3'].real:+.0f}")
assert rep["ok"]
assert rep["s3"] == -1
print("  far transpositions anticommute: the cover is projective")
