"""Hexagon with the symmetric group S_3 acting.

Vertices alternate between two reflection orbits, edges form a single free
orbit.  The subgroup lattice of S_3 has six members in four conjugacy
classes, so this is the smallest example where the orbit category is not a
poset and the fixed-point systems genuinely differ between conjugates.
"""

from orbifunctor.fincat import FinGroup, SubgroupFamily, group_analysis, orbit_category
from orbifunctor.catmod import constant_module
from orbifunctor.cellspaces import hexagon_s3, fixed_point_chains, bredon_homology, centralizer_quotient_chains
from orbifunctor.chainplex import homology
from orbifunctor.exact_abelian import FpAbGroup, format_group
from orbifunctor.verify import instance_s3_hexagon, check_hypotheses, verify_comparison

ga = group_analysis(FinGroup.symmetric(3))
print("subgroups:", len(ga.subgroups), "conjugacy classes:", len(ga.conjugacy_classes))
for cls in ga.conjugacy_classes:
    sizes = sorted(len(h) for h in cls)
    print("  class of order", sizes[0], "with", len(cls), "member(s)")

# The space carries its own copy of the group, realized as permutations of
# the six vertices.  All constructions below have to use that copy.
x = hexagon_s3()
s3 = x.group
print("cells:", {n: x.cell_count(n) for n in range(x.dimension + 1)})
print("isotropy subgroup orders:",
      sorted(len(h) for h in x.isotropy_family().members))

family = SubgroupFamily.all(s3)
chains = fixed_point_chains(x, family)
print("fixed-point ranks by orbit object (degree 0, degree 1):")
for obj in chains.base.objects:
    r0 = chains.module(0).value(obj).rank
    r1 = chains.module(1).value(obj).rank
    print(f"  stabilizer order {len(obj)}: ({r0}, {r1})")

# Hexagon is a circle, so constant-Z Bredon homology sees the quotient arc:
# Z in degree 0 only.
coeffs = constant_module(orbit_category(s3, family), FpAbGroup.free(1), "co")
print("Bredon H_0:", format_group(bredon_homology(x, coeffs, 0)))
print("Bredon H_1:", format_group(bredon_homology(x, coeffs, 1)))

# Fixed set modulo centralizer for each reflection: an antipodal vertex pair
# with trivial residual action, so homology is free of rank two in degree 0.
for h in sorted(x.isotropy_family().members, key=lambda m: (len(m), sorted(m))):
    if len(h) != 2:
        continue
    cq = centralizer_quotient_chains(chains, s3, tuple(sorted(h)))
    print("fixed/centralizer for an order-2 stabilizer:",
          [format_group(homology(cq, p)) for p in cq.degrees()])

inst = instance_s3_hexagon()
hyp = check_hypotheses(inst)
rep = verify_comparison(inst)
print("hypotheses pass:", hyp.passed)
print("comparison all iso:", rep.all_iso)
