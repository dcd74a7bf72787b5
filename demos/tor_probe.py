# Tor of cyclic modules, first directly over a one-object category, then via
# the graded probe that tracks how a diagonal element obstructs interchange.

from orbifunctor.fincat import FinGroup, one_object_category
from orbifunctor.catmod import constant_module, COVARIANT, CONTRAVARIANT
from orbifunctor.chainplex import tor
from orbifunctor.exact_abelian import format_group
from orbifunctor.verify import tor_interchange_probe

# Over the trivial category a module is just an abelian group and tor reduces
# to classical Tor: Tor_1(Z/a, Z/b) = Z/gcd(a, b).
pt = one_object_category(FinGroup.trivial())
from orbifunctor.exact_abelian import FpAbGroup
for a, b in [(4, 6), (8, 12), (9, 27)]:
    left = constant_module(pt, FpAbGroup.cyclic(a), CONTRAVARIANT)
    right = constant_module(pt, FpAbGroup.cyclic(b), COVARIANT)
    print(f"Tor_1(Z/{a}, Z/{b}) = {format_group(tor(left, right, 1))}")

print()

# The probe assembles blocks Z/p^min(m, n) for m, n up to the chosen tops.
# Reordering the blocks is an isomorphism, so the finite part of the
# interchange map is fine; the interesting element is the diagonal one.
for n_top in range(2, 9):
    r = tor_interchange_probe(2, 8, n_top)
    print(f"p=2, N={n_top}: block reorder iso={r.window_iso}, "
          f"diagonal order={r.delta_order} (bound {r.top_order_bound})")

print()

# Whether the diagonal lies in the image of the block map depends on which
# top dominates.  M >= N puts it inside; M < N leaves a residue.
for m_top in range(2, 6):
    row = []
    for n_top in range(2, 6):
        r = tor_interchange_probe(2, m_top, n_top)
        row.append("in" if r.membership else "out")
    print(f"M={m_top}:", " ".join(f"N={n}:{v}" for n, v in zip(range(2, 6), row)))

# Same story at an odd prime.
r = tor_interchange_probe(3, 4, 5)
print(f"\np=3, M=4, N=5: order={r.delta_order}, membership={r.membership}")
