"""Shared hypothesis strategies and oracles for the test suite."""

from hypothesis import strategies as st

from orbifunctor.catmod import CatModule, CatTensor
from orbifunctor.exact_abelian import AbHom, FpAbGroup, HomBasis, IntMatrix

small_entries = st.integers(min_value=-20, max_value=20)


@st.composite
def int_matrices(draw, max_rows=6, max_cols=6, entries=small_entries,
                 min_rows=0, min_cols=0):
    m = draw(st.integers(min_rows, max_rows))
    n = draw(st.integers(min_cols, max_cols))
    rows = [[draw(entries) for _ in range(n)] for _ in range(m)]
    return IntMatrix(m, n, rows)


@st.composite
def square_matrices(draw, max_n=4, entries=st.integers(-9, 9)):
    n = draw(st.integers(1, max_n))
    rows = [[draw(entries) for _ in range(n)] for _ in range(n)]
    return IntMatrix(n, n, rows)


@st.composite
def fp_groups(draw, max_rank=2, max_factors=2):
    rank = draw(st.integers(0, max_rank))
    k = draw(st.integers(0, max_factors))
    torsion = []
    t = 1
    for _ in range(k):
        t *= draw(st.integers(2, 6))
        torsion.append(t)
    return FpAbGroup.from_invariants(rank, torsion)


@st.composite
def ab_homs(draw, source=None, target=None):
    """A random valid homomorphism, built through Hom-group coordinates."""
    src = source if source is not None else draw(fp_groups())
    tgt = target if target is not None else draw(fp_groups())
    hb = HomBasis(src, tgt)
    coords = [draw(st.integers(-5, 5)) for _ in range(hb.group.ngens)]
    return hb.to_hom(coords)


@st.composite
def ab_homs_with_basis(draw, source=None, target=None):
    src = source if source is not None else draw(fp_groups())
    tgt = target if target is not None else draw(fp_groups())
    hb = HomBasis(src, tgt)
    coords = [draw(st.integers(-5, 5)) for _ in range(hb.group.ngens)]
    return hb, hb.to_hom(coords)


def stripped(module):
    """The same module without its free markers: the general paths."""
    return CatModule(module.cat, module.variance, module.values,
                     module.actions)


def coequalizer_oracle(fast: CatTensor):
    """(slow, iso) for a tensor whose left factor is free-marked: slow is the
    coequalizer of the stripped copy, and iso: fast.group -> slow.group sends
    generator y of N(c_k) to the class, in the coequalizer, of the generator
    pair (k, id) ⊗ y at c_k."""
    slow = CatTensor(stripped(fast.left), fast.right)
    free, ids = fast.left, fast.cat.ids
    cols = []
    for k, c in enumerate(free.free_gens):
        x = [0] * free.values[c].ngens
        x[free.free_index[c][(k, ids[c])]] = 1
        n = fast.right.values[c].ngens
        cols.extend(slow.class_of_pure(c, x, [int(i == b) for i in range(n)])
                    for b in range(n))
    pres = IntMatrix.from_columns(cols, nrows=slow.group.ngens)
    return slow, AbHom(fast.group, slow.group, pres * fast.group.reps)
