"""Shared hypothesis strategies and oracles for the test suite."""

from hypothesis import strategies as st

from orbifunctor.catmod import COVARIANT, CatModule, CatTensor, ModuleMap
from orbifunctor.exact_abelian import (
    AbHom,
    DirectSum,
    FpAbGroup,
    HomBasis,
    IntMatrix,
    TensorBasis,
    block_hom,
    express_in_kernel,
    hom_from_presentation,
    hom_kernel,
    quotient_group,
)

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
    """The same module without its free markers: presented through its
    generating cover."""
    return CatModule(module.cat, module.variance, module.values,
                     module.actions)


class CoequalizerTensor:
    """The reference tensor M ⊗ N over the category: the quotient of the big
    sum ⊕_c M(c) ⊗ N(c) (`big`, its part c the `TensorBasis` `tensors[c]`)
    by the relations (x·φ) ⊗ y = x ⊗ (φ·y), one block per non-identity
    morphism φ: c → d, x in M(d), y in N(c).  `projection` maps the big
    sum's canonical coordinates onto `group`.  Markers are not read."""

    def __init__(self, left: CatModule, right: CatModule):
        self.left, self.right = left, right
        cat = self.cat = left.cat
        self.tensors = {c: TensorBasis(left.values[c], right.values[c])
                        for c in cat.objects}
        self.big = DirectSum([self.tensors[c].group for c in cat.objects])
        rel_cols = []
        for f in cat.morphisms:
            if cat.is_identity(f):
                continue
            c, d = cat.dom[f], cat.cod[f]
            # one relation per generator pair (x, y) of M(d) x N(c), x-major
            mcols = left.actions[f].matrix.transpose().nonzeros    # M(d) -> M(c)
            ncols = right.actions[f].matrix.transpose().nonzeros   # N(c) -> N(d)
            tc, td = self.tensors[c], self.tensors[d]
            at_c = [{} for _ in tc.entries]     # (x·f) ⊗ y, on pairs at c
            at_d = [{} for _ in td.entries]     # x ⊗ (f·y), on pairs at d
            col = 0
            for x in range(left.values[d].ngens):
                for y in range(right.values[c].ngens):
                    for a, v in mcols[x].items():
                        k = tc.index.get((a, y))
                        if k is not None:
                            at_c[k][col] = v
                    for b, w in ncols[y].items():
                        k = td.index.get((x, b))
                        if k is not None:
                            at_d[k][col] = w
                    col += 1
            rels = (self._pairs_to_big(c, IntMatrix(len(at_c), col,
                                                    nonzeros=at_c))
                    - self._pairs_to_big(d, IntMatrix(len(at_d), col,
                                                      nonzeros=at_d)))
            rel_cols.extend(self.big.group.reduce_matrix(rels).columns())
        self.group, self.projection = quotient_group(self.big.group, rel_cols)

    def _pairs_to_big(self, c, pairs: IntMatrix) -> IntMatrix:
        # columns on the generator pairs of the tensor at c -> canonical
        # coordinates of the big sum (unreduced)
        big = self.big
        placed = [{}] * big.total_gens
        lo = big.offsets[self.cat.objects.index(c)]
        rows = (self.tensors[c].group.to_can * pairs).nonzeros
        placed[lo:lo + len(rows)] = rows
        return big.group.to_can * IntMatrix(big.total_gens, pairs.ncols,
                                            nonzeros=placed)

    def class_of_pure(self, c, x, y):
        """Class of the elementary tensor x ⊗ y sitting at object c."""
        raw = self.big.embed(self.cat.objects.index(c),
                             self.tensors[c].pure(x, y))
        return self.projection.apply(self.big.group.to_canonical(raw))

    def components(self, can_vec):
        """One representative of a class: the canonical coordinates of each
        `tensors[c]`."""
        rep = self.group.representative(can_vec)
        return {c: self.big.project(i).apply(rep)
                for i, c in enumerate(self.cat.objects)}

    def induced(self, other: "CoequalizerTensor", v: ModuleMap | None,
                u: ModuleMap | None) -> AbHom:
        """The map of coequalizers through the big sums: per-object tensor
        maps, assembled and pushed through both witness pairs."""
        blocks = {}
        for i, c in enumerate(self.cat.objects):
            lm = v.components[c] if v else AbHom.identity(self.left.values[c])
            rm = u.components[c] if u else AbHom.identity(self.right.values[c])
            blocks[(i, i)] = self.tensors[c].induced(other.tensors[c], lm, rm)
        big = block_hom(self.big, other.big, blocks)
        return hom_from_presentation(self.group, other.group, big.matrix)


def coequalizer_oracle(ct: CatTensor):
    """(slow, iso): slow is the coequalizer of ct's factors, and iso:
    ct.group -> slow.group sends generator y of N(c_k), the summand of
    generator k of ct's cover, to the class in slow of x_k ⊗ y at c_k, x_k
    the point of M(c_k) that generator k covers."""
    slow = CoequalizerTensor(ct.left, ct.right)
    cols = []
    for c, slot in zip(ct.pres.cover.free_gens, ct.pres.slots):
        x = [int(i == slot) for i in range(ct.left.values[c].ngens)]
        n = ct.right.values[c].ngens
        cols.extend(slow.class_of_pure(c, x, [int(i == b) for i in range(n)])
                    for b in range(n))
    pres = IntMatrix.from_columns(cols, nrows=slow.group.ngens)
    return slow, AbHom(ct.group, slow.group, pres * ct.group.reps)


class EqualizerHom:
    """The reference group of natural transformations M => N (same
    variance): the kernel, inside ⊕_c Hom(M(c), N(c)) (`big`, its part c the
    `HomBasis` `bases[c]`), of the stacked naturality constraints over all
    non-identity morphisms.  Markers are not read."""

    def __init__(self, source: CatModule, target: CatModule):
        self.source, self.target = source, target
        cat = self.cat = source.cat
        self.bases = {c: HomBasis(source.values[c], target.values[c])
                      for c in cat.objects}
        self.big = DirectSum([self.bases[c].group for c in cat.objects])
        constraints = []      # (constraint hom from big.group, target basis)
        for f in cat.morphisms:
            if cat.is_identity(f):
                continue
            # f acts from s to t; N(f)∘τ_s − τ_t∘M(f) : Hom(M(s), N(t)) when
            # covariant, its negative when contravariant
            a, b = cat.dom[f], cat.cod[f]
            s, t = (a, b) if source.variance == COVARIANT else (b, a)
            mixed = HomBasis(source.values[s], target.values[t])
            post = self.bases[s].postcompose(mixed, target.actions[f]).compose(
                self.big.project(cat.objects.index(s)))
            pre = self.bases[t].precompose(mixed, source.actions[f]).compose(
                self.big.project(cat.objects.index(t)))
            if source.variance == COVARIANT:
                constraints.append(post.add(pre.negate()))
            else:
                constraints.append(pre.add(post.negate()))
        tgt_sum = DirectSum([p.target for p in constraints])
        delta = tgt_sum.hom_into(self.big.group, constraints)
        self.group, self.kernel, self.inclusion = hom_kernel(delta)

    def to_module_map(self, can_vec) -> ModuleMap:
        v = self.inclusion.apply(can_vec)
        return ModuleMap(self.source, self.target, {
            c: self.bases[c].to_hom(self.big.project(i).apply(v))
            for i, c in enumerate(self.cat.objects)})

    def coords_of(self, mm: ModuleMap):
        """Raises ValueError on a map that is not natural."""
        return self._coords_of_all([mm]).column(0)

    def _coords_of_all(self, maps) -> IntMatrix:
        # one column of kernel coordinates per module map, in one solve
        cols = [self.big.assemble([self.bases[c].coords_of(mm.components[c])
                                   for c in self.cat.objects]) for mm in maps]
        return express_in_kernel(self.kernel, IntMatrix.from_columns(
            cols, nrows=self.big.group.ngens))

    def postcompose_map(self, other: "EqualizerHom", u: ModuleMap) -> AbHom:
        """τ ↦ u∘τ, generator by generator."""
        return self._generatorwise(other, u.compose)

    def precompose_map(self, other: "EqualizerHom", v: ModuleMap) -> AbHom:
        """τ ↦ τ∘v, generator by generator."""
        return self._generatorwise(other, lambda tau: tau.compose(v))

    def _generatorwise(self, other: "EqualizerHom", move) -> AbHom:
        # column j: coordinates in `other` of move(τ_j), τ_j the j-th
        # generator of this group
        n = self.group.ngens
        return AbHom(self.group, other.group, other._coords_of_all(
            move(self.to_module_map([1 if i == j else 0 for i in range(n)]))
            for j in range(n)))
