"""Shared hypothesis strategies and oracles for the test suite."""

from hypothesis import strategies as st

from orbifunctor.catmod import (
    COVARIANT,
    CatHomGroup,
    CatModule,
    CatTensor,
    ModuleMap,
)
from orbifunctor.chainplex import (
    ChainMap,
    PlainChainComplex,
    homology,
    induced_map_on_homology,
)
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
    is_isomorphism,
    quotient_group,
)
from orbifunctor.fincat import FinCategory
from orbifunctor.verify import classify_map

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


def eager_free_map(free, target, images) -> ModuleMap:
    """The map out of a free-marked module sending generator i to images[i],
    every component built at once: the column of label (i, φ) is the action
    matrix of φ applied to image i.  The reference for
    `catmod.free_map_from_images`, which builds each component on its first
    read and moves labels on a free-marked target without that matrix."""
    reduced = [target.values[c].reduce(img)
               for img, c in zip(images, free.free_gens)]
    components = {}
    for w in free.cat.objects:
        rows = [{} for _ in range(target.values[w].ngens)]
        for j, (i, phi) in enumerate(free.free_basis[w]):
            col = target.actions[phi].matrix.apply(reduced[i])
            for r, x in enumerate(col):
                if x:
                    rows[r][j] = x
        mat = IntMatrix(len(rows), len(free.free_basis[w]), nonzeros=rows)
        components[w] = AbHom(free.values[w], target.values[w], mat,
                              check=False)
    return ModuleMap(free, target, components)


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


class PairTotal:
    """The reference total complex, one part per degree pair: parts[(p, q)]
    = part(left_p, right_q) (a `CatTensor` or `CatHomGroup`), keys[n] the
    pairs of degree n in ascending p, sums[n] the direct sum of their
    groups, and d assembled block by block from the parts' induced maps,
    each edge ((dp, dq), reads, block) mapping the summand (p, q) into (p +
    dp, q + dq) by block(source part, target part, *reads(p, q)).  Its
    degree n is presented on the same evaluations as chainplex's totals
    (`to_total`)."""

    def __init__(self, left, right, part, degree, edges):
        self.left, self.right = left, right
        pairs = sorted(((p, q) for p in left.degrees() for q in right.degrees()),
                       key=lambda k: (degree(*k), k))
        self.parts = {(p, q): part(left.module(p), right.module(q))
                      for p, q in pairs}
        self.keys = {}
        for k in pairs:
            self.keys.setdefault(degree(*k), []).append(k)
        self.sums = {n: DirectSum([self.parts[k].group for k in ks])
                     for n, ks in self.keys.items()}
        lo, hi = min(self.keys), max(self.keys)
        self.complex = PlainChainComplex(
            lo, hi, {n: s.group for n, s in self.sums.items()},
            {n: _blockwise(self, self, n, n - 1, edges)
             for n in range(lo + 1, hi + 1)})


def _blockwise(src, tgt, n, m, edges) -> AbHom:
    keys = tgt.keys.get(m, [])
    blocks = {}
    for jdx, (p, q) in enumerate(src.keys[n]):
        for (dp, dq), reads, block in edges:
            to = (p + dp, q + dq)
            if to in keys:
                blocks[(keys.index(to), jdx)] = block(
                    src.parts[(p, q)], tgt.parts[to], *reads(p, q))
    return block_hom(src.sums[n], tgt.sums[m], blocks)


def pair_tensor_total(left, right) -> PairTotal:
    """C ⊗ E: d(x ⊗ y) = dx ⊗ y + (-1)^p x ⊗ dy, one `CatTensor` per pair."""
    def d_right(a, b, d, odd):
        h = a.induced(b, None, d)
        return h.negate() if odd else h
    return PairTotal(left, right, CatTensor, lambda p, q: p + q, (
        ((-1, 0), lambda p, q: (left.diff(p),),
         lambda a, b, d: a.induced(b, d, None)),
        ((0, -1), lambda p, q: (right.diff(q), p % 2 == 1), d_right)))


def pair_hom_total(source, target) -> PairTotal:
    """hom(D, E): (dφ)_p = d_E ∘ φ_p − (−1)^n φ_{p−1} ∘ d_D, one
    `CatHomGroup` per pair."""
    def d_source(a, b, d, odd):
        h = a.precompose_map(b, d)
        return h if odd else h.negate()
    return PairTotal(source, target, CatHomGroup, lambda p, q: q - p, (
        ((0, -1), lambda p, q: (target.diff(q),),
         lambda a, b, d: a.postcompose_map(b, d)),
        ((1, 0), lambda p, q: (source.diff(p + 1), (q - p) % 2 == 1),
         d_source)))


def _pair_induced(src, tgt, reads, block) -> ChainMap:
    edges = (((0, 0), reads, block),)
    return ChainMap(src.complex, tgt.complex, {
        n: _blockwise(src, tgt, n, n, edges)
        for n in src.keys if n in tgt.sums})


def pair_tensor_induced(src, tgt, left_maps=None, right_maps=None):
    left_maps, right_maps = left_maps or {}, right_maps or {}
    return _pair_induced(src, tgt,
                         lambda p, q: (left_maps.get(p), right_maps.get(q)),
                         lambda a, b, f, g: a.induced(b, f, g))


def pair_hom_induced(src, tgt, target_maps):
    return _pair_induced(src, tgt, lambda p, q: (target_maps[q],),
                         lambda a, b, u: a.postcompose_map(b, u))


def to_total(oracle: PairTotal, total, n) -> AbHom:
    """The map from degree n of the oracle to degree n of a chainplex total
    that is the identity on their common evaluation coordinates: each part's
    canonical coordinates are read on its evaluation through its witness."""
    reps = [oracle.parts[k].group.reps for k in oracle.keys[n]]
    rows, shift = [], 0
    for r in reps:
        rows.extend({j + shift: x for j, x in nz.items()} for nz in r.nonzeros)
        shift += r.ncols
    return hom_from_presentation(oracle.complex.group(n),
                                 total.complex.group(n),
                                 IntMatrix(len(rows), shift, nonzeros=rows))


def in_total(total, n, pair, vec):
    """Canonical coordinates, in degree n of a chainplex total, of the
    element that is vec on the evaluation of `pair` (its groups' canonical
    coordinates, concatenated) and zero elsewhere."""
    s = total.sums[n]
    pres = [0] * s.total_gens
    lo = s.offsets[total.at[pair]]
    pres[lo:lo + len(vec)] = vec
    return total.complex.group(n).to_canonical(pres)


def of_total(total, n, pair, vec):
    """The summands of the pair in a representative of the degree-n class
    vec: one reduced vector per group of the pair's evaluation."""
    s = total.sums[n]
    rep = total.complex.group(n).representative(vec)
    out = []
    for i, g in enumerate(total.parts[pair], total.at[pair]):
        lo = s.offsets[i]
        out.append(g.reduce(rep[lo:lo + g.ngens]))
    return out


def assert_matches_oracle(total, oracle):
    """total has the oracle's degree groups and homology, and the map that is
    the identity on their common evaluation coordinates is an isomorphism of
    complexes; returns that map, degree by degree."""
    cx, ox = total.complex, oracle.complex
    assert (cx.lo, cx.hi) == (ox.lo, ox.hi)
    to = {n: to_total(oracle, total, n) for n in cx.degrees()}
    for n in cx.degrees():
        assert cx.group(n) == ox.group(n)
        assert is_isomorphism(to[n])
        if n > cx.lo:
            assert cx.differential(n).compose(to[n]) == \
                to[n - 1].compose(ox.differential(n))
    for n in range(cx.lo - 1, cx.hi + 2):
        assert homology(cx, n) == homology(ox, n)
    return to


def assert_map_matches_oracle(f, g, src_to, tgt_to):
    """f and the oracle's g agree through the identifications of both ends,
    and have the same class in every degree, on chains and on homology."""
    for n in f.source.degrees():
        if n in tgt_to:
            assert f.component(n).compose(src_to[n]) == \
                tgt_to[n].compose(g.component(n))
        assert classify_map(f.component(n)) == classify_map(g.component(n))
        assert classify_map(induced_map_on_homology(f, n)) == \
            classify_map(induced_map_on_homology(g, n))


def subgroups_by_rounds(group):
    """The reference subgroup lattice: the cyclic subgroups, then rounds
    that join every subgroup found so far with every element outside it,
    until a round finds nothing new; ordered by (size, sorted elements)."""
    found = {frozenset([group.identity])}
    for g in group.elements:
        found.add(group.subgroup_generated([g]))
    while True:
        new = set()
        for sub in found:
            for g in group.elements:
                if g not in sub:
                    bigger = group.subgroup_generated(list(sub) + [g])
                    if bigger not in found:
                        new.add(bigger)
        if not new:
            break
        found |= new
    return tuple(sorted(found, key=lambda s: (len(s), sorted(s))))


def orbit_category_by_labels(group, family):
    """The reference orbit category, built on element labels: for each pair
    of members H, K and each coset gK, the morphism (H, K, gK) exists when
    r^-1 H r <= K for the least element r of gK; composites multiply those
    representatives; morphisms in sorted order."""
    objects = [tuple(sorted(m)) for m in family.members]
    labels = {}
    for o in objects:
        labels[o] = {}
        for g in group.elements:
            if g not in labels[o]:
                lab = tuple(sorted(group.mult(g, k) for k in o))
                labels[o].update(dict.fromkeys(lab, lab))
    reps = {}
    for h_lab in objects:
        for k_lab in objects:
            k_sub = frozenset(k_lab)
            for coset in dict.fromkeys(labels[k_lab].values()):
                r = min(coset)
                if all(group.conjugate(r, h) in k_sub for h in h_lab):
                    reps[(h_lab, k_lab, coset)] = r
    dom = {f: f[0] for f in reps}
    cod = {f: f[1] for f in reps}
    morphisms = sorted(reps)
    out = {}
    for g in morphisms:
        out.setdefault(dom[g], []).append(g)
    table = {(f, g): (dom[f], cod[g],
                      labels[cod[g]][group.mult(reps[f], reps[g])])
             for f in morphisms for g in out.get(cod[f], ())}
    return FinCategory(objects, morphisms, dom, cod, table,
                       {o: (o, o, o) for o in objects})
