"""Bounded chain complexes: plain, over a category, and two-legged.

Plain complexes of f.p. abelian groups with homology and induced maps; chain
complexes of category modules; bifunctor complexes with a contravariant index
leg and a covariant coefficient leg; total tensor and hom complexes over the
base category; and the comparison chain map from tensor-of-hom to
hom-of-tensor.

Sign conventions (frozen; homology is insensitive to the choice but maps are
not, so one set is fixed and stated):
  - tensor total: d(x ⊗ y) = dx ⊗ y + (-1)^p x ⊗ dy for x in degree p;
  - hom total, degree n piece ⊕_p Hom(D_p, E_{p+n}):
    (dφ)_p = d_E ∘ φ_p − (−1)^n φ_{p−1} ∘ d_D.
The comparison map itself carries no signs: x ⊗ φ goes to y ↦ x ⊗ φ(y).

Both inputs of every total construction must be bounded; a degree window of
size n only ever reads the coefficient complex in degrees up to n plus the
index-complex dimension plus one.
"""

from __future__ import annotations

from .exact_abelian import (
    AbHom,
    DirectSum,
    FpAbGroup,
    HomologyData,
    IntMatrix,
    block_hom,
)
from .catmod import (
    CatHomGroup,
    CatModule,
    CatTensor,
    ModuleMap,
    zero_module,
)


class PlainChainComplex:
    """Bounded complex of f.p. abelian groups; d_p: C_p -> C_{p-1}."""

    __slots__ = ("lo", "hi", "groups", "diffs")

    def __init__(self, lo, hi, groups, diffs):
        if lo > hi:
            raise ValueError("empty degree range")
        self.lo = lo
        self.hi = hi
        self.groups = {p: groups[p] for p in range(lo, hi + 1)}
        self.diffs = {}
        for p in range(lo + 1, hi + 1):
            d = diffs.get(p)
            if d is None:
                d = AbHom.zero(self.groups[p], self.groups[p - 1])
            if d.source != self.groups[p] or d.target != self.groups[p - 1]:
                raise ValueError(f"differential at degree {p} has wrong endpoints")
            self.diffs[p] = d
        for p in range(lo + 2, hi + 1):
            if not self.diffs[p - 1].compose(self.diffs[p]).is_zero():
                raise ValueError(f"d∘d is nonzero out of degree {p}")

    def group(self, p) -> FpAbGroup:
        return self.groups.get(p, FpAbGroup.zero())

    def differential(self, p) -> AbHom:
        d = self.diffs.get(p)
        if d is None:
            d = AbHom.zero(self.group(p), self.group(p - 1))
        return d

    def degrees(self):
        return range(self.lo, self.hi + 1)

    def __repr__(self):
        parts = ", ".join(f"{p}: {self.groups[p]!r}" for p in self.degrees())
        return f"PlainChainComplex([{self.lo},{self.hi}], {parts})"


def complex_concentrated(group: FpAbGroup, degree: int) -> PlainChainComplex:
    return PlainChainComplex(degree, degree, {degree: group}, {})


def homology_data(c: PlainChainComplex, p) -> HomologyData:
    """Cycle/boundary bookkeeping at degree p, zero-extended outside range."""
    return HomologyData(c.differential(p + 1), c.differential(p),
                        space=c.group(p))


def homology(c: PlainChainComplex, p) -> FpAbGroup:
    """H_p in canonical form; degrees outside the range give 0.

    >>> z = FpAbGroup.free(1)
    >>> c = PlainChainComplex(0, 1, {0: z, 1: z},
    ...                       {1: AbHom(z, z, IntMatrix.from_rows([[2]]))})
    >>> homology(c, 0)
    FpAbGroup(Z/2)
    >>> homology(c, 1)
    FpAbGroup(0)
    """
    if p < c.lo - 1 or p > c.hi:
        return FpAbGroup.zero()
    return homology_data(c, p).group


def euler_characteristic(c: PlainChainComplex):
    return sum((-1) ** p * c.group(p).rank for p in c.degrees())


class ChainMap:
    """Degreewise map of plain complexes; commutation with d is checked."""

    __slots__ = ("source", "target", "components")

    def __init__(self, source, target, components, check=True):
        self.source = source
        self.target = target
        self.components = dict(components)
        for p, h in self.components.items():
            if h.source != source.group(p) or h.target != target.group(p):
                raise ValueError(f"component at degree {p} has wrong endpoints")
        if check:
            for p in range(min(source.lo, target.lo),
                           max(source.hi, target.hi) + 1):
                lhs = target.differential(p).compose(self.component(p))
                rhs = self.component(p - 1).compose(source.differential(p))
                if lhs != rhs:
                    raise ValueError(f"does not commute with d at degree {p}")

    @classmethod
    def identity(cls, c: PlainChainComplex):
        return cls(c, c, {p: AbHom.identity(c.group(p)) for p in c.degrees()},
                   check=False)

    def component(self, p) -> AbHom:
        h = self.components.get(p)
        if h is None:
            h = AbHom.zero(self.source.group(p), self.target.group(p))
        return h

    def compose(self, first: "ChainMap") -> "ChainMap":
        degs = set(self.components) | set(first.components)
        return ChainMap(first.source, self.target,
                        {p: self.component(p).compose(first.component(p))
                         for p in degs}, check=False)

    def is_zero(self):
        return all(h.is_zero() for h in self.components.values())


def induced_map_on_homology(f: ChainMap, p) -> AbHom:
    """H_p(f) between canonical homology forms, via cycle transport."""
    hsrc = homology_data(f.source, p)
    htgt = homology_data(f.target, p)
    # column j: the image of a cycle representing the j-th generator
    moved = f.component(p).matrix * hsrc.inclusion.matrix * hsrc.group.reps
    cols = [htgt.class_of(col) for col in moved.columns()]
    mat = IntMatrix.from_columns(cols, nrows=htgt.group.ngens)
    return AbHom(hsrc.group, htgt.group, mat)


# ---------------------------------------------------------------------------
# Complexes of category modules
# ---------------------------------------------------------------------------


class CatChainComplex:
    """Bounded complex of modules over one finite category, one variance."""

    __slots__ = ("base", "variance", "lo", "hi", "modules", "diffs")

    def __init__(self, base, variance, lo, hi, modules, diffs, check=True):
        if lo > hi:
            raise ValueError("empty degree range")
        self.base = base
        self.variance = variance
        self.lo = lo
        self.hi = hi
        self.modules = {p: modules[p] for p in range(lo, hi + 1)}
        for p, m in self.modules.items():
            if m.cat != base or m.variance != variance:
                raise ValueError(f"module at degree {p} has wrong base/variance")
        self.diffs = {}
        for p in range(lo + 1, hi + 1):
            d = diffs.get(p)
            if d is None:
                d = ModuleMap.zero(self.modules[p], self.modules[p - 1])
            self.diffs[p] = d
        if check:
            from .catmod import validate_module_map
            for p, d in self.diffs.items():
                if d.source is not self.modules[p] and \
                        d.source.values != self.modules[p].values:
                    raise ValueError(f"differential at {p} has wrong source")
                problems = validate_module_map(d)
                if problems:
                    raise ValueError(f"differential at {p} not natural: "
                                     f"{problems[0]}")
            for p in range(lo + 2, hi + 1):
                if not self.diffs[p - 1].compose(self.diffs[p]).is_zero():
                    raise ValueError(f"d∘d is nonzero out of degree {p}")

    def module(self, p) -> CatModule:
        m = self.modules.get(p)
        if m is None:
            m = zero_module(self.base, self.variance)
        return m

    def diff(self, p) -> ModuleMap:
        d = self.diffs.get(p)
        if d is None:
            d = ModuleMap.zero(self.module(p), self.module(p - 1))
        return d

    def degrees(self):
        return range(self.lo, self.hi + 1)

    def is_degreewise_free(self):
        return all(m.is_free_marked() for m in self.modules.values())

    def evaluate_at(self, obj) -> PlainChainComplex:
        groups = {p: self.modules[p].values[obj] for p in self.degrees()}
        diffs = {p: self.diffs[p].components[obj]
                 for p in range(self.lo + 1, self.hi + 1)}
        return PlainChainComplex(self.lo, self.hi, groups, diffs)


def cat_complex_concentrated(module: CatModule, degree: int) -> CatChainComplex:
    return CatChainComplex(module.cat, module.variance, degree, degree,
                           {degree: module}, {}, check=False)


# ---------------------------------------------------------------------------
# Bifunctor complexes (contravariant index leg, covariant coefficient leg)
# ---------------------------------------------------------------------------


class BiFunctorComplex:
    """A complex-valued functor of two variables on I^op × J.

    One shared degree window [lo, hi] for every object pair.  index_action
    maps a pair (φ: a -> b in I, j) to a ChainMap E(b,j) -> E(a,j);
    coeff_action maps (i, ψ: j1 -> j2 in J) to a ChainMap E(i,j1) -> E(i,j2).
    """

    __slots__ = ("index_base", "coeff_base", "lo", "hi", "complexes",
                 "index_action", "coeff_action")

    def __init__(self, index_base, coeff_base, complexes,
                 index_action, coeff_action):
        self.index_base = index_base
        self.coeff_base = coeff_base
        self.complexes = dict(complexes)
        ranges = {(c.lo, c.hi) for c in self.complexes.values()}
        if len(ranges) != 1:
            raise ValueError("all pair complexes must share one degree window")
        self.lo, self.hi = next(iter(ranges))
        for i in index_base.objects:
            for j in coeff_base.objects:
                if (i, j) not in self.complexes:
                    raise ValueError(f"no complex at pair ({i!r}, {j!r})")
        self.index_action = dict(index_action)
        self.coeff_action = dict(coeff_action)

    def complex(self, i, j) -> PlainChainComplex:
        return self.complexes[(i, j)]

    @classmethod
    def constant_in_index(cls, index_base, coeff_complex: CatChainComplex):
        """Every index object sees the same covariant coefficient complex."""
        if coeff_complex.variance != "co":
            raise ValueError("coefficient leg must be covariant")
        jcat = coeff_complex.base
        complexes = {}
        for i in index_base.objects:
            for j in jcat.objects:
                complexes[(i, j)] = coeff_complex.evaluate_at(j)
        index_action = {}
        for phi in index_base.morphisms:
            for j in jcat.objects:
                a, b = index_base.dom[phi], index_base.cod[phi]
                comps = {p: AbHom.identity(complexes[(a, j)].group(p))
                         for p in complexes[(a, j)].degrees()}
                index_action[(phi, j)] = ChainMap(
                    complexes[(b, j)], complexes[(a, j)], comps, check=False)
        coeff_action = {}
        for i in index_base.objects:
            for psi in jcat.morphisms:
                j1 = jcat.dom[psi]
                comps = {p: coeff_complex.module(p).action(psi)
                         for p in coeff_complex.degrees()}
                coeff_action[(i, psi)] = ChainMap(
                    complexes[(i, j1)],
                    complexes[(i, jcat.cod[psi])], comps, check=False)
        return cls(index_base, jcat, complexes, index_action, coeff_action)

    def column_complex_at(self, j) -> CatChainComplex:
        """E(-, j): a contravariant complex of modules over the index base."""
        cat = self.index_base
        modules = {}
        diffs = {}
        for q in range(self.lo, self.hi + 1):
            values = {i: self.complexes[(i, j)].group(q) for i in cat.objects}
            actions = {}
            for phi in cat.morphisms:
                actions[phi] = self.index_action[(phi, j)].component(q)
            modules[q] = CatModule(cat, "contra", values, actions)
        for q in range(self.lo + 1, self.hi + 1):
            diffs[q] = ModuleMap(modules[q], modules[q - 1],
                                 {i: self.complexes[(i, j)].differential(q)
                                  for i in cat.objects})
        return CatChainComplex(cat, "contra", self.lo, self.hi,
                               modules, diffs, check=False)

    def row_complex_at(self, i) -> CatChainComplex:
        """E(i, -): a covariant complex of modules over the coefficient base."""
        cat = self.coeff_base
        modules = {}
        diffs = {}
        for q in range(self.lo, self.hi + 1):
            values = {j: self.complexes[(i, j)].group(q) for j in cat.objects}
            actions = {}
            for psi in cat.morphisms:
                actions[psi] = self.coeff_action[(i, psi)].component(q)
            modules[q] = CatModule(cat, "co", values, actions)
        for q in range(self.lo + 1, self.hi + 1):
            diffs[q] = ModuleMap(modules[q], modules[q - 1],
                                 {j: self.complexes[(i, j)].differential(q)
                                  for j in cat.objects})
        return CatChainComplex(cat, "co", self.lo, self.hi,
                               modules, diffs, check=False)


def validate_bifunctor(e: BiFunctorComplex) -> list:
    """Both-leg functoriality and the commuting of the two actions."""
    problems = []
    icat, jcat = e.index_base, e.coeff_base
    for i in icat.objects:
        for j in jcat.objects:
            idm = e.index_action.get((icat.ids[i], j))
            if idm is None or not _chain_maps_equal(
                    idm, ChainMap.identity(e.complexes[(i, j)])):
                problems.append(f"index identity action wrong at ({i!r},{j!r})")
            cdm = e.coeff_action.get((i, jcat.ids[j]))
            if cdm is None or not _chain_maps_equal(
                    cdm, ChainMap.identity(e.complexes[(i, j)])):
                problems.append(f"coeff identity action wrong at ({i!r},{j!r})")
    if problems:
        return problems
    for (f, g), h in icat.table.items():
        for j in jcat.objects:
            left = e.index_action[(f, j)].compose(e.index_action[(g, j)])
            if not _chain_maps_equal(left, e.index_action[(h, j)]):
                problems.append(f"index leg not functorial on ({f!r},{g!r})")
                return problems
    for (f, g), h in jcat.table.items():
        for i in icat.objects:
            left = e.coeff_action[(i, g)].compose(e.coeff_action[(i, f)])
            if not _chain_maps_equal(left, e.coeff_action[(i, h)]):
                problems.append(f"coeff leg not functorial on ({f!r},{g!r})")
                return problems
    for phi in icat.morphisms:
        a, b = icat.dom[phi], icat.cod[phi]
        for psi in jcat.morphisms:
            j1, j2 = jcat.dom[psi], jcat.cod[psi]
            one = e.coeff_action[(a, psi)].compose(e.index_action[(phi, j1)])
            two = e.index_action[(phi, j2)].compose(e.coeff_action[(b, psi)])
            if not _chain_maps_equal(one, two):
                problems.append(f"legs do not commute at ({phi!r}, {psi!r})")
                return problems
    return problems


def _chain_maps_equal(f: ChainMap, g: ChainMap):
    degs = set(f.components) | set(g.components)
    return all(f.component(p) == g.component(p) for p in degs)


# ---------------------------------------------------------------------------
# Total complexes
# ---------------------------------------------------------------------------


class TotalTensorComplex:
    """C ⊗ over the base ⊗ E as a plain total complex, with bookkeeping.

    C contravariant, E covariant, same base.  Degree n is the direct sum of
    the category-tensor groups of C_p ⊗ E_q over p + q = n, p ascending.
    """

    __slots__ = ("left", "right", "tensors", "keys", "sums", "complex")

    def __init__(self, left: CatChainComplex, right: CatChainComplex):
        if left.base != right.base:
            raise ValueError("complexes live over different categories")
        if left.variance != "contra" or right.variance != "co":
            raise ValueError("need a contravariant left and covariant right "
                             "complex")
        self.left = left
        self.right = right
        lo = left.lo + right.lo
        hi = left.hi + right.hi
        self.tensors = {}
        self.keys = {}
        self.sums = {}
        groups = {}
        for n in range(lo, hi + 1):
            keys = [(p, n - p) for p in range(left.lo, left.hi + 1)
                    if right.lo <= n - p <= right.hi]
            for key in keys:
                if key not in self.tensors:
                    self.tensors[key] = CatTensor(left.module(key[0]),
                                                  right.module(key[1]))
            self.keys[n] = tuple(keys)
            self.sums[n] = DirectSum([self.tensors[k].group for k in keys])
            groups[n] = self.sums[n].group
        diffs = {}
        for n in range(lo + 1, hi + 1):
            blocks = {}
            for jdx, (p, q) in enumerate(self.keys[n]):
                if (p - 1, q) in self.keys[n - 1]:
                    idx = self.keys[n - 1].index((p - 1, q))
                    blocks[(idx, jdx)] = self.tensors[(p, q)].induced(
                        self.tensors[(p - 1, q)], left.diff(p), None)
                if (p, q - 1) in self.keys[n - 1]:
                    idx = self.keys[n - 1].index((p, q - 1))
                    h = self.tensors[(p, q)].induced(
                        self.tensors[(p, q - 1)], None, right.diff(q))
                    if p % 2:
                        h = h.negate()
                    blocks[(idx, jdx)] = h
            diffs[n] = block_hom(self.sums[n], self.sums[n - 1], blocks)
        self.complex = PlainChainComplex(lo, hi, groups, diffs)


def tensor_complex_over_cat(left: CatChainComplex,
                            right: CatChainComplex) -> PlainChainComplex:
    return TotalTensorComplex(left, right).complex


class TotalHomComplex:
    """hom over the base from D to E as a plain total complex.

    Both complexes contravariant over one base; D must carry free markers
    degreewise.  Degree n is ⊕_p hom(D_p, E_{p+n}), p ascending.
    """

    __slots__ = ("source", "target", "homs", "keys", "sums", "complex")

    def __init__(self, source: CatChainComplex, target: CatChainComplex):
        if source.base != target.base:
            raise ValueError("complexes live over different categories")
        if source.variance != "contra" or target.variance != "contra":
            raise ValueError("hom total takes two contravariant complexes")
        if not source.is_degreewise_free():
            raise ValueError("source must be degreewise free with markers")
        self.source = source
        self.target = target
        lo = target.lo - source.hi
        hi = target.hi - source.lo
        self.homs = {}
        self.keys = {}
        self.sums = {}
        groups = {}
        for n in range(lo, hi + 1):
            ps = [p for p in range(source.lo, source.hi + 1)
                  if target.lo <= p + n <= target.hi]
            for p in ps:
                if (p, n) not in self.homs:
                    self.homs[(p, n)] = CatHomGroup(source.module(p),
                                                    target.module(p + n))
            self.keys[n] = tuple(ps)
            self.sums[n] = DirectSum([self.homs[(p, n)].group for p in ps])
            groups[n] = self.sums[n].group
        diffs = {}
        for n in range(lo + 1, hi + 1):
            # the second term of (dφ)_p carries the coefficient -(-1)^n
            negate = (n % 2 == 0)
            blocks = {}
            for jdx, p in enumerate(self.keys[n]):
                if p in self.keys[n - 1]:
                    idx = self.keys[n - 1].index(p)
                    blocks[(idx, jdx)] = self.homs[(p, n)].postcompose_map(
                        self.homs[(p, n - 1)], target.diff(p + n))
                if p + 1 in self.keys[n - 1]:
                    idx = self.keys[n - 1].index(p + 1)
                    h = self.homs[(p, n)].precompose_map(
                        self.homs[(p + 1, n - 1)], source.diff(p + 1))
                    if negate:
                        h = h.negate()
                    blocks[(idx, jdx)] = h
            diffs[n] = block_hom(self.sums[n], self.sums[n - 1], blocks)
        self.complex = PlainChainComplex(lo, hi, groups, diffs)


def hom_complex_over_cat(source: CatChainComplex,
                         target: CatChainComplex) -> PlainChainComplex:
    return TotalHomComplex(source, target).complex


def tensor_total_induced(src: TotalTensorComplex, tgt: TotalTensorComplex,
                         left_maps=None, right_maps=None) -> ChainMap:
    """Blockwise map of tensor totals from degreewise maps of the factors.

    left_maps / right_maps: dict degree -> ModuleMap (None means identity).
    Only valid when the given maps are degree-preserving chain maps; the
    ChainMap constructor verifies commutation.
    """
    comps = {}
    for n, keys in src.keys.items():
        if n not in tgt.sums:
            continue
        blocks = {}
        for jdx, key in enumerate(keys):
            if key not in tgt.keys.get(n, ()):
                continue
            idx = tgt.keys[n].index(key)
            lm = left_maps.get(key[0]) if left_maps else None
            rm = right_maps.get(key[1]) if right_maps else None
            blocks[(idx, jdx)] = src.tensors[key].induced(
                tgt.tensors[key], lm, rm)
        comps[n] = block_hom(src.sums[n], tgt.sums[n], blocks)
    return ChainMap(src.complex, tgt.complex, comps)


def hom_total_induced(src: TotalHomComplex, tgt: TotalHomComplex,
                      target_maps) -> ChainMap:
    """Postcomposition map of hom totals from degreewise maps E_q -> F_q."""
    comps = {}
    for n, keys in src.keys.items():
        if n not in tgt.sums:
            continue
        blocks = {}
        for jdx, p in enumerate(keys):
            if p not in tgt.keys.get(n, ()):
                continue
            idx = tgt.keys[n].index(p)
            blocks[(idx, jdx)] = src.homs[(p, n)].postcompose_map(
                tgt.homs[(p, n)], target_maps[p + n])
        comps[n] = block_hom(src.sums[n], tgt.sums[n], blocks)
    return ChainMap(src.complex, tgt.complex, comps)


# ---------------------------------------------------------------------------
# The comparison map
# ---------------------------------------------------------------------------


class ComparisonData:
    """Both totals and the comparison chain map between them.

    source = C ⊗_J hom_I(D, E) and target = hom_I(D, C ⊗_J E), where C is a
    contravariant complex over J, D a free-marked contravariant complex over
    I, and E a bifunctor complex on I^op × J.  The map sends x ⊗ φ to the
    transformation y ↦ x ⊗ φ(y); it is verified to commute with the total
    differentials on construction.
    """

    __slots__ = ("c", "d", "e", "hom_totals", "hom_de", "row_totals", "ce",
                 "source_total", "target_total", "chain_map")

    def __init__(self, c: CatChainComplex, d: CatChainComplex,
                 e: BiFunctorComplex):
        icat = e.index_base
        jcat = e.coeff_base
        if d.base != icat:
            raise ValueError("index complex does not live over the index leg")
        if c.base != jcat:
            raise ValueError("coefficient complex does not live over the "
                             "coefficient leg")
        if c.variance != "contra" or d.variance != "contra":
            raise ValueError("both chain complexes must be contravariant")
        if not d.is_degreewise_free():
            raise ValueError("index complex must be degreewise free with "
                             "markers")
        self.c = c
        self.d = d
        self.e = e

        # hom_I(D, E(-, j)) per coefficient object, glued into a covariant
        # complex of modules over J
        self.hom_totals = {j: TotalHomComplex(d, e.column_complex_at(j))
                           for j in jcat.objects}
        some = next(iter(self.hom_totals.values()))
        hlo, hhi = some.complex.lo, some.complex.hi
        hmodules = {}
        hdiffs = {}
        for n in range(hlo, hhi + 1):
            values = {j: self.hom_totals[j].complex.group(n)
                      for j in jcat.objects}
            actions = {}
            for psi in jcat.morphisms:
                j1, j2 = jcat.dom[psi], jcat.cod[psi]
                t1, t2 = self.hom_totals[j1], self.hom_totals[j2]
                blocks = {}
                for jdx, p in enumerate(t1.keys[n]):
                    idx = t2.keys[n].index(p)
                    move = ModuleMap(
                        t1.homs[(p, n)].target, t2.homs[(p, n)].target,
                        {i: e.coeff_action[(i, psi)].component(p + n)
                         for i in icat.objects})
                    blocks[(idx, jdx)] = t1.homs[(p, n)].postcompose_map(
                        t2.homs[(p, n)], move)
                actions[psi] = block_hom(t1.sums[n], t2.sums[n], blocks)
            hmodules[n] = CatModule(jcat, "co", values, actions)
        for n in range(hlo + 1, hhi + 1):
            hdiffs[n] = ModuleMap(
                hmodules[n], hmodules[n - 1],
                {j: self.hom_totals[j].complex.differential(n)
                 for j in jcat.objects})
        self.hom_de = CatChainComplex(jcat, "co", hlo, hhi,
                                      hmodules, hdiffs)
        self.source_total = TotalTensorComplex(c, self.hom_de)

        # C ⊗_J E(i, -) per index object, glued into a contravariant complex
        # of modules over I
        self.row_totals = {i: TotalTensorComplex(c, e.row_complex_at(i))
                           for i in icat.objects}
        some = next(iter(self.row_totals.values()))
        tlo, thi = some.complex.lo, some.complex.hi
        cmodules = {}
        cdiffs = {}
        for r in range(tlo, thi + 1):
            values = {i: self.row_totals[i].complex.group(r)
                      for i in icat.objects}
            actions = {}
            for phi in icat.morphisms:
                a, b = icat.dom[phi], icat.cod[phi]
                tb, ta = self.row_totals[b], self.row_totals[a]
                blocks = {}
                for jdx, key in enumerate(tb.keys[r]):
                    idx = ta.keys[r].index(key)
                    move = ModuleMap(
                        tb.tensors[key].right, ta.tensors[key].right,
                        {j: e.index_action[(phi, j)].component(key[1])
                         for j in jcat.objects})
                    blocks[(idx, jdx)] = tb.tensors[key].induced(
                        ta.tensors[key], None, move)
                actions[phi] = block_hom(tb.sums[r], ta.sums[r], blocks)
            cmodules[r] = CatModule(icat, "contra", values, actions)
        for r in range(tlo + 1, thi + 1):
            cdiffs[r] = ModuleMap(
                cmodules[r], cmodules[r - 1],
                {i: self.row_totals[i].complex.differential(r)
                 for i in icat.objects})
        self.ce = CatChainComplex(icat, "contra", tlo, thi, cmodules, cdiffs)
        self.target_total = TotalHomComplex(d, self.ce)

        comps = {}
        for m in self.source_total.complex.degrees():
            comps[m] = self._component(m)
        self.chain_map = ChainMap(self.source_total.complex,
                                  self.target_total.complex, comps)

    def _component(self, m) -> AbHom:
        src = self.source_total
        src_group = src.complex.group(m)
        out_group = self.target_total.complex.group(m)
        elementary = []     # columns: t of each pair entry that occurs
        coeffs = []         # rows: that entry's coefficient per source generator
        for kdx, (a, n) in enumerate(src.keys[m]):
            ct = src.tensors[(a, n)]
            # the (a, n) summand of each source generator, on the canonical
            # coordinates of ct's big sum
            part = ct.group.reps * src.sums[m].project(kdx).matrix
            for jdx, j in enumerate(self.e.coeff_base.objects):
                tb = ct.tensors[j]
                z = tb.group.reps * (ct.big.project(jdx).matrix * part)
                for (alpha, beta, _), row in zip(tb.entries, z.nonzeros):
                    if row:
                        elementary.append(
                            self._elementary(m, a, n, j, alpha, beta))
                        coeffs.append(row)
        mat = (IntMatrix.from_columns(elementary, nrows=out_group.ngens)
               * IntMatrix(len(coeffs), src_group.ngens, nonzeros=coeffs))
        return AbHom(src_group, out_group, mat)

    def _elementary(self, m, a, n, j, alpha, beta):
        """t of the elementary tensor e_alpha ⊗ e_beta sitting at object j,
        where e_alpha generates C_a(j) and e_beta the degree-n hom total."""
        icat = self.e.index_base
        ht = self.hom_totals[j]
        tt = self.target_total
        out_group = tt.complex.group(m)
        acc = [0] * out_group.ngens
        for pdx, p in enumerate(ht.keys[n]):
            if p not in tt.keys.get(m, ()):
                continue
            hvec = ht.sums[n].project(pdx).matrix.column(beta)
            phi = ht.homs[(p, n)].to_module_map(hvec)
            dmod = self.d.module(p)
            cemod = self.ce.module(p + m)
            comps = {}
            for i in icat.objects:
                rt = self.row_totals[i]
                key = (a, p + n)
                if key in rt.tensors and p + m in rt.keys and \
                        key in rt.keys[p + m]:
                    # y ↦ e_alpha ⊗ phi_i(y) at j, in the summand of key
                    inject = rt.sums[p + m].inject(rt.keys[p + m].index(key))
                    mat = (inject.matrix
                           * rt.tensors[key].pure_map(j, alpha).matrix
                           * phi.components[i].matrix)
                    comps[i] = AbHom(dmod.values[i], cemod.values[i], mat)
                else:
                    comps[i] = AbHom.zero(dmod.values[i], cemod.values[i])
            psi_map = ModuleMap(dmod, cemod, comps)
            coords = tt.homs[(p, m)].coords_of(psi_map)
            emb = tt.sums[m].inject(tt.keys[m].index(p)).apply(coords)
            acc = [u + w for u, w in zip(acc, emb)]
        return out_group.reduce(acc)


def comparison_map_t(c: CatChainComplex, d: CatChainComplex,
                     e: BiFunctorComplex) -> ChainMap:
    """The chain map from C ⊗ hom(D, E) to hom(D, C ⊗ E)."""
    return ComparisonData(c, d, e).chain_map
