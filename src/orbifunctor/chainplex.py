"""Bounded chain complexes: plain, over a category, and two-legged.

Plain complexes of f.p. abelian groups with homology and induced maps; chain
complexes of category modules, free resolutions among them, and Tor;
bifunctor complexes with a contravariant index leg and a covariant
coefficient leg; total tensor and hom complexes over the base category; and
the comparison chain map from tensor-of-hom to hom-of-tensor.

Sign conventions (frozen; homology is insensitive to the choice but maps are
not, so one set is fixed and stated):
  - tensor total: d(x ⊗ y) = dx ⊗ y + (-1)^p x ⊗ dy for x in degree p;
  - hom total, degree n piece ⊕ hom(D_p, E_q) over q − p = n:
    (dφ)_p = d_E ∘ φ_p − (−1)^n φ_{p−1} ∘ d_D.
The comparison map itself carries no signs: x ⊗ φ goes to y ↦ x ⊗ φ(y).
Each map of totals is one sparse matrix, written by the writers of `catmod`
that also write `CatTensor` and `CatHomGroup`, the one-pair case.

Both inputs of every total construction must be bounded; a degree window of
size n only ever reads the coefficient complex in degrees up to n plus the
index-complex dimension plus one.
"""

from __future__ import annotations

import weakref
from itertools import groupby
from types import MappingProxyType

from .exact_abelian import (
    AbHom,
    DirectSum,
    FpAbGroup,
    HomologyData,
    IntMatrix,
    express_in_kernel,
    hom_from_presentation,
)
from .catmod import (
    CatModule,
    ModuleMap,
    StandardPresentation,
    _carried,
    _diagonal,
    _matrix,
    _postcomposed,
    _precomposed,
    _related,
    generating_cover,
    module_kernel,
    validate_module_map,
    vanishes_at_generators,
    zero_module,
)


class PlainChainComplex:
    """Bounded complex of f.p. abelian groups; d_p: C_p -> C_{p-1}."""

    __slots__ = ("lo", "hi", "groups", "diffs", "_memo", "_identity")

    def __init__(self, lo, hi, groups, diffs):
        if lo > hi:
            raise ValueError("empty degree range")
        self.lo = lo
        self.hi = hi
        self.groups = {p: groups[p] for p in range(lo, hi + 1)}
        self.diffs = {}
        self._memo = {}  # the zero group, zero maps, HomologyData
        self._identity = None  # a weak reference to ChainMap.identity(self)
        for p in range(lo + 1, hi + 1):
            d = diffs.get(p)
            if d is None:
                d = AbHom.zero(self.groups[p], self.groups[p - 1])
            if d.source != self.groups[p] or d.target != self.groups[p - 1]:
                raise ValueError(f"differential at degree {p} has wrong endpoints")
            self.diffs[p] = d
        # one map object may serve many degrees: each pair is checked once
        seen = {}
        for p in range(lo + 2, hi + 1):
            if not _once(seen, (self.diffs[p - 1], self.diffs[p]),
                         lambda a, b: a.compose(b).is_zero()):
                raise ValueError(f"d∘d is nonzero out of degree {p}")

    def group(self, p) -> FpAbGroup:
        return self.groups.get(p) or _once(self._memo, (), FpAbGroup.zero)

    def differential(self, p) -> AbHom:
        d = self.diffs.get(p)
        if d is None:
            d = _once(self._memo, (self.group(p), self.group(p - 1)),
                      AbHom.zero)
        return d

    def degrees(self):
        return range(self.lo, self.hi + 1)

    def __repr__(self):
        parts = ", ".join(f"{p}: {self.groups[p]!r}" for p in self.degrees())
        return f"PlainChainComplex([{self.lo},{self.hi}], {parts})"


def complex_concentrated(group: FpAbGroup, degree: int) -> PlainChainComplex:
    return PlainChainComplex(degree, degree, {degree: group}, {})


def homology_data(c: PlainChainComplex, p) -> HomologyData:
    """Cycle/boundary bookkeeping at degree p, zero-extended outside range;
    degrees between the same two differentials and group share one, the
    degrees outside the complex included."""
    hd = c._memo.get(p)
    if hd is None:
        hd = c._memo[p] = _once(
            c._memo, (c.differential(p + 1), c.differential(p), c.group(p)),
            lambda i, o, g: HomologyData(i, o, space=g))
    return hd


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


def euler_characteristic(c: PlainChainComplex) -> int:
    # p % 2 keeps the power an int for negative degrees
    return sum((-1) ** (p % 2) * c.group(p).rank for p in c.degrees())


class ChainMap:
    """Degreewise map of plain complexes; commutation with d is checked."""

    __slots__ = ("source", "target", "components", "_memo", "__weakref__")

    def __init__(self, source, target, components, check=True):
        self.source = source
        self.target = target
        self.components = dict(components)
        self._memo = {}     # zero components and induced maps, by their inputs
        for p, h in self.components.items():
            if h.source != source.group(p) or h.target != target.group(p):
                raise ValueError(f"component at degree {p} has wrong endpoints")
        if check:
            # in the lowest degree both sides map into zero groups; where both
            # components are absent, d∘0 = 0 = 0∘d; a square of the same
            # four maps as one already checked is not checked again
            seen = {}
            comps = self.components
            for p in range(min(source.lo, target.lo) + 1,
                           max(source.hi, target.hi) + 1):
                if p not in comps and p - 1 not in comps:
                    continue
                square = (target.diffs.get(p), comps.get(p), comps.get(p - 1),
                          source.diffs.get(p))
                if not _once(seen, square, lambda *_: (
                        target.differential(p).compose(self.component(p))
                        == self.component(p - 1).compose(
                            source.differential(p)))):
                    raise ValueError(f"does not commute with d at degree {p}")

    @classmethod
    def identity(cls, c: PlainChainComplex):
        """The identity of c, with read-only components: one shared instance
        per complex while anything holds it.  The complex holds it weakly,
        so the two make no reference cycle."""
        ident = c._identity and c._identity()
        if ident is None:
            ident = cls(c, c, {p: AbHom.identity(c.group(p))
                               for p in c.degrees()}, check=False)
            ident.components = MappingProxyType(ident.components)
            c._identity = weakref.ref(ident)
        return ident

    def component(self, p) -> AbHom:
        h = self.components.get(p)
        if h is None:
            h = _once(self._memo, (self.source.group(p), self.target.group(p)),
                      AbHom.zero)
        return h

    def is_identity(self):
        """Whether every component is the shared identity matrix."""
        return self.source is self.target and all(
            self.component(p).matrix.is_identity() for p in self.source.degrees())

    def compose(self, first: "ChainMap") -> "ChainMap":
        degs = set(self.components) | set(first.components)
        return ChainMap(first.source, self.target,
                        {p: self.component(p).compose(first.component(p))
                         for p in degs}, check=False)

    def is_zero(self):
        return all(h.is_zero() for h in self.components.values())


def induced_map_on_homology(f: ChainMap, p) -> AbHom:
    """H_p(f) between canonical homology forms, via cycle transport; one map
    per distinct (source data, target data, component) of f."""
    # column j: the image of a cycle representing the j-th generator
    return _once(f._memo, (homology_data(f.source, p),
                           homology_data(f.target, p), f.component(p)),
                 lambda s, t, h: AbHom(s.group, t.group, express_in_kernel(
                     t, h.matrix * s.inclusion.matrix)))


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
            # one map object may serve many degrees (a periodic resolution):
            # each map, and each composable pair of maps, is checked once
            seen = set()
            for p, d in self.diffs.items():
                for end, got, want in (("source", d.source, self.modules[p]),
                                       ("target", d.target, self.modules[p - 1])):
                    if got is not want and (got.values != want.values
                                            or got.actions != want.actions):
                        raise ValueError(f"differential at {p} has wrong {end}")
                if id(d) not in seen:
                    seen.add(id(d))
                    problems = validate_module_map(d)
                    if problems:
                        raise ValueError(f"differential at {p} not natural: "
                                         f"{problems[0]}")
            # every map is natural now, so out of a free-marked module the
            # composite is read at the generators (the Yoneda lemma)
            for p in range(lo + 2, hi + 1):
                d, e = self.diffs[p - 1], self.diffs[p]
                if (id(d), id(e)) not in seen:
                    seen.add((id(d), id(e)))
                    if not (vanishes_at_generators(d, e)
                            if e.source.is_free_marked()
                            else d.compose(e).is_zero()):
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
# Free resolutions and Tor
# ---------------------------------------------------------------------------


# the work of a kernel step grows fast with the total rank it starts from
RESOLUTION_RANK_BOUND = 256


def free_resolution(module: CatModule, length: int):
    """(complex, augmentation) for F_L -> ... -> F_0 -> M -> 0, each F_i
    finitely generated free: the complex of the F_i in degrees 0..L and the
    epi F_0 -> M.

    A kernel step from an F_{n-1} of total rank above RESOLUTION_RANK_BOUND
    is refused with ValueError before it starts.  Exactness of the augmented
    complex is verified objectwise through degree L-1 and failure aborts.
    """
    if length < 0:
        raise ValueError("length must be >= 0")
    f0, eps = generating_cover(module)
    modules, maps = {0: f0}, [eps]      # maps[n]: F_n -> F_{n-1}, or -> M
    for n in range(1, length + 1):
        rank = modules[n - 1].total_rank()
        if rank > RESOLUTION_RANK_BOUND:
            raise ValueError(f"resolution step {n} starts from total rank "
                             f"{rank}, above {RESOLUTION_RANK_BOUND}")
        ker, inc = module_kernel(maps[-1])
        modules[n], epi = generating_cover(ker)
        maps.append(inc.compose(epi))
    for c in module.cat.objects:
        for n in range(length):
            if not HomologyData(maps[n + 1].components[c],
                                maps[n].components[c]).group.is_trivial():
                raise AssertionError(
                    f"resolution not exact at step {n}, object {c!r}")
    # composites of natural maps are natural, and exactness gives d∘d = 0
    return CatChainComplex(module.cat, module.variance, 0, length, modules,
                           {n: maps[n] for n in range(1, length + 1)},
                           check=False), eps


def tor(left: CatModule, right: CatModule, p: int) -> FpAbGroup:
    """Tor_p over the base category, resolving the contravariant argument:
    H_p of its free resolution tensored with the covariant one; ValueError
    where `free_resolution` refuses."""
    if p < 0:
        raise ValueError("p must be >= 0")
    res, _ = free_resolution(left, p + 1)
    return homology(tensor_complex_over_cat(
        res, cat_complex_concentrated(right, 0)), p)


# ---------------------------------------------------------------------------
# Bifunctor complexes (contravariant index leg, covariant coefficient leg)
# ---------------------------------------------------------------------------


def _once(memo, objs, build, plain=()):
    """build(*objs), once per distinct (plain, objs) in memo, the objects
    counted by identity.  memo keeps the objects, so no id it keys on is
    reused while it lives; it belongs to one construction or one complex."""
    key = (plain, *map(id, objs))
    hit = memo.get(key)
    if hit is None:
        hit = memo[key] = (objs, build(*objs))
    return hit[1]


def _shared(objects, parts, build) -> dict:
    """{x: build(x)} for x in objects, built once per distinct parts(x):
    objects whose parts are the same objects share one result."""
    memo = {}
    return {x: _once(memo, tuple(parts(x)), lambda *_: build(x))
            for x in objects}


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
        # the validators and the comparison map index every action directly
        for phi in index_base.morphisms:
            for j in coeff_base.objects:
                if (phi, j) not in self.index_action:
                    raise ValueError(f"no index action at ({phi!r}, {j!r})")
        for i in index_base.objects:
            for psi in coeff_base.morphisms:
                if (i, psi) not in self.coeff_action:
                    raise ValueError(f"no coefficient action at "
                                     f"({i!r}, {psi!r})")

    def complex(self, i, j) -> PlainChainComplex:
        return self.complexes[(i, j)]

    @classmethod
    def constant_in_index(cls, index_base, coeff_complex: CatChainComplex):
        """Every index object sees the same covariant coefficient complex:
        one evaluation and one identity per distinct coefficient object (the
        same values and differential components; a constant module has one),
        one chain map per morphism of the coefficient base, all shared across
        the index."""
        if coeff_complex.variance != "co":
            raise ValueError("coefficient leg must be covariant")
        jcat = coeff_complex.base
        plain = _shared(jcat.objects, lambda j: (
            [coeff_complex.modules[p].values[j] for p in coeff_complex.degrees()]
            + [d.components[j] for d in coeff_complex.diffs.values()]),
            coeff_complex.evaluate_at)
        identities = {j: ChainMap.identity(c) for j, c in plain.items()}
        moves = {psi: ChainMap(plain[jcat.dom[psi]], plain[jcat.cod[psi]],
                               {p: coeff_complex.module(p).action(psi)
                                for p in coeff_complex.degrees()},
                               check=False)
                 for psi in jcat.morphisms}
        complexes = {(i, j): plain[j] for i in index_base.objects
                     for j in jcat.objects}
        index_action = {(phi, j): identities[j] for phi in index_base.morphisms
                        for j in jcat.objects}
        coeff_action = {(i, psi): moves[psi] for i in index_base.objects
                        for psi in jcat.morphisms}
        return cls(index_base, jcat, complexes, index_action, coeff_action)

    def column_complex_at(self, j) -> CatChainComplex:
        """E(-, j): a contravariant complex of modules over the index base."""
        cat = self.index_base
        return _glue(cat, "contra", {i: self.complexes[(i, j)] for i in cat.objects},
                     {phi: self.index_action[(phi, j)] for phi in cat.morphisms})

    def row_complex_at(self, i) -> CatChainComplex:
        """E(i, -): a covariant complex of modules over the coefficient base."""
        cat = self.coeff_base
        return _glue(cat, "co", {j: self.complexes[(i, j)] for j in cat.objects},
                     {psi: self.coeff_action[(i, psi)] for psi in cat.morphisms})


def _glue(cat, variance, plain, maps) -> CatChainComplex:
    """Glue plain complexes, one per object of cat and all on one degree
    window, into a complex of modules.  maps[f] is the chain map by which the
    morphism f acts.  Nothing is re-checked: the naturality of a differential
    at f is the commutation of maps[f] with d, which a checked ChainMap has
    verified, and d∘d = 0 holds in every plain complex."""
    some = next(iter(plain.values()))
    lo, hi = some.lo, some.hi
    modules = {q: CatModule(cat, variance,
                            {x: plain[x].group(q) for x in cat.objects},
                            {f: maps[f].component(q) for f in cat.morphisms})
               for q in range(lo, hi + 1)}
    diffs = {q: ModuleMap(modules[q], modules[q - 1],
                          {x: plain[x].differential(q) for x in cat.objects})
             for q in range(lo + 1, hi + 1)}
    return CatChainComplex(cat, variance, lo, hi, modules, diffs, check=False)


def validate_bifunctor(e: BiFunctorComplex) -> list:
    """Both-leg functoriality and the commuting of the two actions."""
    problems = []
    icat, jcat = e.index_base, e.coeff_base
    for i in icat.objects:
        for j in jcat.objects:
            # the constructor has checked that every action is present
            ident = ChainMap.identity(e.complexes[(i, j)])
            if not _chain_maps_equal(e.index_action[(icat.ids[i], j)], ident):
                problems.append(f"index identity action wrong at ({i!r},{j!r})")
            if not _chain_maps_equal(e.coeff_action[(i, jcat.ids[j])], ident):
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


class _Total:
    """The total complex of a functor of two module complexes, one
    evaluation per degree.  Degree p of `left` enters through its standard
    presentation F1 → F0 → M → 0 (`pres[p]`; F0 is M itself when M is
    free-marked), and tensor and hom out of F0 are evaluations at the
    generators k of F0, at c_k (co-Yoneda and Yoneda; Davis–Lück, K-Theory
    15, 1998, §1).  So parts[(p, q)] is the tuple of groups right_q(c_k),
    keys[n] the pairs (p, q) of degree n in ascending p, sums[n] the direct
    sum of their parts, pair after pair, and at[(p, q)] the place of the
    pair's first part in that sum.  The presentation coordinates of sums[n]
    are the coordinates of degree n, whose group is sums[n].group, modulo F1
    read through right_q where left_p is not free (`_related`).  Each map
    of totals is one sparse matrix on these coordinates, assembled by
    `_assemble` with the writers of `catmod` from the generator images of
    maps of the F0's and the components of maps of the right factor.
    Degrees that repeat their objects (a periodic resolution) share them:
    one presentation per left module, one part per presentation and right
    module, one sum and group per tuple of parts, and one map per distinct
    set of inputs."""

    __slots__ = ("left", "right", "pres", "parts", "keys", "at", "sums",
                 "groups", "complex")

    def __init__(self, left, right, degree, edges):
        self.left, self.right = left, right
        memo = {}
        self.pres = {p: _once(memo, (left.module(p),), StandardPresentation)
                     for p in left.degrees()}
        pairs = sorted(((p, q) for p in left.degrees() for q in right.degrees()),
                       key=lambda k: (degree(*k), k))
        self.parts = {(p, q): _once(memo, (self.pres[p], right.module(q)),
                                    lambda f, m: tuple(
                                        m.values[c] for c in f.cover.free_gens),
                                    plain="part") for p, q in pairs}
        self.keys = {n: tuple(ks) for n, ks in
                     groupby(pairs, key=lambda k: degree(*k))}
        self.at = {}
        for ks in self.keys.values():
            place = 0
            for k in ks:
                self.at[k] = place
                place += len(self.parts[k])
        self.sums = {n: _once(memo, tuple(self.parts[k] for k in ks),
                              lambda *xs: DirectSum([g for x in xs for g in x]),
                              plain="sum")
                     for n, ks in self.keys.items()}
        self.groups = {n: _once(memo, (self.sums[n],),
                                lambda s, n=n: self._quotient(n), plain="group")
                       for n in self.keys}
        lo, hi = min(self.keys), max(self.keys)
        self.complex = PlainChainComplex(lo, hi, self.groups, {
            n: _assemble(self, self, n, n - 1, edges, memo)
            for n in range(lo + 1, hi + 1)})

    def _quotient(self, n) -> FpAbGroup:
        s = self.sums[n]
        rows, col = [{} for _ in range(s.total_gens)], 0
        for p, q in self.keys[n]:
            col = _related(rows, s.offsets[self.at[(p, q)]:], col,
                           self.pres[p], self.right.module(q))
        if not col:
            return s.group
        return s.quotient(_matrix(rows, col))


class TotalTensorComplex(_Total):
    """C ⊗ E over their base, C contravariant and E covariant, as a plain
    total complex: degree n is ⊕ C_p ⊗ E_q over p + q = n, read on the
    evaluation ⊕ E_q(c_k) over the generators k of the cover of each C_p.
    A term a·(k, φ) of the image of cover generator k2 under d_C gives the
    block a·E_q(φ) from summand k2 to summand k; d_E gives (−1)^p times its
    component at c_k on summand k."""

    __slots__ = ()

    def __init__(self, left: CatChainComplex, right: CatChainComplex):
        if left.base != right.base:
            raise ValueError("complexes live over different categories")
        if left.variance != "contra" or right.variance != "co":
            raise ValueError("need a contravariant left and covariant right "
                             "complex")
        # the edges are read once self.pres is built
        super().__init__(left, right, lambda p, q: p + q, (
            (-1, 0, lambda p, q: (self.pres[p], left.diff(p), self.pres[p - 1],
                                  right.module(q), None), _carried),
            (0, -1, lambda p, q: (self.pres[p], right.diff(q),
                                  -1 if p % 2 else 1), _diagonal)))


def tensor_complex_over_cat(left: CatChainComplex,
                            right: CatChainComplex) -> PlainChainComplex:
    return TotalTensorComplex(left, right).complex


class TotalHomComplex(_Total):
    """hom(D, E) over their base, both contravariant and D free-marked
    degreewise, as a plain total complex: degree n is ⊕ hom(D_p, E_q) over
    q − p = n, read on the evaluation ⊕ E_q(c_k) over the generators k of
    each D_p.  d_E gives its component at c_k on summand k; a term a·(k, φ)
    of the image of generator k2 of D_{p+1} under d_D gives the block
    −(−1)^n a·E_q(φ) from summand k to summand k2.  Both refuse as
    composing with a module map that is not natural does (`_postcomposed`,
    `_precomposed`)."""

    __slots__ = ()

    def __init__(self, source: CatChainComplex, target: CatChainComplex):
        if source.base != target.base:
            raise ValueError("complexes live over different categories")
        if source.variance != "contra" or target.variance != "contra":
            raise ValueError("hom total takes two contravariant complexes")
        if not source.is_degreewise_free():
            raise ValueError("source must be degreewise free with markers")
        # the edges are read once self.pres is built
        super().__init__(source, target, lambda p, q: q - p, (
            (0, -1, lambda p, q: (self.pres[p], target.diff(q)),
             _postcomposed),
            (1, 0, lambda p, q: (self.pres[p + 1], source.diff(p + 1),
                                 self.pres[p], target.module(q),
                                 1 if (q - p) % 2 else -1), _precomposed)))


def hom_complex_over_cat(source: CatChainComplex,
                         target: CatChainComplex) -> PlainChainComplex:
    return TotalHomComplex(source, target).complex


def _assemble(src, tgt, n, m, edges, memo) -> AbHom:
    """The map from degree n of src to degree m of tgt as one matrix on the
    coordinates of both evaluations.  For each edge (dp, dq, reads, write),
    the pair (p, q) of src maps into the pair (p + dp, q + dq) of tgt where
    tgt has it: write(rows, cols, at, *reads(p, q)) adds the blocks, cols
    and at being the offsets of the pair's summands in src and in tgt.
    memo, kept across the degrees of one construction, builds one map per
    distinct pair of sums, inputs and layout of pairs."""
    blocks, objs = [], [src.groups[n], tgt.groups[m], src.sums[n], tgt.sums[m]]
    for e, (dp, dq, reads, write) in enumerate(edges):
        for p, q in src.keys[n]:
            to = (p + dp, q + dq)
            if to in tgt.at:
                args = reads(p, q)
                blocks.append((e, src.at[(p, q)], tgt.at[to], write, args))
                objs.extend(args)
    layout = tuple((e, a, b, len(args)) for e, a, b, _, args in blocks)

    def build(sg, tg, ss, ts, *_):
        rows = [{} for _ in range(ts.total_gens)]
        for _, a, b, write, args in blocks:
            write(rows, ss.offsets[a:], ts.offsets[b:], *args)
        return hom_from_presentation(sg, tg, _matrix(rows, ss.total_gens))
    return _once(memo, tuple(objs), build, plain=layout)


def tensor_total_induced(src: TotalTensorComplex, tgt: TotalTensorComplex,
                         left_maps=None, right_maps=None) -> ChainMap:
    """Blockwise map of tensor totals from degreewise maps of the factors.

    left_maps / right_maps: dict degree -> ModuleMap (None means identity).
    Only valid when the given maps are degree-preserving chain maps; the
    ChainMap constructor verifies commutation.
    """
    left_maps, right_maps = left_maps or {}, right_maps or {}
    return _induced(src, tgt, lambda p, q: (
        src.pres[p], left_maps.get(p), tgt.pres[p], tgt.right.module(q),
        right_maps.get(q)), _carried)


def hom_total_induced(src: TotalHomComplex, tgt: TotalHomComplex,
                      target_maps) -> ChainMap:
    """Postcomposition map of hom totals out of one complex D from
    degreewise maps E_q -> F_q; ValueError where a map is not natural at a
    morphism acting from a generator's object."""
    if src.left is not tgt.left:
        raise ValueError("hom totals out of different complexes")
    return _induced(src, tgt, lambda p, q: (src.pres[p], target_maps[q]),
                    _postcomposed)


def _induced(src, tgt, reads, write) -> ChainMap:
    """The chain map of totals that writes each pair the two share into
    itself; the ChainMap constructor verifies commutation."""
    edges, memo = ((0, 0, reads, write),), {}
    return ChainMap(src.complex, tgt.complex, {
        n: _assemble(src, tgt, n, n, edges, memo)
        for n in src.keys if n in tgt.sums})


# ---------------------------------------------------------------------------
# The comparison map
# ---------------------------------------------------------------------------


class ComparisonData:
    """Both totals and the comparison chain map between them.

    source = C ⊗_J hom_I(D, E) and target = hom_I(D, C ⊗_J E), where C is a
    contravariant complex over J, D a free-marked contravariant complex over
    I, and E a bifunctor complex on I^op × J.  The map sends x ⊗ φ to the
    transformation y ↦ x ⊗ φ(y).  Both totals are evaluations at the
    generators of C and of D (`_Total`), so in degree m both are presented
    on the sum of the groups E_q(c_k, s_l) over the generators l (at s_l)
    of the C_a, k (at c_k) of the D_p and the degrees q: the map sends each
    such summand to itself, a swap of the two generator indices read
    through the witnesses of the hom and row totals' groups (`_component`);
    nothing is solved.  The two glued complexes hom_I(D, E) and C ⊗_J E
    act through the chain maps of totals that one leg of E induces
    (`hom_total_induced`, `tensor_total_induced`); a glued differential is
    natural at f exactly when the chain map of f commutes with d, which
    `ChainMap` checks, so the glue adds no check of its own.  The comparison
    map is verified to commute with the total differentials on
    construction.
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
        # the actions that are identities, each distinct chain map asked once
        identities = {m for m in {*e.index_action.values(),
                                  *e.coeff_action.values()} if m.is_identity()}

        # hom_I(D, E(-, j)) per coefficient object, glued into a covariant
        # complex of modules over J: ψ: j1 -> j2 postcomposes with E(-, ψ).
        # Coefficient objects whose columns are the same complexes under the
        # same index actions share one total, on which a ψ acting by
        # identities acts by the identity
        self.hom_totals = homs = _shared(jcat.objects, lambda j: (
            [e.complexes[(i, j)] for i in icat.objects]
            + [e.index_action[(phi, j)] for phi in icat.morphisms]),
            lambda j: TotalHomComplex(d, e.column_complex_at(j)))
        hom_maps = {}
        for psi in jcat.morphisms:
            h1, h2 = homs[jcat.dom[psi]], homs[jcat.cod[psi]]
            if h1 is h2 and all(e.coeff_action[(i, psi)] in identities
                                for i in icat.objects):
                hom_maps[psi] = ChainMap.identity(h1.complex)
                continue
            hom_maps[psi] = hom_total_induced(h1, h2, {
                q: ModuleMap(h1.right.module(q), h2.right.module(q),
                             {i: e.coeff_action[(i, psi)].component(q)
                              for i in icat.objects})
                for q in h1.right.degrees()})
        self.hom_de = _glue(jcat, "co",
                            {j: homs[j].complex for j in jcat.objects},
                            hom_maps)
        self.source_total = TotalTensorComplex(c, self.hom_de)

        # C ⊗_J E(i, -) per index object, glued into a contravariant complex
        # of modules over I: φ: a -> b moves the right factors by E(φ, -).
        # Rows are shared as the columns are above
        self.row_totals = rows = _shared(icat.objects, lambda i: (
            [e.complexes[(i, j)] for j in jcat.objects]
            + [e.coeff_action[(i, psi)] for psi in jcat.morphisms]),
            lambda i: TotalTensorComplex(c, e.row_complex_at(i)))
        row_maps = {}
        for phi in icat.morphisms:
            ra, rb = rows[icat.dom[phi]], rows[icat.cod[phi]]
            if ra is rb and all(e.index_action[(phi, j)] in identities
                                for j in jcat.objects):
                row_maps[phi] = ChainMap.identity(ra.complex)
                continue
            row_maps[phi] = tensor_total_induced(rb, ra, right_maps={
                q: ModuleMap(rb.right.module(q), ra.right.module(q),
                             {j: e.index_action[(phi, j)].component(q)
                              for j in jcat.objects})
                for q in rb.right.degrees()})
        self.ce = _glue(icat, "contra",
                        {i: rows[i].complex for i in icat.objects}, row_maps)
        self.target_total = TotalHomComplex(d, self.ce)

        self.chain_map = ChainMap(
            self.source_total.complex, self.target_total.complex,
            {m: self._component(m) for m in self.source_total.keys})

    def _component(self, m) -> AbHom:
        # The summand E_q(c_k, s_l) of the source sits at generator l of C_a
        # and, inside H_n(s_l) (H the hom totals, n = q − p), at generator k
        # of D_p; in the target it sits at generator k of D_p and, inside
        # R_r(c_k) (R the row totals, r = a + q), at generator l of C_a.  In
        # the coordinates of the H and R sums the map moves each summand to
        # its place; the H and R groups are reached through their witnesses
        src, tt = self.source_total, self.target_total
        homs, rows = self.hom_totals, self.row_totals
        starts, down, place = {}, [], 0     # T-side: the R sums, in order
        for p, r in tt.keys[m]:
            for k, ck in enumerate(tt.pres[p].cover.free_gens):
                starts[(p, r, k)] = place
                place += rows[ck].sums[r].total_gens
                down.append(rows[ck].groups[r].to_can)
        positions, up = [], []              # S-side: the H sums, in order
        for a, n in src.keys[m]:
            for l, sl in enumerate(src.pres[a].cover.free_gens):
                h = homs[sl]
                up.append(h.groups[n].reps)
                for p, q in h.keys[n]:
                    r = a + q
                    for k, ck in enumerate(tt.pres[p].cover.free_gens):
                        rt = rows[ck]
                        to = (starts[(p, r, k)]
                              + rt.sums[r].offsets[rt.at[(a, q)] + l])
                        size = h.parts[(p, q)][k].ngens
                        positions.extend(range(to, to + size))
        swap = IntMatrix.selection(place, positions)
        return hom_from_presentation(
            src.groups[m], tt.groups[m],
            _block_diagonal(down) * swap * _block_diagonal(up))


def _block_diagonal(mats) -> IntMatrix:
    """The block-diagonal matrix of mats, the shared identity when each of
    them is one."""
    if all(x.is_identity() for x in mats):
        return IntMatrix.identity(sum(x.nrows for x in mats))
    rows, shift = [], 0
    for x in mats:
        rows.extend({j + shift: v for j, v in nz.items()} for nz in x.nonzeros)
        shift += x.ncols
    return IntMatrix(len(rows), shift, nonzeros=rows)


def comparison_map_t(c: CatChainComplex, d: CatChainComplex,
                     e: BiFunctorComplex) -> ChainMap:
    """The chain map from C ⊗ hom(D, E) to hom(D, C ⊗ E)."""
    return ComparisonData(c, d, e).chain_map
