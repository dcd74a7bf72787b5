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

Both inputs of every total construction must be bounded; a degree window of
size n only ever reads the coefficient complex in degrees up to n plus the
index-complex dimension plus one.
"""

from __future__ import annotations

from itertools import groupby
from types import MappingProxyType

from .exact_abelian import (
    AbHom,
    DirectSum,
    FpAbGroup,
    HomologyData,
    IntMatrix,
    block_hom,
    express_in_kernel,
)
from .catmod import (
    CatHomGroup,
    CatModule,
    CatTensor,
    ModuleMap,
    generating_cover,
    module_kernel,
    validate_module_map,
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
        self._identity = None  # the shared ChainMap.identity of this complex
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

    __slots__ = ("source", "target", "components", "_memo")

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
        """The identity of c: one shared instance per complex, with read-only
        components."""
        if c._identity is None:
            ident = cls(c, c, {p: AbHom.identity(c.group(p))
                               for p in c.degrees()}, check=False)
            ident.components = MappingProxyType(ident.components)
            c._identity = ident
        return c._identity

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
            for p in range(lo + 2, hi + 1):
                pair = (id(self.diffs[p - 1]), id(self.diffs[p]))
                if pair not in seen:
                    seen.add(pair)
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
    """The total complex of a functor of two module complexes: parts[(p, q)]
    = part(left_p, right_q) for every degree pair, keys[n] the pairs with
    degree(p, q) = n in ascending p, sums[n] the direct sum of their groups,
    and d assembled by `_blockwise` from the edges.  Degrees that repeat
    their objects (a periodic resolution) share them: one part per distinct
    pair of modules, one sum per distinct tuple of parts, and one block and
    one differential per distinct set of inputs."""

    __slots__ = ("left", "right", "parts", "keys", "sums", "complex")

    def __init__(self, left, right, part, degree, edges):
        self.left, self.right = left, right
        pairs = sorted(((p, q) for p in left.degrees() for q in right.degrees()),
                       key=lambda k: (degree(*k), k))
        parts, sums, maps = {}, {}, {}
        self.parts = {(p, q): _once(parts, (left.module(p), right.module(q)),
                                    part) for p, q in pairs}
        self.keys = {n: tuple(ks) for n, ks in
                     groupby(pairs, key=lambda k: degree(*k))}
        self.sums = {n: _once(sums, tuple(self.parts[k] for k in ks),
                              lambda *xs: DirectSum([x.group for x in xs]))
                     for n, ks in self.keys.items()}
        lo, hi = min(self.keys), max(self.keys)
        self.complex = PlainChainComplex(
            lo, hi, {n: s.group for n, s in self.sums.items()},
            {n: _blockwise(self, self, n, n - 1, edges, maps)
             for n in range(lo + 1, hi + 1)})


class TotalTensorComplex(_Total):
    """C ⊗ E over their base, C contravariant and E covariant, as a plain
    total complex: degree n is ⊕ C_p ⊗ E_q over p + q = n."""

    __slots__ = ()

    def __init__(self, left: CatChainComplex, right: CatChainComplex):
        if left.base != right.base:
            raise ValueError("complexes live over different categories")
        if left.variance != "contra" or right.variance != "co":
            raise ValueError("need a contravariant left and covariant right "
                             "complex")

        def d_right(a, b, d, odd):
            h = a.induced(b, None, d)
            return h.negate() if odd else h
        super().__init__(left, right, CatTensor, lambda p, q: p + q, (
            ((-1, 0), lambda p, q: (left.diff(p),),
             lambda a, b, d: a.induced(b, d, None)),
            ((0, -1), lambda p, q: (right.diff(q), p % 2 == 1), d_right)))


def tensor_complex_over_cat(left: CatChainComplex,
                            right: CatChainComplex) -> PlainChainComplex:
    return TotalTensorComplex(left, right).complex


class TotalHomComplex(_Total):
    """hom(D, E) over their base, both contravariant and D free-marked
    degreewise, as a plain total complex: degree n is ⊕ hom(D_p, E_q) over
    q − p = n."""

    __slots__ = ()

    def __init__(self, source: CatChainComplex, target: CatChainComplex):
        if source.base != target.base:
            raise ValueError("complexes live over different categories")
        if source.variance != "contra" or target.variance != "contra":
            raise ValueError("hom total takes two contravariant complexes")
        if not source.is_degreewise_free():
            raise ValueError("source must be degreewise free with markers")

        def d_source(a, b, d, odd):
            # the second term of (dφ)_p carries the coefficient -(-1)^n
            h = a.precompose_map(b, d)
            return h if odd else h.negate()
        super().__init__(source, target, CatHomGroup, lambda p, q: q - p, (
            ((0, -1), lambda p, q: (target.diff(q),),
             lambda a, b, d: a.postcompose_map(b, d)),
            ((1, 0), lambda p, q: (source.diff(p + 1), (q - p) % 2 == 1),
             d_source)))


def hom_complex_over_cat(source: CatChainComplex,
                         target: CatChainComplex) -> PlainChainComplex:
    return TotalHomComplex(source, target).complex


def _blockwise(src, tgt, n, m, edges, memo) -> AbHom:
    """The degree-n to degree-m map between two totals, block by block: for
    each edge ((dp, dq), reads, block), the summand (p, q) of src maps into
    the summand (p + dp, q + dq) of tgt, where tgt has it in degree m, by
    block(src part, tgt part, *reads(p, q)), reads giving the maps and signs
    the block depends on.  memo, kept across the degrees of one
    construction, builds one block per distinct edge, parts and reads, and
    one map per distinct pair of sums and layout of blocks; the edges of one
    construction have distinct offsets."""
    keys = tgt.keys.get(m, ())
    blocks = {}
    for jdx, (p, q) in enumerate(src.keys[n]):
        for (dp, dq), reads, block in edges:
            to = (p + dp, q + dq)
            if to in keys:
                blocks[(keys.index(to), jdx)] = _once(
                    memo, (src.parts[(p, q)], tgt.parts[to], *reads(p, q)),
                    block, plain=(dp, dq))
    # a block is keyed by its edge's offset pair, a map by its layout
    return _once(memo, (src.sums[n], tgt.sums[m], *blocks.values()),
                 lambda s, t, *_: block_hom(s, t, blocks), plain=tuple(blocks))


def _induced(src, tgt, reads, block) -> ChainMap:
    """The chain map of totals that is block(src part, tgt part, *reads(p,
    q)) on every pair the two share; the ChainMap constructor verifies
    commutation."""
    edges, memo = (((0, 0), reads, block),), {}
    return ChainMap(src.complex, tgt.complex, {
        n: _blockwise(src, tgt, n, n, edges, memo)
        for n in src.keys if n in tgt.sums})


def tensor_total_induced(src: TotalTensorComplex, tgt: TotalTensorComplex,
                         left_maps=None, right_maps=None) -> ChainMap:
    """Blockwise map of tensor totals from degreewise maps of the factors.

    left_maps / right_maps: dict degree -> ModuleMap (None means identity).
    Only valid when the given maps are degree-preserving chain maps.
    """
    left_maps, right_maps = left_maps or {}, right_maps or {}
    return _induced(src, tgt,
                    lambda p, q: (left_maps.get(p), right_maps.get(q)),
                    lambda a, b, f, g: a.induced(b, f, g))


def hom_total_induced(src: TotalHomComplex, tgt: TotalHomComplex,
                      target_maps) -> ChainMap:
    """Postcomposition map of hom totals from degreewise maps E_q -> F_q."""
    return _induced(src, tgt, lambda p, q: (target_maps[q],),
                    lambda a, b, u: a.postcompose_map(b, u))


# ---------------------------------------------------------------------------
# The comparison map
# ---------------------------------------------------------------------------


class ComparisonData:
    """Both totals and the comparison chain map between them.

    source = C ⊗_J hom_I(D, E) and target = hom_I(D, C ⊗_J E), where C is a
    contravariant complex over J, D a free-marked contravariant complex over
    I, and E a bifunctor complex on I^op × J.  The map sends x ⊗ φ to the
    transformation y ↦ x ⊗ φ(y).  Hom out of the free D_p is evaluation at
    its generators, so the map is assembled from blocks 1_C ⊗ π through
    `CatTensor.induced`, π the evaluation of φ at one generator; nothing is
    solved.  The two glued complexes hom_I(D, E) and C ⊗_J E act through the
    chain maps of totals that one leg of E induces (`hom_total_induced`,
    `tensor_total_induced`); a glued differential is natural at f exactly
    when the chain map of f commutes with d, which `ChainMap` checks, so the
    glue adds no check of its own.  The comparison map is verified to
    commute with the total differentials on construction.
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

        projections = {}    # (p, n, k) -> the components of π over J
        comps = {}
        for m in self.source_total.complex.degrees():
            comps[m] = self._component(m, projections)
        self.chain_map = ChainMap(self.source_total.complex,
                                  self.target_total.complex, comps)

    def _component(self, m, projections) -> AbHom:
        # hom_I(D_p, X) is ⊕_k X(c_k) over the generators k (at c_k) of D_p,
        # so the block from C_a ⊗ H_n (H the glued hom_I(D, E)) to the pair
        # (p, r) at generator k is 1_C ⊗ π into the summand (a, q) of
        # (C ⊗_J E(c_k, -))_r, where π evaluates the summand hom_I(D_p, E_q)
        # of H_n at k (q = p + n, r = p + m); projections keeps π's
        # components across degrees, one per distinct hom total
        src, tt, e = self.source_total, self.target_total, self.e
        homs = self.hom_totals
        blocks = {}
        for jdx, (a, n) in enumerate(src.keys[m]):
            ct = src.parts[(a, n)]
            for idx, (p, r) in enumerate(tt.keys[m]):
                q = p + n
                if not e.lo <= q <= e.hi:
                    continue        # H_n has no summand hom_I(D_p, E_q)
                key = (a, q)
                images = []
                for k, c in enumerate(self.d.module(p).free_gens):
                    rt = self.row_totals[c]
                    if (p, n, k) not in projections:
                        projections[(p, n, k)] = _shared(
                            homs, lambda j: (homs[j],),
                            lambda j: homs[j].parts[(p, q)].evals.project(k)
                            .compose(homs[j].sums[n].project(
                                homs[j].keys[n].index((p, q)))))
                    pi = ModuleMap(ct.right, rt.parts[key].right,
                                   projections[(p, n, k)])
                    inject = rt.sums[r].inject(rt.keys[r].index(key))
                    images.append(inject.compose(
                        ct.induced(rt.parts[key], None, pi)))
                blocks[(idx, jdx)] = tt.parts[(p, r)].evals.hom_into(ct.group,
                                                                    images)
        return block_hom(src.sums[m], tt.sums[m], blocks)


def comparison_map_t(c: CatChainComplex, d: CatChainComplex,
                     e: BiFunctorComplex) -> ChainMap:
    """The chain map from C ⊗ hom(D, E) to hom(D, C ⊗ E)."""
    return ComparisonData(c, d, e).chain_map
