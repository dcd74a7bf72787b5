"""Finite cell structures and the chain complexes they generate.

Two flavours of cell data feed the rest of the workbench:

* ``CatCWComplex``: cells over a fixed finite base category.  Every n-cell
  carries a base-object tag, and its boundary is a formal integer combination
  of (attaching morphism, (n-1)-cell) pairs.  The chain functor turns this
  into a degreewise free-marked contravariant complex, which is the input
  shape the hom totals and the comparison map require.

* ``GCWComplex``: equivariant cells for a finite group, one orbit of cells
  G/H per entry, with boundaries given by coefficients on equivariant maps
  between orbits.  Fixed-point chains convert these into CatCWComplex data
  over an orbit category; a separate conversion forgets the group action and
  produces honest cellular chains with a group action, which is what the
  Borel construction consumes.

Truncation bookkeeping is explicit throughout.  A model built from a window
of size K only certifies homology in an advertised range; checks refuse
degrees outside that range instead of answering with junk.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import product

from .exact_abelian import (
    AbHom,
    FpAbGroup,
    IntMatrix,
    hom_from_presentation,
    quotient_group,
)
from .fincat import (
    FinCategory,
    FinGroup,
    SubgroupFamily,
    coset_g_set,
    family_closure,
    one_object_category,
    orbit_category,
    standard_category,
    transport_groupoid,
)
from .catmod import (
    CONTRAVARIANT,
    COVARIANT,
    CatModule,
    ModuleMap,
    constant_module,
    free_map_from_images,
    free_module,
)
from .chainplex import (
    CatChainComplex,
    ChainMap,
    PlainChainComplex,
    TotalTensorComplex,
    cat_complex_concentrated,
    homology,
    tensor_total_induced,
)


def _coset(group, g, subgroup):
    return tuple(sorted(group.mult(g, k) for k in subgroup))


# ---------------------------------------------------------------------------
# Cells over a base category
# ---------------------------------------------------------------------------


class CatCWComplex:
    """Cell data over a finite base category.

    cells: dict dimension -> sequence of base-object tags (one per cell).
    boundary: dict (n, i) -> sequence of (coeff, j, phi) terms, where cell i
    of dimension n attaches to cell j of dimension n-1 along the morphism
    phi from the tag of cell i to the tag of cell j.  Missing keys mean zero
    boundary.  Whether the boundary squares to zero is checked by
    ``cellular_chain_complex``, not here.

    ``truncation_valid``, when set, is the largest homological degree the
    builder of this complex is willing to certify; ``contractibility_check``
    refuses to look past it.
    """

    __slots__ = ("base", "cells", "boundary", "dimension", "truncation_valid")

    def __init__(self, base: FinCategory, cells, boundary=None,
                 truncation_valid=None):
        self.base = base
        cells = {int(n): tuple(v) for n, v in dict(cells).items()}
        if any(n < 0 for n in cells):
            raise ValueError("cell dimensions must be >= 0")
        filled = [n for n, tags in cells.items() if tags]
        if not filled:
            raise ValueError("complex has no cells")
        self.dimension = max(filled)
        self.cells = {n: cells.get(n, ()) for n in range(self.dimension + 1)}
        objset = set(base.objects)
        for n, tags in self.cells.items():
            for c in tags:
                if c not in objset:
                    raise ValueError(
                        f"cell tag {c!r} in dimension {n} is not a base object")
        norm = {}
        for (n, i), terms in dict(boundary or {}).items():
            if not (1 <= n <= self.dimension and 0 <= i < len(self.cells[n])):
                raise ValueError(f"boundary key ({n}, {i}) names no cell")
            src = self.cells[n][i]
            out = []
            for (coeff, j, phi) in terms:
                if not 0 <= j < len(self.cells[n - 1]):
                    raise ValueError(
                        f"boundary of cell ({n}, {i}) hits missing cell index {j}")
                tgt = self.cells[n - 1][j]
                if base.dom.get(phi) != src or base.cod.get(phi) != tgt:
                    raise ValueError(
                        f"attaching morphism {phi!r} is not {src!r} -> {tgt!r}")
                if coeff:
                    out.append((int(coeff), j, phi))
            if out:
                norm[(n, i)] = tuple(out)
        self.boundary = norm
        self.truncation_valid = truncation_valid

    def cell_count(self, n) -> int:
        return len(self.cells.get(n, ()))

    def __repr__(self):
        counts = ", ".join(
            f"{n}: {len(tags)}" for n, tags in sorted(self.cells.items()))
        return f"CatCWComplex(dim {self.dimension}; cells {{{counts}}})"


def cellular_chain_complex(x: CatCWComplex) -> CatChainComplex:
    """Free-marked contravariant chain complex of the cell data.

    This is the admission test for boundary data: if the boundary does not
    square to zero the complex constructor rejects it.
    """
    modules = {}
    for n in range(x.dimension + 1):
        modules[n], _ = free_module(x.base, x.cells[n], CONTRAVARIANT)
    diffs = {}
    for n in range(1, x.dimension + 1):
        low = modules[n - 1]
        images = []
        for i, tag in enumerate(x.cells[n]):
            index = {lab: k for k, lab in enumerate(low.free_basis[tag])}
            vec = [0] * low.value(tag).ngens
            for (coeff, j, phi) in x.boundary.get((n, i), ()):
                vec[index[(j, phi)]] += coeff
            images.append(vec)
        diffs[n] = free_map_from_images(modules[n], low, images)
    try:
        return CatChainComplex(x.base, CONTRAVARIANT, 0, x.dimension,
                               modules, diffs)
    except ValueError as err:
        raise ValueError(f"boundary data rejected: {err}") from err


# ---------------------------------------------------------------------------
# Equivariant cells
# ---------------------------------------------------------------------------


class GCWComplex:
    """Equivariant cell data for a finite group.

    cells: dict dimension -> sequence of subgroup labels; entry H stands for
    one orbit of cells G/H.  boundary: dict (n, i) -> sequence of
    (coeff, j, coset) terms; the coset label rK names the equivariant map
    G/H_i -> G/H_j sending xH_i to xrH_j, which exists exactly when r
    conjugates H_i into H_j.  Both conditions are checked on construction;
    d.d = 0 is checked when chains are built.
    """

    __slots__ = ("group", "cells", "boundary", "dimension")

    def __init__(self, group: FinGroup, cells, boundary=None):
        self.group = group
        cells = {int(n): tuple(tuple(lab) for lab in v)
                 for n, v in dict(cells).items()}
        if any(n < 0 for n in cells):
            raise ValueError("cell dimensions must be >= 0")
        filled = [n for n, labs in cells.items() if labs]
        if not filled:
            raise ValueError("complex has no cells")
        self.dimension = max(filled)
        self.cells = {n: cells.get(n, ()) for n in range(self.dimension + 1)}
        for n, labs in self.cells.items():
            for lab in labs:
                sub = frozenset(lab)
                if tuple(sorted(sub)) != lab or not group.is_subgroup(sub):
                    raise ValueError(
                        f"cell label {lab!r} is not a sorted subgroup label")
        norm = {}
        for (n, i), terms in dict(boundary or {}).items():
            if not (1 <= n <= self.dimension and 0 <= i < len(self.cells[n])):
                raise ValueError(f"boundary key ({n}, {i}) names no cell")
            h_sub = frozenset(self.cells[n][i])
            out = []
            for (coeff, j, coset) in terms:
                if not 0 <= j < len(self.cells[n - 1]):
                    raise ValueError(
                        f"boundary of cell ({n}, {i}) hits missing cell index {j}")
                k_lab = self.cells[n - 1][j]
                k_sub = frozenset(k_lab)
                coset = tuple(coset)
                r = min(coset)
                if _coset(group, r, k_sub) != coset:
                    raise ValueError(
                        f"{coset!r} is not a coset of {k_lab!r}")
                if any(group.conjugate(r, h) not in k_sub for h in h_sub):
                    raise ValueError(
                        f"coset {coset!r} gives no equivariant map "
                        f"G/{self.cells[n][i]!r} -> G/{k_lab!r}")
                if coeff:
                    out.append((int(coeff), j, coset))
            if out:
                norm[(n, i)] = tuple(out)
        self.boundary = norm

    def cell_count(self, n) -> int:
        return len(self.cells.get(n, ()))

    def isotropy(self):
        """Set of stabilizer subgroups appearing on cells (frozensets)."""
        return {frozenset(lab) for labs in self.cells.values() for lab in labs}

    def isotropy_family(self) -> SubgroupFamily:
        return family_closure(self.group, self.isotropy())

    def __repr__(self):
        counts = ", ".join(
            f"{n}: {len(labs)}" for n, labs in sorted(self.cells.items()))
        return f"GCWComplex(dim {self.dimension}; orbit cells {{{counts}}})"


def _orbit_cw(x: GCWComplex, cat: FinCategory) -> CatCWComplex:
    """The cell data of x over a given orbit category."""
    objset = set(cat.objects)
    for n, labs in x.cells.items():
        for lab in labs:
            if lab not in objset:
                raise ValueError(
                    f"isotropy subgroup {lab!r} lies outside the family of "
                    "the requested orbit category")
    boundary = {}
    for (n, i), terms in x.boundary.items():
        src = x.cells[n][i]
        boundary[(n, i)] = tuple(
            (coeff, j, (src, x.cells[n - 1][j], coset))
            for (coeff, j, coset) in terms)
    return CatCWComplex(cat, x.cells, boundary)


def fixed_point_chains(x: GCWComplex, family: SubgroupFamily) -> CatChainComplex:
    """Chains of all fixed-point subcomplexes at once, over Or(G, family).

    The value at G/K is the cellular chain complex of the K-fixed points:
    the K-fixed cells inside the orbit G/H are exactly the equivariant maps
    G/K -> G/H, which is what the free modules on the orbit cells evaluate
    to.  Requires every isotropy subgroup of x to lie in the family.
    """
    fg = family.group
    if fg is not x.group and (fg.elements != x.group.elements
                              or fg.table != x.group.table):
        raise ValueError("family belongs to a different group")
    cat = orbit_category(x.group, family)
    return cellular_chain_complex(_orbit_cw(x, cat))


def bredon_complex(x: GCWComplex, module: CatModule) -> PlainChainComplex:
    """Coefficient chains: fixed-point chains tensored over the orbit
    category with a covariant coefficient module."""
    if module.variance != COVARIANT:
        raise ValueError("Bredon homology takes a covariant coefficient module")
    chains = cellular_chain_complex(_orbit_cw(x, module.cat))
    total = TotalTensorComplex(chains, cat_complex_concentrated(module, 0))
    return total.complex


def bredon_homology(x: GCWComplex, module: CatModule, p: int) -> FpAbGroup:
    return homology(bredon_complex(x, module), p)


def centralizer_quotient_chains(x: GCWComplex, h_label) -> PlainChainComplex:
    """Chains of the H-fixed points modulo the centralizer of H.

    Degreewise the coinvariants of C_*(X^H) under the action of Z_G(H) by
    translation, with the induced differential.  H must occur in the isotropy
    family of the complex.
    """
    group = x.group
    h_lab = tuple(h_label)
    h_sub = frozenset(h_lab)
    if tuple(sorted(h_sub)) != h_lab or not group.is_subgroup(h_sub):
        raise ValueError(f"{h_label!r} is not a subgroup label")
    fam = x.isotropy_family()
    if h_sub not in fam:
        raise ValueError(
            f"subgroup {h_lab!r} is not in the isotropy family of the complex")
    cat = orbit_category(group, fam)
    chains = cellular_chain_complex(_orbit_cw(x, cat))
    moves = sorted({_coset(group, z, h_sub)
                    for z in group.centralizer(h_sub)})
    groups, diffs = {}, {}
    for n in range(x.dimension + 1):
        value = chains.module(n).value(h_lab)
        rels = []
        for coset in moves:
            act = chains.module(n).action((h_lab, h_lab, coset))
            for k in range(value.ngens):
                col = act.matrix.column(k)
                col[k] -= 1
                rels.append(col)
        groups[n], _ = quotient_group(value, rels)
    for n in range(1, x.dimension + 1):
        # the quotients are presented on the canonical chain coordinates
        diffs[n] = hom_from_presentation(
            groups[n], groups[n - 1], chains.diff(n).component(h_lab).matrix)
    return PlainChainComplex(0, x.dimension, groups, diffs)


# ---------------------------------------------------------------------------
# G-sets
# ---------------------------------------------------------------------------


class GSetAction:
    """A finite left G-set: underlying elements plus the full action table."""

    __slots__ = ("group", "elements", "action")

    def __init__(self, group: FinGroup, elements, action):
        self.group = group
        self.elements = tuple(elements)
        self.action = dict(action)
        elset = set(self.elements)
        for s in self.elements:
            if self.action.get((group.identity, s)) != s:
                raise ValueError(f"identity must fix {s!r}")
        for g in group.elements:
            for s in self.elements:
                t = self.action.get((g, s))
                if t not in elset:
                    raise ValueError(f"action incomplete at ({g!r}, {s!r})")
        for g in group.elements:
            for h in group.elements:
                gh = group.mult(g, h)
                for s in self.elements:
                    if self.action[(gh, s)] != self.action[(g, self.action[(h, s)])]:
                        raise ValueError(
                            f"action not associative at ({g!r}, {h!r}, {s!r})")

    @classmethod
    def cosets(cls, group: FinGroup, subgroup) -> "GSetAction":
        elements, action = coset_g_set(group, frozenset(subgroup))
        return cls(group, elements, action)

    def orbits(self):
        remaining = set(self.elements)
        out = []
        for s in self.elements:
            if s not in remaining:
                continue
            orb = {self.action[(g, s)] for g in self.group.elements}
            remaining -= orb
            out.append(tuple(sorted(orb)))
        return tuple(out)

    def transport(self) -> FinCategory:
        return transport_groupoid(self.group, self.elements, self.action)


def underlying_cells(x: GCWComplex, n: int) -> GSetAction:
    """The G-set of individual n-cells: pairs (orbit index, coset)."""
    group = x.group
    cells, action = [], {}
    for i, lab in enumerate(x.cells.get(n, ())):
        elements, act = coset_g_set(group, frozenset(lab))
        cells.extend((i, c) for c in elements)
        for g in group.elements:
            for c in elements:
                action[(g, (i, c))] = (i, act[(g, c)])
    return GSetAction(group, cells, action)


# ---------------------------------------------------------------------------
# Bar resolutions and the Borel construction
# ---------------------------------------------------------------------------


def _bar_data(group: FinGroup, truncation: int):
    """Truncated simplicial bar complex over the one-object category.

    Degree n is free (contravariant) on the |G|^n tuples (h_1, ..., h_n); the
    basis element (tuple, g) stands for the chain (g, h_1 g, h_2 h_1 g, ...)
    in G^{n+1}, on which the group acts by right translation.  The boundary
    drops one slot at a time, so it squares to zero for simplicial reasons;
    the constructor re-checks it anyway.

    Returns (complex, augmentation, constant) with the augmentation a module
    map from degree 0 onto the constant contravariant Z-module.
    """
    if truncation < 0:
        raise ValueError("truncation must be >= 0")
    ocat = one_object_category(group)
    obj = ocat.objects[0]
    tuples = {n: list(product(group.elements, repeat=n))
              for n in range(truncation + 1)}
    modules = {}
    for n in range(truncation + 1):
        modules[n], _ = free_module(ocat, [obj] * len(tuples[n]), CONTRAVARIANT)
    diffs = {}
    for n in range(1, truncation + 1):
        low = modules[n - 1]
        index = {lab: k for k, lab in enumerate(low.free_basis[obj])}
        pos = {tup: k for k, tup in enumerate(tuples[n - 1])}
        images = []
        for tup in tuples[n]:
            vec = [0] * low.value(obj).ngens
            # drop slot 0: the remaining chain starts at h_1 instead of e
            vec[index[(pos[tup[1:]], tup[0])]] += 1
            sign = -1
            for i in range(1, n):
                merged = (tup[:i - 1] + (group.mult(tup[i], tup[i - 1]),)
                          + tup[i + 1:])
                vec[index[(pos[merged], group.identity)]] += sign
                sign = -sign
            vec[index[(pos[tup[:-1]], group.identity)]] += sign
            images.append(vec)
        diffs[n] = free_map_from_images(modules[n], low, images)
    complex_ = CatChainComplex(ocat, CONTRAVARIANT, 0, truncation,
                               modules, diffs)
    constant = constant_module(ocat, FpAbGroup.free(1), CONTRAVARIANT)
    ones = IntMatrix.from_rows([[1] * modules[0].value(obj).ngens])
    augmentation = ModuleMap(modules[0], constant,
                             {obj: AbHom(modules[0].value(obj),
                                         FpAbGroup.free(1), ones)})
    return complex_, augmentation, constant


def bar_resolution_truncated(group: FinGroup, truncation: int) -> CatChainComplex:
    """Free resolution of the constants over the group ring, cut at the given
    degree.  Homology computed from it is reliable in degrees up to
    truncation - 1 only."""
    complex_, _, _ = _bar_data(group, truncation)
    return complex_


def _underlying_complex(x: GCWComplex) -> CatChainComplex:
    """Cellular chains of the underlying space, as covariant modules over the
    one-object category of the group (left translation action)."""
    group = x.group
    ocat = one_object_category(group)
    obj = ocat.objects[0]
    gsets = {n: underlying_cells(x, n) for n in range(x.dimension + 1)}
    modules = {}
    for n, gs in gsets.items():
        value = FpAbGroup.free(len(gs.elements))
        index = {c: k for k, c in enumerate(gs.elements)}
        actions = {}
        for g in group.elements:
            mat = IntMatrix.selection(
                len(gs.elements), [index[gs.action[(g, c)]] for c in gs.elements])
            actions[g] = AbHom(value, value, mat, check=False)
        modules[n] = CatModule(ocat, COVARIANT, {obj: value}, actions)
    diffs = {}
    for n in range(1, x.dimension + 1):
        low = gsets[n - 1]
        index = {c: k for k, c in enumerate(low.elements)}
        cols = []
        for (i, coset) in gsets[n].elements:
            g0 = min(coset)
            col = [0] * len(low.elements)
            for (coeff, j, rcos) in x.boundary.get((n, i), ()):
                dest = _coset(group, group.mult(g0, min(rcos)),
                              frozenset(x.cells[n - 1][j]))
                col[index[(j, dest)]] += coeff
            cols.append(col)
        mat = IntMatrix.from_columns(cols, nrows=len(low.elements))
        diffs[n] = ModuleMap(modules[n], modules[n - 1],
                             {obj: AbHom(modules[n].value(obj),
                                         modules[n - 1].value(obj), mat)})
    return CatChainComplex(ocat, COVARIANT, 0, x.dimension, modules, diffs)


BorelQuotient = namedtuple("BorelQuotient", ["borel", "quotient", "projection"])


def borel_valid_through(x: GCWComplex, truncation: int) -> int:
    """Largest homological degree the Borel total of x certifies when the bar
    resolution is cut at the given degree."""
    return truncation - 1 - x.dimension


def borel_and_quotient(x: GCWComplex, truncation: int) -> BorelQuotient:
    """Homotopy-quotient chains, strict-quotient chains, and the projection.

    borel: total complex of (truncated bar) tensored over the group with the
    underlying cellular chains; homology is reliable in degrees up to
    ``borel_valid_through(x, truncation)``.  quotient: chains of the orbit
    space, i.e. the coinvariants of the underlying chains.  projection: the
    chain map induced by augmenting the bar resolution.
    """
    if borel_valid_through(x, truncation) < 0:
        raise ValueError(
            f"bar truncation {truncation} is too small for a complex of "
            f"dimension {x.dimension}: no degree would be reliable")
    bar, augmentation, constant = _bar_data(x.group, truncation)
    cx = _underlying_complex(x)
    borel_total = TotalTensorComplex(bar, cx)
    quotient_total = TotalTensorComplex(cat_complex_concentrated(constant, 0), cx)
    projection = tensor_total_induced(borel_total, quotient_total,
                                      left_maps={0: augmentation})
    return BorelQuotient(borel_total.complex, quotient_total.complex, projection)


# ---------------------------------------------------------------------------
# Classifying models over the standard index categories
# ---------------------------------------------------------------------------


def classifying_model(kind: str, truncation: int) -> CatCWComplex:
    """Finite windows of the two contractible-by-design index models.

    kind "N": over the chain category on {0..K}; one vertex per object, one
    edge joining each consecutive pair.  Evaluation at i is the interval
    spanned by {i..K}.  Homology certified through degree K - 1.

    kind "RF": over the grid category on {0..K}; vertices Q0(n), horizontal
    and vertical edges Q1(n), square cells Q2(n).  A cell is kept exactly
    when the whole degree window it spans fits inside [0, K], so edges need
    n + 1 <= K and squares need n + 2 <= K.  Evaluation at m is a staircase
    triangle of lattice squares.  Dimension is exactly 2; homology certified
    through degree K - 2.
    """
    if kind == "N":
        if truncation < 1:
            raise ValueError("the interval model needs a window of size >= 1")
        big = truncation
        cat = standard_category("chain", big)
        cells = {0: tuple(range(big + 1)), 1: tuple(range(big))}
        boundary = {}
        for n in range(big):
            boundary[(1, n)] = ((1, n + 1, (n, n + 1)), (-1, n, (n, n)))
        return CatCWComplex(cat, cells, boundary, truncation_valid=big - 1)
    if kind == "RF":
        if truncation < 2:
            raise ValueError("the grid model needs a window of size >= 2")
        big = truncation
        cat = standard_category("grid", big)
        cells = {0: tuple(range(big + 1)),
                 1: tuple(range(big)) + tuple(range(big)),
                 2: tuple(range(big - 1))}
        boundary = {}
        for n in range(big):
            idn = (n, n, (0, 0))
            boundary[(1, n)] = ((1, n + 1, (n, n + 1, (1, 0))), (-1, n, idn))
            boundary[(1, big + n)] = ((1, n + 1, (n, n + 1, (0, 1))), (-1, n, idn))
        for n in range(big - 1):
            idn = (n, n, (0, 0))
            boundary[(2, n)] = (
                (1, n, idn),
                (1, big + n + 1, (n, n + 1, (1, 0))),
                (-1, n + 1, (n, n + 1, (0, 1))),
                (-1, big + n, idn))
        return CatCWComplex(cat, cells, boundary, truncation_valid=big - 2)
    raise ValueError(f"unknown model kind {kind!r} (expected 'N' or 'RF')")


ContractibilityReport = namedtuple(
    "ContractibilityReport", ["passed", "checked_through", "verdicts", "failures"])


def contractibility_check(x: CatCWComplex, through_degree: int) -> ContractibilityReport:
    """Is every evaluation of x connected with vanishing reduced homology?

    Checks H_0 = Z and H_p = 0 for 1 <= p <= through_degree at every base
    object.  Refuses degrees past the complex's advertised truncation-valid
    range; silence there would be indistinguishable from a wrong answer.
    """
    r = int(through_degree)
    if r < 0:
        raise ValueError("degree must be >= 0")
    if x.truncation_valid is not None and r > x.truncation_valid:
        raise ValueError(
            f"degree {r} exceeds the truncation-valid range "
            f"(<= {x.truncation_valid}); rebuild with a larger window")
    chains = cellular_chain_complex(x)
    free_z = FpAbGroup.free(1)
    verdicts, failures = {}, []
    for obj in x.base.objects:
        ev = chains.evaluate_at(obj)
        ok = True
        h0 = homology(ev, 0)
        if h0 != free_z:
            ok = False
            failures.append((obj, 0, h0))
        for p in range(1, r + 1):
            hp = homology(ev, p)
            if not hp.is_trivial():
                ok = False
                failures.append((obj, p, hp))
        verdicts[obj] = ok
    return ContractibilityReport(not failures, r, verdicts, tuple(failures))


# ---------------------------------------------------------------------------
# Example spaces
# ---------------------------------------------------------------------------


def point_space(group: FinGroup) -> GCWComplex:
    """One fixed point: a single cell with full stabilizer."""
    return GCWComplex(group, {0: (tuple(sorted(group.elements)),)})


def free_orbit_points(group: FinGroup) -> GCWComplex:
    """One free orbit of points."""
    return GCWComplex(group, {0: ((group.identity,),)})


def reflection_circle() -> GCWComplex:
    """The circle with the order-2 reflection: two fixed vertices, one free
    orbit of edges, both edges running from vertex 0 to vertex 1."""
    group = FinGroup.cyclic(2)
    full = tuple(sorted(group.elements))
    triv = (group.identity,)
    return GCWComplex(
        group,
        {0: (full, full), 1: (triv,)},
        {(1, 0): ((1, 1, full), (-1, 0, full))})


def antipodal_circle() -> GCWComplex:
    """The circle with the free order-2 rotation: one orbit of vertices, one
    orbit of edges, the generating edge running from the base vertex to its
    translate."""
    group = FinGroup.cyclic(2)
    triv = (group.identity,)
    other = tuple(g for g in group.elements if g != group.identity)
    return GCWComplex(
        group,
        {0: (triv,), 1: (triv,)},
        {(1, 0): ((1, 0, other), (-1, 0, triv))})


def hexagon_s3() -> GCWComplex:
    """The regular hexagon with its six symmetries that form a copy of the
    symmetric group on three letters: rotation by two steps and the
    reflection through vertex 0.  Two vertex orbits (stabilized by the two
    reflection subgroups through even and odd vertices) and one free orbit
    of edges; the generating edge runs from vertex 0 to vertex 1."""
    rot2 = (2, 3, 4, 5, 0, 1)
    flip0 = (0, 5, 4, 3, 2, 1)
    flip1 = (2, 1, 0, 5, 4, 3)
    group = FinGroup.from_permutations([rot2, flip0])
    triv = (group.identity,)
    stab0 = tuple(sorted(group.subgroup_generated([flip0])))
    stab1 = tuple(sorted(group.subgroup_generated([flip1])))
    e0 = _coset(group, group.identity, frozenset(stab0))
    e1 = _coset(group, group.identity, frozenset(stab1))
    return GCWComplex(
        group,
        {0: (stab0, stab1), 1: (triv,)},
        {(1, 0): ((1, 1, e1), (-1, 0, e0))})
