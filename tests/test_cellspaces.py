"""Cell structures, fixed-point chains, Bredon homology, bar/Borel, models.

Numeric oracles frozen here were computed independently first: circle and
interval homology by hand, classifying-space homology of Z/2 and Z/3 from
the standard small resolutions, fixed-point counts by listing cells.
"""

import argparse
import json
import signal
from functools import partial

import pytest

import orbifunctor.catmod as catmod
import orbifunctor.cellspaces as cs
import orbifunctor.chainplex as chainplex

from orbifunctor.exact_abelian import (
    AbHom,
    FpAbGroup,
    IntMatrix,
    hom_kernel_cokernel,
    is_isomorphism,
    quotient_group,
)
from orbifunctor.fincat import (
    FinGroup,
    SubgroupFamily,
    _coset_label,
    coset_g_set,
    one_object_category,
    pi0,
    standard_category,
    transport_groupoid,
)
from orbifunctor.catmod import (
    CONTRAVARIANT,
    COVARIANT,
    CatModule,
    ModuleMap,
    constant_module,
    free_module,
    validate_module_map,
)
from orbifunctor.chainplex import (
    CatChainComplex,
    TotalTensorComplex,
    cat_complex_concentrated,
    euler_characteristic,
    homology,
    homology_data,
    induced_map_on_homology,
    tensor_complex_over_cat,
)
from orbifunctor.cellspaces import (
    BorelQuotient,
    CatCWComplex,
    GCWComplex,
    antipodal_circle,
    bar_resolution_truncated,
    borel_and_quotient,
    borel_valid_through,
    bredon_complex,
    bredon_homology,
    cellular_chain_complex,
    centralizer_quotient_chains,
    classifying_model,
    contractibility_check,
    fixed_point_chains,
    free_orbit_points,
    hexagon_s3,
    point_space,
    reflection_circle,
)
from orbifunctor.cli import (
    decode_group,
    encode_gcw,
    parse_manifest,
    run,
)
from orbifunctor.verify import borel_vs_quotient_check

C2 = FinGroup.cyclic(2)
FULL = (0, 1)
TRIV = (0,)
Z = FpAbGroup.free(1)


def groups_of(c, top):
    from orbifunctor.exact_abelian import format_group
    return [format_group(homology(c, p)) for p in range(top + 1)]


def quotient_at(x, h_label, family=None):
    """The centralizer quotient of x at H, read off the fixed-point chains
    of x over the given family (default: the isotropy family)."""
    chains = fixed_point_chains(x, family or x.isotropy_family())
    return centralizer_quotient_chains(chains, x.group, h_label)


# ---------------------------------------------------------------------------
# CatCWComplex construction and the chain functor
# ---------------------------------------------------------------------------


def on_both_constructors(counts, boundary=None):
    """The same cell data as a CatCWComplex (each cell at object 0 of a chain
    category, attached along the identity) and as a GCWComplex (free C_2
    orbits, attached along the identity coset); one builder each.  counts:
    dimension -> number of cells; boundary: (n, i) -> (coeff, j) terms."""
    builds = []
    for make, label, attach in (
            (partial(CatCWComplex, standard_category("chain", 1)), 0, (0, 0)),
            (partial(GCWComplex, C2), TRIV, TRIV)):
        cells = {n: (label,) * k for n, k in counts.items()}
        terms = {key: tuple((c, j, attach) for c, j in ts)
                 for key, ts in dict(boundary or {}).items()}
        builds.append(partial(make, cells, terms))
    return builds


class TestCatCW:
    def test_interval_over_chain_category(self):
        cat = standard_category("chain", 2)
        x = CatCWComplex(cat, {0: (0, 2), 1: (0,)},
                         {(1, 0): ((1, 1, (0, 2)), (-1, 0, (0, 0)))})
        c = cellular_chain_complex(x)
        assert c.is_degreewise_free()
        ev = c.evaluate_at(0)
        assert groups_of(ev, 1) == ["Z", "0"]
        # at object 1 only the vertex tagged 2 is visible: nothing maps
        # backwards to 0, so the edge and the other vertex drop out
        ev1 = c.evaluate_at(1)
        assert ev1.group(0).ngens == 1 and ev1.group(1).ngens == 0

    def test_unknown_tag_rejected(self):
        cat = standard_category("chain", 1)
        with pytest.raises(ValueError, match="not a base object"):
            CatCWComplex(cat, {0: (7,)})

    def test_bad_attaching_morphism_rejected(self):
        cat = standard_category("chain", 2)
        with pytest.raises(ValueError, match="attaching morphism"):
            CatCWComplex(cat, {0: (0, 1), 1: (0,)},
                         {(1, 0): ((1, 1, (0, 2)),)})

    # the structural checks are shared, so each runs on both constructors

    def test_bad_cell_index_rejected(self):
        for build in on_both_constructors({0: 1, 1: 1}, {(1, 0): ((1, 5),)}):
            with pytest.raises(ValueError, match="missing cell index"):
                build()

    def test_boundary_key_must_name_a_cell(self):
        for build in on_both_constructors({0: 1}, {(1, 0): ()}):
            with pytest.raises(ValueError, match="names no cell"):
                build()

    def test_empty_complex_rejected(self):
        for build in on_both_constructors({0: 0}):
            with pytest.raises(ValueError, match="no cells"):
                build()

    def test_negative_dimension_rejected(self):
        for build in on_both_constructors({-1: 1, 0: 1}):
            with pytest.raises(ValueError, match="dimensions must be >= 0"):
                build()

    def test_zero_terms_and_empty_keys_dropped(self):
        for build in on_both_constructors(
                {0: 2, 1: 2}, {(1, 0): ((0, 1), (1, 0)), (1, 1): ((0, 0),)}):
            x = build()
            assert x.dimension == 1 and x.cell_count(1) == 2
            assert list(x.boundary) == [(1, 0)]
            assert [t[:2] for t in x.boundary[(1, 0)]] == [(1, 0)]

    def test_boundary_not_squaring_to_zero_rejected(self):
        # a 2-cell whose boundary is a single 1-cell with nonzero boundary
        cat = standard_category("chain", 0)
        x = CatCWComplex(cat, {0: (0, 0), 1: (0,), 2: (0,)},
                         {(1, 0): ((1, 1, (0, 0)), (-1, 0, (0, 0))),
                          (2, 0): ((1, 0, (0, 0)),)})
        with pytest.raises(ValueError, match="boundary data rejected"):
            cellular_chain_complex(x)

    def test_plain_circle_over_point_category(self):
        cat = standard_category("chain", 0)
        x = CatCWComplex(cat, {0: (0,), 1: (0,)})
        ev = cellular_chain_complex(x).evaluate_at(0)
        assert groups_of(ev, 1) == ["Z", "Z"]

    def test_differentials_are_natural_without_squaring(self, monkeypatch):
        # each differential maps a free module into a free module by its
        # generator images, natural by the Yoneda lemma: building the chains
        # of the grid model checks d∘d but squares no morphism
        calls = []
        real = catmod._square_commutes
        monkeypatch.setattr(catmod, "_square_commutes",
                            lambda mm, f: calls.append(f) or real(mm, f))
        chains = cellular_chain_complex(classifying_model("RF", 5))
        assert calls == []
        # squared all the same, every differential is natural
        for p in range(chains.lo + 1, chains.hi + 1):
            d = chains.diff(p)
            d._memo.clear()
            assert validate_module_map(d) == []
        assert calls


# ---------------------------------------------------------------------------
# Equivariant cell data
# ---------------------------------------------------------------------------


class TestGCW:
    def test_label_must_be_subgroup(self):
        with pytest.raises(ValueError, match="subgroup label"):
            GCWComplex(C2, {0: ((1,),)})

    def test_label_must_be_sorted(self):
        with pytest.raises(ValueError, match="subgroup label"):
            GCWComplex(C2, {0: ((1, 0),)})

    def test_coset_label_checked(self):
        with pytest.raises(ValueError, match="is not a coset"):
            GCWComplex(C2, {0: (TRIV,), 1: (TRIV,)},
                       {(1, 0): ((1, 0, (0, 1)),)})

    def test_equivariance_of_attaching_map_checked(self):
        # no equivariant map from the fixed orbit to the free orbit
        with pytest.raises(ValueError, match="no equivariant map"):
            GCWComplex(C2, {0: (TRIV,), 1: (FULL,)},
                       {(1, 0): ((1, 0, (0,)),)})

    def test_isotropy_family_of_hexagon(self):
        fam = hexagon_s3().isotropy_family()
        # trivial and the three conjugate reflections; no rotations
        assert len(fam) == 4

    def test_cell_counts(self):
        x = reflection_circle()
        assert (x.cell_count(0), x.cell_count(1), x.cell_count(7)) == (2, 1, 0)


class TestFixedPoints:
    def test_reflection_circle_evaluations(self):
        ch = fixed_point_chains(reflection_circle(), SubgroupFamily.all(C2))
        free_ev = ch.evaluate_at(TRIV)
        # underlying circle: ranks are the orbit sizes
        assert [free_ev.group(p).ngens for p in (0, 1)] == [2, 2]
        assert groups_of(free_ev, 1) == ["Z", "Z"]
        fixed_ev = ch.evaluate_at(FULL)
        assert [fixed_ev.group(p).ngens for p in (0, 1)] == [2, 0]
        assert groups_of(fixed_ev, 1) == ["Z^2", "0"]

    def test_full_complex_ranks_are_orbit_indices(self):
        hexa = hexagon_s3()
        ch = fixed_point_chains(hexa, SubgroupFamily.all(hexa.group))
        ev = ch.evaluate_at((hexa.group.identity,))
        assert [ev.group(p).ngens for p in (0, 1)] == [6, 6]
        assert groups_of(ev, 1) == ["Z", "Z"]

    def test_hexagon_reflection_fixed_points(self):
        hexa = hexagon_s3()
        ch = fixed_point_chains(hexa, SubgroupFamily.all(hexa.group))
        stab0 = hexa.cells[0][0]
        ev = ch.evaluate_at(stab0)
        # opposite vertices 0 and 3 are fixed, no edges
        assert [ev.group(p).ngens for p in (0, 1)] == [2, 0]
        assert groups_of(ev, 0) == ["Z^2"]

    def test_degreewise_free_marked(self):
        ch = fixed_point_chains(antipodal_circle(), SubgroupFamily.all(C2))
        assert ch.is_degreewise_free()

    def test_family_group_mismatch(self):
        s3 = FinGroup.symmetric(3)
        with pytest.raises(ValueError, match="different group"):
            fixed_point_chains(reflection_circle(), SubgroupFamily.all(s3))

    def test_isotropy_outside_family(self):
        with pytest.raises(ValueError, match="outside the family"):
            fixed_point_chains(reflection_circle(), SubgroupFamily.trivial(C2))


# ---------------------------------------------------------------------------
# Bredon homology
# ---------------------------------------------------------------------------


def orbit_cat(group):
    from orbifunctor.fincat import orbit_category
    return orbit_category(group, SubgroupFamily.all(group))


class TestBredon:
    def test_point_gives_value_at_fixed_orbit(self):
        cat = orbit_cat(C2)
        # a non-constant coefficient module: free covariant on the free orbit
        mod = free_module(cat, [TRIV], COVARIANT)
        assert mod.value(FULL) != mod.value(TRIV)
        x = point_space(C2)
        assert bredon_homology(x, mod, 0) == mod.value(FULL)
        assert bredon_homology(x, mod, 1).is_trivial()

    def test_point_with_constant_torsion_module(self):
        cat = orbit_cat(C2)
        mod = constant_module(cat, FpAbGroup.cyclic(4), COVARIANT)
        assert bredon_homology(point_space(C2), mod, 0) == FpAbGroup.cyclic(4)

    def test_trivial_group_reduces_to_ordinary_homology(self):
        e = FinGroup.trivial()
        lab = (e.identity,)
        circle = GCWComplex(e, {0: (lab,), 1: (lab,)})
        mod = constant_module(orbit_cat(e), Z, COVARIANT)
        assert bredon_homology(circle, mod, 0) == Z
        assert bredon_homology(circle, mod, 1) == Z

    def test_reflection_circle_constant_z(self):
        mod = constant_module(orbit_cat(C2), Z, COVARIANT)
        x = reflection_circle()
        assert bredon_homology(x, mod, 0) == Z
        assert bredon_homology(x, mod, 1).is_trivial()

    def test_antipodal_circle_constant_z(self):
        mod = constant_module(orbit_cat(C2), Z, COVARIANT)
        x = antipodal_circle()
        assert bredon_homology(x, mod, 0) == Z
        assert bredon_homology(x, mod, 1) == Z

    def test_hexagon_constant_z_is_quotient_arc(self):
        hexa = hexagon_s3()
        mod = constant_module(orbit_cat(hexa.group), Z, COVARIANT)
        assert bredon_homology(hexa, mod, 0) == Z
        assert bredon_homology(hexa, mod, 1).is_trivial()

    def test_contravariant_coefficients_rejected(self):
        mod = constant_module(orbit_cat(C2), Z, CONTRAVARIANT)
        with pytest.raises(ValueError, match="covariant"):
            bredon_complex(reflection_circle(), mod)

    def test_constant_z_matches_coinvariants_at_trivial_subgroup(self):
        # same quotient computed two independent ways
        for x in (reflection_circle(), antipodal_circle(), hexagon_s3()):
            mod = constant_module(orbit_cat(x.group), Z, COVARIANT)
            q = quotient_at(x, (x.group.identity,))
            for p in range(x.dimension + 1):
                assert bredon_homology(x, mod, p) == homology(q, p)


# ---------------------------------------------------------------------------
# Coinvariant chains of fixed-point spaces
# ---------------------------------------------------------------------------


class TestCentralizerQuotient:
    def test_point_full_stabilizer(self):
        q = quotient_at(point_space(C2), FULL)
        assert groups_of(q, 0) == ["Z"]

    def test_free_orbit_collapses_to_one_point(self):
        q = quotient_at(free_orbit_points(C2), TRIV)
        assert groups_of(q, 0) == ["Z"]

    def test_reflection_circle_fixed_classes(self):
        q = quotient_at(reflection_circle(), FULL)
        assert groups_of(q, 1) == ["Z^2", "0"]

    def test_hexagon_reflection_classes(self):
        hexa = hexagon_s3()
        q = quotient_at(hexa, hexa.cells[0][0])
        # two fixed vertices, centralizer acts trivially on them
        assert groups_of(q, 1) == ["Z^2", "0"]

    def test_subgroup_outside_family_rejected(self):
        hexa = hexagon_s3()
        rot = tuple(sorted(hexa.group.subgroup_generated([(2, 3, 4, 5, 0, 1)])))
        # the chains over the isotropy family have no object G/H for the
        # rotations, which fix no cell
        with pytest.raises(ValueError, match="not an object under the chains"):
            quotient_at(hexa, rot)

    def test_malformed_label_rejected(self):
        with pytest.raises(ValueError, match="subgroup label"):
            quotient_at(point_space(C2), (1,))

    def test_any_family_containing_h_gives_the_same_quotient(self):
        hexa = hexagon_s3()
        everything = SubgroupFamily.all(hexa.group)
        for lab in (hexa.cells[0][0], hexa.cells[0][1], hexa.cells[1][0]):
            ours = quotient_at(hexa, lab, everything)
            theirs = quotient_at(hexa, lab)
            for p in range(hexa.dimension + 1):
                assert homology(ours, p) == homology(theirs, p)

    def test_subgroup_without_fixed_cells_gives_the_zero_complex(self):
        # over the family of all subgroups the rotations are objects, and
        # X^H is empty there
        hexa = hexagon_s3()
        rot = tuple(sorted(hexa.group.subgroup_generated([(2, 3, 4, 5, 0, 1)])))
        q = quotient_at(hexa, rot, SubgroupFamily.all(hexa.group))
        assert groups_of(q, 1) == ["0", "0"]


# ---------------------------------------------------------------------------
# G-sets and the underlying chains
# ---------------------------------------------------------------------------


def underlying_cells(x, n):
    """(elements, action) of the G-set of individual n-cells, pairs (orbit
    index, coset), in the shape of `coset_g_set`."""
    group = x.group
    cells, action = [], {}
    for i, lab in enumerate(x.cells.get(n, ())):
        elements, act = coset_g_set(group, frozenset(lab))
        cells.extend((i, c) for c in elements)
        for g in group.elements:
            for c in elements:
                action[(g, (i, c))] = (i, act[(g, c)])
    return cells, action


def coset_underlying_complex(x):
    """Underlying cellular chains built cell by cell from `underlying_cells`
    and coset arithmetic, without the orbit category: the oracle for the
    route through the fixed-point chains at G/1."""
    group = x.group
    ocat = one_object_category(group)
    obj = ocat.objects[0]
    gsets = {n: underlying_cells(x, n) for n in range(x.dimension + 1)}
    modules = {}
    for n, (elements, action) in gsets.items():
        value = FpAbGroup.free(len(elements))
        index = {c: k for k, c in enumerate(elements)}
        actions = {}
        for g in group.elements:
            mat = IntMatrix.selection(
                len(elements), [index[action[(g, c)]] for c in elements])
            actions[g] = AbHom(value, value, mat, check=False)
        modules[n] = CatModule(ocat, COVARIANT, {obj: value}, actions)
    diffs = {}
    for n in range(1, x.dimension + 1):
        low = gsets[n - 1][0]
        index = {c: k for k, c in enumerate(low)}
        cols = []
        for (i, coset) in gsets[n][0]:
            g0 = min(coset)
            col = [0] * len(low)
            for (coeff, j, rcos) in x.boundary.get((n, i), ()):
                dest = _coset_label(group, group.mult(g0, min(rcos)),
                                    frozenset(x.cells[n - 1][j]))
                col[index[(j, dest)]] += coeff
            cols.append(col)
        mat = IntMatrix.from_columns(cols, nrows=len(low))
        diffs[n] = ModuleMap(modules[n], modules[n - 1],
                             {obj: AbHom(modules[n].value(obj),
                                         modules[n - 1].value(obj), mat)})
    return CatChainComplex(ocat, COVARIANT, 0, x.dimension, modules, diffs)


def trivial_circle():
    e = FinGroup.trivial()
    lab = (e.identity,)
    return GCWComplex(e, {0: (lab,), 1: (lab,)})


# every kind of G-CW space the suite builds: points with full stabilizer,
# free orbits, circles with fixed and with free cells, the hexagon
GCW_SPACES = {
    "c2-point": lambda: point_space(C2),
    "c3-point": lambda: point_space(FinGroup.cyclic(3)),
    "d4-point": lambda: point_space(FinGroup.dihedral(4)),
    "s3-free-orbit": lambda: free_orbit_points(FinGroup.symmetric(3)),
    "reflection-circle": reflection_circle,
    "antipodal-circle": antipodal_circle,
    "hexagon": hexagon_s3,
    "c4-rotation-circle": lambda: rotation_circle(FinGroup.cyclic(4), 1),
    "trivial-circle": trivial_circle,
}


class TestGSets:
    def test_coset_construction(self):
        elements, action = coset_g_set(C2, TRIV)
        assert len(elements) == 2
        assert pi0(transport_groupoid(C2, elements, action)) == \
            (((0,), (1,)),)

    @pytest.mark.parametrize("name", sorted(GCW_SPACES))
    def test_underlying_chains_match_the_coset_builder(self, name):
        x = GCW_SPACES[name]()
        new, old = cs._underlying_complex(x), coset_underlying_complex(x)
        assert (new.lo, new.hi, new.variance) == (old.lo, old.hi, COVARIANT)
        for n in new.degrees():
            fresh, kept = new.module(n), old.module(n)
            assert fresh.value("*") == kept.value("*")
            for g in x.group.elements:
                assert fresh.action(g).matrix == kept.action(g).matrix
            if n > new.lo:
                assert (new.diff(n).component("*").matrix
                        == old.diff(n).component("*").matrix)
        if name == "hexagon":
            assert [new.module(n).value("*").ngens for n in (0, 1)] == [6, 6]
            orbits = {n: pi0(transport_groupoid(
                x.group, *underlying_cells(x, n))) for n in (0, 1)}
            assert sorted(len(o) for o in orbits[0]) == [3, 3]
            assert [len(o) for o in orbits[1]] == [6]

    def test_transport_groupoid_roundtrip(self):
        cat = transport_groupoid(C2, *coset_g_set(C2, FULL))
        assert len(cat.objects) == 1 and len(cat.morphisms) == 2


# ---------------------------------------------------------------------------
# Bar resolutions and group homology
# ---------------------------------------------------------------------------


class TestBar:
    def test_evaluation_is_exact_in_valid_range(self):
        bar = bar_resolution_truncated(C2, 4)
        ev = bar.evaluate_at("*")
        assert groups_of(ev, 3) == ["Z", "0", "0", "0"]

    def test_rank_growth(self):
        bar = bar_resolution_truncated(C2, 3)
        sizes = [bar.module(n).value("*").ngens for n in range(4)]
        # |G|^n generators, each of rank |G|
        assert sizes == [2, 4, 8, 16]

    def test_group_homology_of_z2(self):
        bar = bar_resolution_truncated(C2, 5)
        constz = constant_module(bar.base, Z, COVARIANT)
        c = tensor_complex_over_cat(bar, cat_complex_concentrated(constz, 0))
        assert groups_of(c, 4) == ["Z", "Z/2", "0", "Z/2", "0"]

    def test_group_homology_of_z3(self):
        g3 = FinGroup.cyclic(3)
        bar = bar_resolution_truncated(g3, 4)
        constz = constant_module(bar.base, Z, COVARIANT)
        c = tensor_complex_over_cat(bar, cat_complex_concentrated(constz, 0))
        assert groups_of(c, 3) == ["Z", "Z/3", "0", "Z/3"]

    def test_negative_truncation_rejected(self):
        with pytest.raises(ValueError, match=">= 0"):
            bar_resolution_truncated(C2, -1)


class TestBorel:
    def test_fixed_point_detects_group_cohomology(self):
        bq = borel_and_quotient(point_space(C2), 5)
        assert isinstance(bq, BorelQuotient)
        top = borel_valid_through(point_space(C2), 5)
        assert top == 4
        assert groups_of(bq.borel, top) == ["Z", "Z/2", "0", "Z/2", "0"]
        assert groups_of(bq.quotient, 0) == ["Z"]
        kernels = []
        for p in range(top + 1):
            ker, coker = hom_kernel_cokernel(
                induced_map_on_homology(bq.projection, p))
            assert coker.is_trivial()
            kernels.append(ker)
        assert [k.torsion for k in kernels] == [(), (2,), (), (2,), ()]

    def test_free_action_makes_projection_iso(self):
        x = antipodal_circle()
        bq = borel_and_quotient(x, 4)
        top = borel_valid_through(x, 4)
        assert top == 2
        assert groups_of(bq.quotient, 1) == ["Z", "Z"]
        for p in range(top + 1):
            assert is_isomorphism(induced_map_on_homology(bq.projection, p))

    def test_reflection_circle_is_a_wedge_of_classifying_spaces(self):
        bq = borel_and_quotient(reflection_circle(), 4)
        assert groups_of(bq.borel, 2) == ["Z", "Z/2 ⊕ Z/2", "0"]

    def test_projection_onto_h0_is_surjective(self):
        for x in (point_space(C2), reflection_circle(), antipodal_circle()):
            bq = borel_and_quotient(x, 3)
            _, coker = hom_kernel_cokernel(
                induced_map_on_homology(bq.projection, 0))
            assert coker.is_trivial()

    def test_truncation_too_small_rejected(self):
        with pytest.raises(ValueError, match="too small"):
            borel_and_quotient(reflection_circle(), 1)

    @pytest.mark.parametrize("space", ["c2-point", "c2-reflection",
                                       "c2-antipodal", "c3-point",
                                       "c3-rotation"])
    def test_quotient_is_the_coinvariants_of_the_underlying_chains(self,
                                                                  space):
        # Z ⊗ C over the group is the only tensor with a first factor
        # without markers that the Borel check builds: degree by degree it
        # is C / ((g - 1)·y)
        c3 = FinGroup.cyclic(3)
        x = {"c2-point": lambda: point_space(C2),
             "c2-reflection": reflection_circle,
             "c2-antipodal": antipodal_circle,
             "c3-point": lambda: point_space(c3),
             "c3-rotation": lambda: rotation_circle(c3, 1)}[space]()
        cx = cs._underlying_complex(x)
        quotient = borel_and_quotient(x, 4).quotient
        for n in range(x.dimension + 1):
            module = cx.module(n)
            value = module.value(module.cat.objects[0])
            moved = [[a - b for a, b in zip(module.action(g).apply(y), y)]
                     for g in x.group.elements
                     for y in ([int(i == j) for i in range(value.ngens)]
                               for j in range(value.ngens))]
            assert quotient.group(n) == quotient_group(value, moved)[0]


# ---------------------------------------------------------------------------
# The periodic resolution of a cyclic group against the bar resolution
# ---------------------------------------------------------------------------


def _within_a_second(call):
    def overrun(signum, frame):
        raise TimeoutError("took more than a second")
    previous = signal.signal(signal.SIGALRM, overrun)
    signal.alarm(1)
    try:
        return call()
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def bar_group_homology(group, truncation):
    bar = bar_resolution_truncated(group, truncation)
    constz = constant_module(bar.base, Z, COVARIANT)
    return tensor_complex_over_cat(bar, cat_complex_concentrated(constz, 0))


def rotation_circle(group, t):
    """The circle with the cyclic group rotating it freely: one free orbit
    of vertices and one of edges, the generating edge running from the base
    vertex to its translate by the generator t."""
    triv = (group.identity,)
    return GCWComplex(group, {0: (triv,), 1: (triv,)},
                      {(1, 0): ((1, 0, (t,)), (-1, 0, triv))})


def transported(x, group, phi):
    """The G-CW complex x carried along the isomorphism phi onto group."""
    def move(elements):
        return tuple(sorted(phi[g] for g in elements))
    return GCWComplex(
        group, {n: tuple(move(lab) for lab in labs)
                for n, labs in x.cells.items()},
        {key: tuple((c, j, move(coset)) for c, j, coset in terms)
         for key, terms in x.boundary.items()})


class TestPeriodic:
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_group_homology_matches_the_bar(self, n):
        group = FinGroup.cyclic(n)
        top = max(t for t in range(1, 9) if n ** t <= 256)
        bq = borel_and_quotient(point_space(group), top)
        # one generator per degree: the total over a point is Z in each
        assert [bq.borel.group(p).ngens for p in range(top + 1)] == \
            [1] * (top + 1)
        assert groups_of(bq.borel, top - 1) == \
            groups_of(bar_group_homology(group, top), top - 1)

    @pytest.mark.parametrize("space", ["point", "reflection", "antipodal",
                                       "c3-point", "c3-rotation"])
    def test_check_matches_the_bar_built_check(self, space, monkeypatch):
        # the bar resolution repeats no object from degree to degree, so its
        # check shares no piece of the total: it is the oracle for the
        # periodic one, whose degrees share theirs
        c3 = FinGroup.cyclic(3)
        x = {"point": point_space(C2), "reflection": reflection_circle(),
             "antipodal": antipodal_circle(), "c3-point": point_space(c3),
             "c3-rotation": rotation_circle(c3, 1)}[space]
        # the bar refuses C_3 past truncation 5 (3^6 tuples)
        top = 7 if x.group.order == 2 else 6
        periodic = {t: borel_vs_quotient_check(x.group, x, t)
                    for t in range(3, top)}
        monkeypatch.setattr(cs, "_periodic_data",
                            lambda group, t, truncation:
                            cs._bar_data(group, truncation))
        for t, rep in periodic.items():
            bar = borel_vs_quotient_check(x.group, x, t)
            assert (rep.passed, rep.valid_through) == \
                (bar.passed, bar.valid_through)
            assert rep.per_degree == bar.per_degree

    @pytest.mark.parametrize("kind", ["permutations", "table"])
    def test_relabelled_cyclic_group_gives_the_same_report(self, kind):
        # C_4 twice: by a 4-cycle, and by a table in which the element
        # labelled 1 has order 2 and the generator is labelled 2
        if kind == "permutations":
            section = {"kind": kind, "generators": [["1", "2", "3", "0"]]}
            phi = {0: (0, 1, 2, 3), 1: (1, 2, 3, 0), 2: (2, 3, 0, 1),
                   3: (3, 0, 1, 2)}
        else:
            power = [0, 2, 1, 3]        # the label of each power of r
            log = {lab: k for k, lab in enumerate(power)}
            section = {"kind": kind, "elements": [0, 1, 2, 3],
                       "table": [[power[(log[a] + log[b]) % 4]
                                  for b in range(4)] for a in range(4)]}
            phi = dict(enumerate(power))
        c4 = FinGroup.cyclic(4)
        other = decode_group(section, "group")
        args = argparse.Namespace(degree=None, truncation=6, mode=None,
                                  model=None)
        for x in (point_space(c4), rotation_circle(c4, 1)):
            reports = []
            for group, y in (({"kind": "cyclic", "n": "4"}, x),
                             (section, transported(x, other, phi))):
                manifest = parse_manifest(json.dumps({
                    "version": "1", "group": group, "gcw": encode_gcw(y)}))
                rep = run("borel-check", manifest, args)
                rep.digest = None          # the manifests differ
                reports.append(rep.to_json())
            assert reports[0] == reports[1]

    @pytest.mark.skipif(not hasattr(signal, "SIGALRM"), reason="needs SIGALRM")
    @pytest.mark.parametrize("n,truncation", [(3, 8), (5, 6)])
    def test_deep_truncations_answer_at_once(self, n, truncation):
        group = FinGroup.cyclic(n)
        rep = _within_a_second(lambda: borel_vs_quotient_check(
            group, point_space(group), truncation))
        assert rep.passed and rep.valid_through == truncation - 1
        for p, (ker, coker, _, _) in rep.per_degree.items():
            assert ker.torsion == ((n,) if p % 2 else ())
            assert ker.rank == 0 and coker.is_trivial()

    @pytest.mark.skipif(not hasattr(signal, "SIGALRM"), reason="needs SIGALRM")
    def test_each_differential_is_checked_once(self, monkeypatch):
        # the periodic resolution of C_24 at T = 256 passes the same two maps
        # (t - 1 and N) in every degree; each is validated once
        calls = []
        real = chainplex.validate_module_map
        monkeypatch.setattr(chainplex, "validate_module_map",
                            lambda mm: calls.append(mm) or real(mm))
        group = FinGroup.cyclic(24)
        rep = _within_a_second(lambda: borel_vs_quotient_check(
            group, point_space(group), 256))
        assert rep.passed and len(calls) == 2

    def test_repeated_degrees_share_their_pieces(self):
        # over the C_2 point every degree of the Borel total is ZG ⊗ Z, and
        # the differentials alternate between the two maps t - 1 and N
        t = next(g for g in C2.elements if g != C2.identity)
        res, _ = cs._periodic_data(C2, t, 6)
        total = TotalTensorComplex(res,
                                   cs._underlying_complex(point_space(C2)))
        assert len({id(part) for part in total.parts.values()}) == 1
        assert len({id(s) for s in total.sums.values()}) == 1
        borel = borel_and_quotient(point_space(C2), 6).borel
        d = borel.diffs
        assert d[1] is d[3] is d[5] and d[2] is d[4] is d[6]
        assert d[1] is not d[2]
        assert homology_data(borel, 1) is homology_data(borel, 3) \
            is homology_data(borel, 5)
        assert homology_data(borel, 2) is homology_data(borel, 4)
        # the top end, closed by the zero map out of the zero group, stands
        # apart; past it, every degree has the same zero maps and group
        assert homology_data(borel, 6) is not homology_data(borel, 4)
        assert borel.differential(9) is borel.differential(12)
        assert homology_data(borel, 8) is homology_data(borel, 11) \
            is homology_data(borel, -2)
        assert groups_of(borel, 5) == ["Z", "Z/2", "0", "Z/2", "0", "Z/2"]
        # the projection onto the quotient induces one map per distinct
        # (source data, target data, component)
        proj = borel_and_quotient(point_space(C2), 6).projection
        assert proj.component(3) is proj.component(5)
        assert induced_map_on_homology(proj, 3) \
            is induced_map_on_homology(proj, 5)
        assert induced_map_on_homology(proj, 2) \
            is induced_map_on_homology(proj, 4)

    @pytest.mark.skipif(not hasattr(signal, "SIGALRM"), reason="needs SIGALRM")
    def test_past_the_bound_is_refused_before_building(self):
        # C_24 at the bound itself takes seconds
        group = FinGroup.cyclic(24)
        with pytest.raises(ValueError, match="at most|must be in"):
            _within_a_second(lambda: borel_and_quotient(point_space(group),
                                                        257))


# ---------------------------------------------------------------------------
# Classifying models and contractibility
# ---------------------------------------------------------------------------


class TestModels:
    def test_interval_model_counts(self):
        x = classifying_model("N", 3)
        assert (x.cell_count(0), x.cell_count(1)) == (4, 3)
        assert x.dimension == 1
        assert x.truncation_valid == 2

    def test_grid_model_counts(self):
        x = classifying_model("RF", 2)
        assert (x.cell_count(0), x.cell_count(1), x.cell_count(2)) == (3, 4, 1)
        assert x.dimension == 2

    def test_grid_model_dimension_is_exactly_two(self):
        for big in (2, 3, 4):
            x = classifying_model("RF", big)
            assert x.dimension == 2
            assert x.cell_count(2) == big - 1

    def test_interval_model_contractible(self):
        x = classifying_model("N", 4)
        report = contractibility_check(x, x.truncation_valid)
        assert report.passed
        assert all(report.verdicts.values())

    def test_grid_model_contractible(self):
        x = classifying_model("RF", 4)
        report = contractibility_check(x, x.truncation_valid)
        assert report.passed and report.checked_through == 2

    def test_grid_evaluation_is_a_staircase_triangle(self):
        x = classifying_model("RF", 2)
        ev = cellular_chain_complex(x).evaluate_at(0)
        assert [ev.group(p).ngens for p in (0, 1, 2)] == [6, 6, 1]
        assert euler_characteristic(ev) == 1

    def test_refusal_past_valid_range(self):
        x = classifying_model("RF", 3)
        with pytest.raises(ValueError, match="truncation-valid"):
            contractibility_check(x, 2)

    def test_untruncated_complex_checked_at_any_degree(self):
        cat = standard_category("chain", 0)
        x = CatCWComplex(cat, {0: (0,)})
        report = contractibility_check(x, 5)
        assert report.passed

    def test_failure_is_witnessed(self):
        cat = standard_category("chain", 0)
        circle = CatCWComplex(cat, {0: (0,), 1: (0,)})
        report = contractibility_check(circle, 1)
        assert not report.passed
        assert report.failures and report.failures[0][0] == 0

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown model kind"):
            classifying_model("X", 3)

    def test_window_lower_bounds(self):
        with pytest.raises(ValueError):
            classifying_model("N", 0)
        with pytest.raises(ValueError):
            classifying_model("RF", 1)
