"""Chain complex layer: homology, induced maps, totals over a category, and
the tensor-of-hom to hom-of-tensor comparison map.

The running equivariant example is the reflection circle over Or(Z/2): two
fixed vertices, one free orbit of edges.  Its values, quotient homology, and
fixed-point homology are computed by hand and frozen here.
"""

import doctest
import importlib.resources

import pytest

import orbifunctor.chainplex as chainplex_mod
from orbifunctor.chainplex import (
    BiFunctorComplex,
    CatChainComplex,
    ChainMap,
    ComparisonData,
    PlainChainComplex,
    TotalHomComplex,
    TotalTensorComplex,
    cat_complex_concentrated,
    comparison_map_t,
    complex_concentrated,
    euler_characteristic,
    hom_complex_over_cat,
    hom_total_induced,
    homology,
    homology_data,
    induced_map_on_homology,
    tensor_complex_over_cat,
    tensor_total_induced,
    validate_bifunctor,
)
from orbifunctor.catmod import (
    CatHomGroup,
    CatModule,
    ModuleMap,
    constant_module,
    free_map_from_images,
    free_module,
    tensor_over_cat,
    validate_module_map,
    zero_module,
)
from orbifunctor.exact_abelian import (
    AbHom,
    FpAbGroup,
    IntMatrix,
    express_in_kernel,
    is_isomorphism,
    solve_image_membership,
    tensor_group,
)
from orbifunctor.fincat import FinGroup, SubgroupFamily, \
    one_object_category, orbit_category, standard_category
from orbifunctor.cli import decode_bifunctor, encode_bifunctor, parse_manifest
from orbifunctor.verify import instance_s3_hexagon, instance_z2_reflection
from samplers import coequalizer_oracle

Z1 = FpAbGroup.free(1)
Z = FpAbGroup.cyclic

G2 = FinGroup.cyclic(2)
OR2 = orbit_category(G2, SubgroupFamily.all(G2))
FREE_LAB = (0,)
FULL_LAB = (0, 1)
POINT = standard_category("chain", 0)


def two_term(matrix_rows, n1, n0):
    g1, g0 = FpAbGroup.free(n1), FpAbGroup.free(n0)
    d = AbHom(g1, g0, IntMatrix.from_rows(matrix_rows, ncols=n1))
    return PlainChainComplex(0, 1, {0: g0, 1: g1}, {1: d})


def reflection_circle_complex():
    """Equivariant chains of the circle with a Z/2 reflection action.

    Degree 0: two fixed vertices (two generators at the fixed orbit).
    Degree 1: one free orbit of edges (one generator at the free orbit);
    the edge runs from vertex 0 to vertex 1.
    """
    c1 = free_module(OR2, [FREE_LAB], "contra")
    c0 = free_module(OR2, [FULL_LAB, FULL_LAB], "contra")
    d = free_map_from_images(c1, c0, [[-1, 1]])
    return CatChainComplex(OR2, "contra", 0, 1, {0: c0, 1: c1}, {1: d})


def test_docstrings():
    assert doctest.testmod(chainplex_mod).failed == 0


# ---------------------------------------------------------------------------
# Plain complexes
# ---------------------------------------------------------------------------


def test_homology_zero_differential():
    c = two_term([[0]], 1, 1)
    assert homology(c, 0) == Z1
    assert homology(c, 1) == Z1
    assert homology(c, 2).is_trivial()
    assert homology(c, -1).is_trivial()


def test_homology_multiplication_by_two():
    c = two_term([[2]], 1, 1)
    assert homology(c, 0) == Z(2)
    assert homology(c, 1).is_trivial()


def test_homology_circle_cells():
    # two vertices, two edges, both edges from vertex a to vertex b
    c = two_term([[-1, -1], [1, 1]], 2, 2)
    assert homology(c, 0) == Z1
    assert homology(c, 1) == Z1
    assert euler_characteristic(c) == 0


def test_invalid_differentials_rejected():
    g = Z1
    one = AbHom.identity(g)
    with pytest.raises(ValueError):
        PlainChainComplex(0, 2, {0: g, 1: g, 2: g}, {1: one, 2: one})
    with pytest.raises(ValueError):
        PlainChainComplex(0, 1, {0: Z(2), 1: g},
                          {1: AbHom.identity(Z(2))})
    with pytest.raises(ValueError):
        PlainChainComplex(1, 0, {}, {})


def test_euler_characteristic_matches_homology():
    for rows, n1, n0 in [([[2]], 1, 1), ([[0, 0]], 2, 1),
                         ([[-1, -1], [1, 1]], 2, 2), ([[3, 0], [0, 1]], 2, 2)]:
        c = two_term(rows, n1, n0)
        hom_chi = sum((-1) ** p * homology(c, p).rank for p in (0, 1))
        assert euler_characteristic(c) == hom_chi


def test_euler_characteristic_is_an_int_in_negative_degrees():
    g = FpAbGroup.free(1)
    c = PlainChainComplex(-2, 0, {-2: g, -1: FpAbGroup.free(2), 0: g}, {})
    chi = euler_characteristic(c)
    assert chi == 0 and type(chi) is int
    chi = euler_characteristic(complex_concentrated(g, -1))
    assert chi == -1 and type(chi) is int


def test_induced_identity_and_doubling():
    c = two_term([[0]], 1, 1)
    ident = ChainMap.identity(c)
    for p in (0, 1):
        assert induced_map_on_homology(ident, p) == \
            AbHom.identity(homology(c, p))
    double = ChainMap(c, c, {0: AbHom(Z1, Z1, IntMatrix.from_rows([[2]])),
                             1: AbHom(Z1, Z1, IntMatrix.from_rows([[2]]))})
    for p in (0, 1):
        assert induced_map_on_homology(double, p).matrix.rows == ((2,),)


def test_null_homotopic_map_vanishes_on_homology():
    # interval: vertices a, b and one edge u with du = b - a; the retraction
    # onto a differs from the identity by the homotopy h(b) = u
    c = two_term([[-1], [1]], 1, 2)
    retract = ChainMap(c, c, {
        0: AbHom(c.group(0), c.group(0), IntMatrix.from_rows([[1, 1], [0, 0]])),
        1: AbHom.zero(c.group(1), c.group(1))})
    f_h0 = induced_map_on_homology(retract, 0)
    assert f_h0 == AbHom.identity(homology(c, 0))
    diff = ChainMap.identity(c)
    l0 = diff.component(0).add(retract.component(0).negate())
    l1 = diff.component(1).add(retract.component(1).negate())
    null = ChainMap(c, c, {0: l0, 1: l1})
    assert induced_map_on_homology(null, 0).is_zero()
    assert induced_map_on_homology(null, 1).is_zero()


def test_chain_map_must_commute():
    c = two_term([[2]], 1, 1)
    with pytest.raises(ValueError):
        ChainMap(c, c, {0: AbHom(Z1, Z1, IntMatrix.from_rows([[1]])),
                        1: AbHom(Z1, Z1, IntMatrix.from_rows([[3]]))})


def periodic_plain(top, maps):
    """Z^n in degrees 0..top, d_p = maps[p % len(maps)]: one object serves
    every degree of its residue."""
    g = maps[0].source
    return PlainChainComplex(
        0, top, {p: g for p in range(top + 1)},
        {p: maps[p % len(maps)] for p in range(1, top + 1)})


def test_repeated_differentials_are_checked_once_and_still_refused():
    z2 = FpAbGroup.free(2)
    a = AbHom(z2, z2, IntMatrix.from_rows([[0, 1], [0, 0]]))
    b = AbHom(z2, z2, IntMatrix.from_rows([[1, 0], [0, 0]]))
    # a∘b = 0 but b∘a ≠ 0: the pair (d_1, d_2) passes, (d_2, d_3) fails
    with pytest.raises(ValueError, match="out of degree 3"):
        periodic_plain(4, [b, a])
    one = AbHom.identity(Z1)
    with pytest.raises(ValueError, match="out of degree 2"):
        periodic_plain(5, [one])
    two = AbHom(Z1, Z1, IntMatrix.from_rows([[2]]))
    c = periodic_plain(6, [two, AbHom.zero(Z1, Z1)])
    assert homology_data(c, 1) is homology_data(c, 3) is homology_data(c, 5)
    assert homology_data(c, 2) is homology_data(c, 4)
    assert homology_data(c, 0) is not homology_data(c, 2)
    assert [homology(c, p) for p in range(6)] == \
        [Z1, Z(2), FpAbGroup.zero(), Z(2), FpAbGroup.zero(), Z(2)]


def test_chain_map_checks_each_square_once_and_still_refuses():
    two = AbHom(Z1, Z1, IntMatrix.from_rows([[2]]))
    c = periodic_plain(6, [two, AbHom.zero(Z1, Z1)])
    one = AbHom.identity(Z1)
    ChainMap(c, c, {p: one for p in range(7)})
    # a component that breaks only the square at degree 4; the squares at
    # degrees 2 and 6 are the same four maps as each other, not as this one
    comps = {p: one for p in range(7)}
    comps[3] = two
    with pytest.raises(ValueError, match="at degree 4"):
        ChainMap(c, c, comps)
    # the degrees where both components are absent commute; one present
    # component is still checked against the zero map beside it
    ChainMap(c, c, {0: one})
    with pytest.raises(ValueError, match="at degree 2"):
        ChainMap(c, c, {2: one})


def test_homology_class_transport():
    c = two_term([[-1, -1], [1, 1]], 2, 2)
    hd = homology_data(c, 1)
    cycle = hd.inclusion.matrix * IntMatrix.from_columns([[1]])
    assert c.differential(1).apply(cycle.column(0)) == [0, 0]
    assert express_in_kernel(hd, cycle) == IntMatrix.from_columns([[1]])


# ---------------------------------------------------------------------------
# Complexes of category modules
# ---------------------------------------------------------------------------


def test_reflection_circle_evaluations():
    x = reflection_circle_complex()
    assert x.is_degreewise_free()
    at_free = x.evaluate_at(FREE_LAB)
    assert homology(at_free, 0) == Z1      # the circle itself
    assert homology(at_free, 1) == Z1
    at_full = x.evaluate_at(FULL_LAB)
    assert homology(at_full, 0) == FpAbGroup.free(2)   # two fixed points
    assert homology(at_full, 1).is_trivial()


def test_cat_complex_validation():
    c1 = free_module(OR2, [FREE_LAB], "contra")
    c0 = free_module(OR2, [FULL_LAB], "contra")
    broken = ModuleMap(c1, c0, {
        FREE_LAB: AbHom(c1.values[FREE_LAB], c0.values[FREE_LAB],
                        IntMatrix.from_rows([[1, 0]])),
        FULL_LAB: AbHom.zero(c1.values[FULL_LAB], c0.values[FULL_LAB])})
    with pytest.raises(ValueError):
        CatChainComplex(OR2, "contra", 0, 1, {0: c0, 1: c1}, {1: broken})
    # a natural map into the wrong module is refused on construction, not
    # only later by evaluate_at
    z, z2 = (constant_module(OR2, FpAbGroup.free(n), "co") for n in (1, 2))
    with pytest.raises(ValueError, match="wrong target"):
        CatChainComplex(OR2, "co", 0, 1, {0: z, 1: z},
                        {1: ModuleMap.zero(z, z2)})
    # a module with the same values but another action is another module:
    # the identity of Z with trivial C_2 action does not start at Z with the
    # sign action, where it would not be natural
    c2 = one_object_category(G2)
    triv = constant_module(c2, Z1, "contra")
    sign = CatModule(c2, "contra", triv.values, {
        g: AbHom.identity(Z1) if g == G2.identity
        else AbHom.identity(Z1).negate() for g in c2.morphisms})
    ident = ModuleMap.identity(triv)
    assert validate_module_map(ModuleMap(sign, triv, ident.components))
    with pytest.raises(ValueError, match="wrong source"):
        CatChainComplex(c2, "contra", 0, 1, {0: triv, 1: sign}, {1: ident})
    with pytest.raises(ValueError, match="wrong target"):
        CatChainComplex(c2, "contra", 0, 1, {0: sign, 1: triv}, {1: ident})


def test_cat_complex_dd_checked():
    const = constant_module(POINT, Z1, "contra")
    ident = ModuleMap.identity(const)
    with pytest.raises(ValueError):
        CatChainComplex(POINT, "contra", 0, 2,
                        {0: const, 1: const, 2: const}, {1: ident, 2: ident})


def test_concentrated_builders():
    c = cat_complex_concentrated(constant_module(OR2, Z(4), "co"), 3)
    assert c.lo == c.hi == 3
    assert c.module(2).values[FREE_LAB].is_trivial()
    p = complex_concentrated(Z(5), 2)
    assert homology(p, 2) == Z(5)


# ---------------------------------------------------------------------------
# Bifunctor complexes
# ---------------------------------------------------------------------------


def coefficient_tower():
    """Covariant two-term complex over Or(Z/2) with a nonzero differential."""
    w1 = free_module(OR2, [FULL_LAB], "co")
    w0 = free_module(OR2, [FREE_LAB], "co")
    d = free_map_from_images(w1, w0, [[1]])
    return CatChainComplex(OR2, "co", 0, 1, {0: w0, 1: w1}, {1: d})


def test_constant_in_index_bifunctor_valid():
    icat = standard_category("chain", 1)
    e = BiFunctorComplex.constant_in_index(icat, coefficient_tower())
    assert validate_bifunctor(e) == []
    col = e.column_complex_at(FREE_LAB)
    assert col.variance == "contra" and col.base == icat
    row = e.row_complex_at(0)
    assert row.variance == "co" and row.base == OR2
    for j in OR2.objects:
        for q in (0, 1):
            assert e.complex(0, j).group(q) == \
                coefficient_tower().module(q).values[j]


def test_validate_bifunctor_catches_twist():
    icat = standard_category("chain", 1)
    e = BiFunctorComplex.constant_in_index(icat, coefficient_tower())
    step = next(f for f in icat.morphisms if not icat.is_identity(f))
    twisted = dict(e.index_action)
    old = twisted[(step, FREE_LAB)]
    twisted[(step, FREE_LAB)] = ChainMap(
        old.source, old.target,
        {p: old.component(p).negate() for p in old.source.degrees()},
        check=False)
    bad = BiFunctorComplex(e.index_base, e.coeff_base, e.complexes,
                           twisted, e.coeff_action)
    assert validate_bifunctor(bad) != []


def test_bifunctor_window_mismatch_rejected():
    icat = standard_category("chain", 0)
    tower = coefficient_tower()
    complexes = {(0, j): tower.evaluate_at(j) for j in OR2.objects}
    complexes[(0, FREE_LAB)] = complex_concentrated(Z1, 0)
    with pytest.raises(ValueError):
        BiFunctorComplex(icat, OR2, complexes, {}, {})


def test_bifunctor_missing_action_rejected():
    # a missing action is refused on construction, not met later as a
    # KeyError inside validate_bifunctor
    e = BiFunctorComplex.constant_in_index(standard_category("chain", 1),
                                           coefficient_tower())
    index_action = dict(e.index_action)
    del index_action[next(iter(index_action))]
    with pytest.raises(ValueError, match="no index action"):
        BiFunctorComplex(e.index_base, e.coeff_base, e.complexes,
                         index_action, e.coeff_action)
    coeff_action = dict(e.coeff_action)
    del coeff_action[next(iter(coeff_action))]
    with pytest.raises(ValueError, match="no coefficient action"):
        BiFunctorComplex(e.index_base, e.coeff_base, e.complexes,
                         e.index_action, coeff_action)


# ---------------------------------------------------------------------------
# Total complexes
# ---------------------------------------------------------------------------


def test_tensor_total_with_degree_zero_coefficients():
    x = reflection_circle_complex()
    e0 = cat_complex_concentrated(constant_module(OR2, Z1, "co"), 0)
    total = tensor_complex_over_cat(x, e0)
    for p in (0, 1):
        assert total.group(p) == \
            tensor_over_cat(x.module(p), e0.module(0))
    # quotient circle is an arc: connected and contractible
    assert homology(total, 0) == Z1
    assert homology(total, 1).is_trivial()
    assert euler_characteristic(total) == \
        sum((-1) ** p * homology(total, p).rank for p in (0, 1))


def test_tensor_total_point_category_is_plain_tensor():
    a = Z(4)
    c = cat_complex_concentrated(constant_module(POINT, a, "contra"), 0)
    e_plain = two_term([[2]], 1, 1)
    e = CatChainComplex(POINT, "co", 0, 1,
                        {p: constant_module(POINT, Z1, "co") for p in (0, 1)},
                        {1: ModuleMap(constant_module(POINT, Z1, "co"),
                                      constant_module(POINT, Z1, "co"),
                                      {0: e_plain.differential(1)})})
    total = tensor_complex_over_cat(c, e)
    for q in (0, 1):
        assert total.group(q) == tensor_group(a, e_plain.group(q))
    # x2 on Z/4 has kernel and cokernel Z/2
    assert homology(total, 0) == Z(2)
    assert homology(total, 1) == Z(2)


def test_tensor_total_mixed_degrees_signs():
    # two two-term complexes; the constructor verifies d∘d = 0, which holds
    # with the sign on either factor (the sign itself is pinned elementwise
    # below)
    x = reflection_circle_complex()
    total = TotalTensorComplex(x, coefficient_tower())
    assert total.complex.lo == 0 and total.complex.hi == 2
    assert [k for k in total.keys[1]] == [(0, 1), (1, 0)]
    assert euler_characteristic(total.complex) == sum(
        (-1) ** p * homology(total.complex, p).rank for p in range(0, 3))


def test_tensor_total_induced_doubling():
    x = reflection_circle_complex()
    e0 = cat_complex_concentrated(constant_module(OR2, Z1, "co"), 0)
    total = TotalTensorComplex(x, e0)
    doubling = {p: ModuleMap.identity(x.module(p)).add(
        ModuleMap.identity(x.module(p))) for p in (0, 1)}
    f = tensor_total_induced(total, total, left_maps=doubling)
    for p in (0, 1):
        n = total.complex.group(p).ngens
        assert f.component(p) == AbHom(
            total.complex.group(p), total.complex.group(p),
            IntMatrix.identity(n).scale(2))


def test_hom_total_yoneda_degreewise():
    x = reflection_circle_complex()
    for c in OR2.objects:
        d0 = free_module(OR2, [c], "contra")
        dcat = cat_complex_concentrated(d0, 0)
        total = hom_complex_over_cat(dcat, x)
        for n in (0, 1):
            assert total.group(n) == x.module(n).values[c]
        assert homology(total, 0) == homology(x.evaluate_at(c), 0)
        assert homology(total, 1) == homology(x.evaluate_at(c), 1)


def test_hom_total_zero_target():
    d = cat_complex_concentrated(free_module(OR2, [FREE_LAB], "contra"), 0)
    zero = cat_complex_concentrated(zero_module(OR2, "contra"), 0)
    total = hom_complex_over_cat(d, zero)
    for n in total.degrees():
        assert total.group(n).is_trivial()


def test_hom_total_requires_markers():
    unmarked = cat_complex_concentrated(
        constant_module(OR2, Z1, "contra"), 0)
    x = reflection_circle_complex()
    with pytest.raises(ValueError):
        hom_complex_over_cat(unmarked, x)


def test_hom_total_identity_class_survives():
    x = reflection_circle_complex()
    total = TotalHomComplex(x, x)
    vecs = [[0] * part.ngens for part in total.sums[0].parts]
    for pdx, (p, q) in enumerate(total.keys[0]):
        vecs[pdx] = total.parts[(p, q)].coords_of(
            ModuleMap.identity(x.module(p)))
    cycle = total.sums[0].assemble(vecs)
    assert all(v == 0 for v in total.complex.differential(0).apply(cycle))
    hd = homology_data(total.complex, 0)
    assert any(v for v in express_in_kernel(
        hd, IntMatrix.from_columns([cycle])).column(0))


def test_hom_total_sends_isos_to_isos():
    x = reflection_circle_complex()
    total = TotalHomComplex(x, x)
    flip = {q: ModuleMap.identity(x.module(q)).negate() for q in (0, 1)}
    f = hom_total_induced(total, total, flip)
    for n in f.source.degrees():
        assert is_isomorphism(f.component(n))


def assert_total_layout(total, degree):
    # keys[n]: the degree pairs of total degree n, ascending; sums[n]: the
    # groups of their parts, in that order
    pairs = sorted((p, q) for p in total.left.degrees()
                   for q in total.right.degrees())
    assert total.keys == {n: tuple(k for k in pairs if degree(*k) == n)
                          for n in {degree(*k) for k in pairs}}
    for n, keys in total.keys.items():
        assert total.sums[n].parts == tuple(total.parts[k].group for k in keys)


def free_orbit_tower():
    """Covariant two-term complex over Or(Z/2) on the free orbit, d = 1 − t:
    unlike `coefficient_tower` it meets the free orbit edges of the
    reflection circle in degree (1, 1), where the Koszul sign acts."""
    w1, w0 = (free_module(OR2, [FREE_LAB], "co") for _ in range(2))
    d = free_map_from_images(w1, w0, [[1, -1]])
    return CatChainComplex(OR2, "co", 0, 1, {0: w0, 1: w1}, {1: d})


def test_tensor_total_sign_is_koszul_elementwise():
    # d(x ⊗ y) = dx ⊗ y + (-1)^p x ⊗ dy on every elementary tensor; d∘d = 0
    # alone would also hold with the sign on the other factor
    x = reflection_circle_complex()
    signed = 0
    for w in (coefficient_tower(), free_orbit_tower()):
        total = TotalTensorComplex(x, w)
        assert_total_layout(total, lambda p, q: p + q)
        cx = total.complex
        for n in range(cx.lo + 1, cx.hi + 1):
            below = total.sums[n - 1]

            def term(key, c, a, b):
                at = below.inject(total.keys[n - 1].index(key))
                return at.apply(total.parts[key].class_of_pure(c, a, b))
            for idx, (p, q) in enumerate(total.keys[n]):
                for c in OR2.objects:
                    xs = x.module(p).values[c].ngens
                    ys = w.module(q).values[c].ngens
                    for alpha in range(xs):
                        for beta in range(ys):
                            a, b = unit(alpha, xs), unit(beta, ys)
                            got = cx.differential(n).apply(
                                total.sums[n].inject(idx).apply(
                                    total.parts[(p, q)].class_of_pure(c, a, b)))
                            want = [0] * below.group.ngens
                            if (p - 1, q) in total.keys[n - 1]:
                                da = x.diff(p).components[c].apply(a)
                                want = [u + v for u, v in zip(
                                    want, term((p - 1, q), c, da, b))]
                            if (p, q - 1) in total.keys[n - 1]:
                                db = w.diff(q).components[c].apply(b)
                                moved = term((p, q - 1), c, a, db)
                                want = [u + (-1) ** p * v
                                        for u, v in zip(want, moved)]
                                signed += p % 2 and any(moved)
                            assert below.group.reduce(got) == \
                                below.group.reduce(want)
    assert signed


def test_hom_total_sign_elementwise():
    # (dφ)_p = d_E ∘ φ_p − (−1)^n φ_{p−1} ∘ d_D for φ of degree n, read
    # summand by summand through to_module_map and coords_of
    x = reflection_circle_complex()
    total = TotalHomComplex(x, x)
    assert_total_layout(total, lambda p, q: q - p)
    cx = total.complex
    both = 0
    for n in range(cx.lo + 1, cx.hi + 1):
        for beta in range(cx.group(n).ngens):
            h = unit(beta, cx.group(n).ngens)
            phi = {p: total.parts[(p, q)].to_module_map(
                total.sums[n].project(idx).apply(h))
                for idx, (p, q) in enumerate(total.keys[n])}
            dh = cx.differential(n).apply(h)
            for idx, (p, q) in enumerate(total.keys[n - 1]):
                part = total.parts[(p, q)]
                want = ModuleMap.zero(x.module(p), x.module(q))
                if p in phi and (p, q + 1) in total.keys[n]:
                    want = want.add(x.diff(q + 1).compose(phi[p]))
                if p - 1 in phi:
                    second = phi[p - 1].compose(x.diff(p))
                    want = want.add(second if n % 2 else second.negate())
                    both += not second.is_zero()
                got = total.sums[n - 1].project(idx).apply(dh)
                assert part.group.reduce(part.coords_of(want)) == \
                    part.group.reduce(got)
    assert both


# ---------------------------------------------------------------------------
# The comparison map
# ---------------------------------------------------------------------------


def degree_zero_bifunctor(icat, module):
    w = cat_complex_concentrated(module, 0)
    return BiFunctorComplex.constant_in_index(icat, w)


def test_comparison_trivial_index_is_iso():
    x = reflection_circle_complex()
    d = cat_complex_concentrated(free_module(POINT, [0], "contra"), 0)
    e = degree_zero_bifunctor(POINT, constant_module(OR2, Z1, "co"))
    t = comparison_map_t(x, d, e)
    for p in t.source.degrees():
        assert is_isomorphism(t.component(p))
    assert homology(t.source, 0) == Z1
    assert homology(t.source, 1).is_trivial()
    for p in (0, 1):
        assert is_isomorphism(induced_map_on_homology(t, p))


@pytest.mark.parametrize("gens", [[0], [1], [0, 1], [1, 1, 0]])
def test_comparison_single_degree_free_is_degreewise_iso(gens):
    icat = standard_category("chain", 1)
    x = reflection_circle_complex()
    d = cat_complex_concentrated(free_module(icat, gens, "contra"), 0)
    e = BiFunctorComplex.constant_in_index(icat, coefficient_tower())
    t = comparison_map_t(x, d, e)
    for p in t.source.degrees():
        assert is_isomorphism(t.component(p))


def test_comparison_requires_markers_and_bases():
    x = reflection_circle_complex()
    unmarked = cat_complex_concentrated(
        constant_module(POINT, Z1, "contra"), 0)
    e = degree_zero_bifunctor(POINT, constant_module(OR2, Z1, "co"))
    with pytest.raises(ValueError):
        comparison_map_t(x, unmarked, e)
    d = cat_complex_concentrated(free_module(POINT, [0], "contra"), 0)
    wrong_side = cat_complex_concentrated(
        free_module(POINT, [0], "contra"), 0)
    with pytest.raises(ValueError):
        comparison_map_t(wrong_side, d, e)


# ---------------------------------------------------------------------------
# Glued slices and glued totals
# ---------------------------------------------------------------------------


def multi_degree_index_complex(icat):
    top = free_module(icat, [0], "contra")
    bot = free_module(icat, [1], "contra")
    step = free_map_from_images(top, bot, [[1]])
    return CatChainComplex(icat, "contra", 0, 1, {0: bot, 1: top}, {1: step})


DESK = {"z2-w3": instance_z2_reflection, "s3-w3": instance_s3_hexagon}


def comparison_inputs(which):
    """(C, D, E) of a comparison: the constant-in-index tower over the chain
    category, the shipped manifest's instance, or a desk instance at window
    3."""
    if which == "constant_in_index":
        icat = standard_category("chain", 1)
        return (reflection_circle_complex(), multi_degree_index_complex(icat),
                BiFunctorComplex.constant_in_index(icat, coefficient_tower()))
    if which in DESK:
        inst = DESK[which](3)
    else:
        ref = importlib.resources.files("orbifunctor") / "manifests" \
            / "z2_reflection_sphere.json"
        inst = parse_manifest(ref.read_text(encoding="utf-8")).get("instance")
    return inst.chains, inst.free_complex, inst.coefficients


def assert_same_complex(glued, plain):
    assert (glued.lo, glued.hi) == (plain.lo, plain.hi)
    for q in plain.degrees():
        assert glued.group(q) == plain.group(q)
        assert glued.differential(q) == plain.differential(q)


BIFUNCTORS = ["constant_in_index", "shipped"]


@pytest.mark.parametrize("which", BIFUNCTORS)
def test_slices_reproduce_the_pair_complexes_and_actions(which):
    _, _, e = comparison_inputs(which)
    icat, jcat = e.index_base, e.coeff_base
    for j in jcat.objects:
        col = e.column_complex_at(j)
        assert (col.base, col.variance) == (icat, "contra")
        for i in icat.objects:
            assert_same_complex(col.evaluate_at(i), e.complex(i, j))
        for phi in icat.morphisms:
            for q in col.degrees():
                assert col.module(q).action(phi) == \
                    e.index_action[(phi, j)].component(q)
    for i in icat.objects:
        row = e.row_complex_at(i)
        assert (row.base, row.variance) == (jcat, "co")
        for j in jcat.objects:
            assert_same_complex(row.evaluate_at(j), e.complex(i, j))
        for psi in jcat.morphisms:
            for q in row.degrees():
                assert row.module(q).action(psi) == \
                    e.coeff_action[(i, psi)].component(q)


@pytest.mark.parametrize("which", BIFUNCTORS)
def test_glued_totals_reproduce_the_per_object_totals(which):
    data = ComparisonData(*comparison_inputs(which))
    e = data.e
    icat, jcat = e.index_base, e.coeff_base
    for j in jcat.objects:
        assert_same_complex(data.hom_de.evaluate_at(j),
                            data.hom_totals[j].complex)
    for i in icat.objects:
        assert_same_complex(data.ce.evaluate_at(i),
                            data.row_totals[i].complex)
    # a morphism acts on the glued totals as the map of totals it induces:
    # ψ: j1 -> j2 postcomposes hom_I(D, E(-, j1)) with E(-, ψ), and φ: a -> b
    # sends C ⊗_J E(b, -) to C ⊗_J E(a, -)
    for psi in jcat.morphisms:
        j1, j2 = jcat.dom[psi], jcat.cod[psi]
        t1, t2 = data.hom_totals[j1], data.hom_totals[j2]
        moves = {q: ModuleMap(t1.right.module(q), t2.right.module(q),
                              {i: e.coeff_action[(i, psi)].component(q)
                               for i in icat.objects})
                 for q in t1.right.degrees()}
        induced = hom_total_induced(t1, t2, moves)
        for n in data.hom_de.degrees():
            assert data.hom_de.module(n).action(psi) == induced.component(n)
    for phi in icat.morphisms:
        a, b = icat.dom[phi], icat.cod[phi]
        tb, ta = data.row_totals[b], data.row_totals[a]
        moves = {q: ModuleMap(tb.right.module(q), ta.right.module(q),
                              {j: e.index_action[(phi, j)].component(q)
                               for j in jcat.objects})
                 for q in tb.right.degrees()}
        induced = tensor_total_induced(tb, ta, right_maps=moves)
        for r in data.ce.degrees():
            assert data.ce.module(r).action(phi) == induced.component(r)


@pytest.mark.parametrize("which", BIFUNCTORS)
def test_comparison_multi_degree_instance(which):
    t = ComparisonData(*comparison_inputs(which)).chain_map
    for p in t.source.degrees():
        assert is_isomorphism(t.component(p))
        assert is_isomorphism(induced_map_on_homology(t, p))


def comparison_rank_count(c, d, e):
    """Rank of each degree of either comparison total, counted from the free
    generators alone: C_a is free on generators at s_(a,l) and D_p on
    generators at c_(p,k), so both totals are ⊕ E(c_(p,k), s_(a,l))_q over
    a + q − p = m, with E read from its plain complexes only."""
    ranks = {}
    for a in c.degrees():
        for s in c.module(a).free_gens:
            for p in d.degrees():
                for ck in d.module(p).free_gens:
                    pair = e.complex(ck, s)
                    for q in pair.degrees():
                        m = a + q - p
                        ranks[m] = ranks.get(m, 0) + pair.group(q).rank
    return ranks


@pytest.mark.parametrize("which", ["z2-w3", "s3-w3", "shipped"])
def test_comparison_totals_have_the_counted_ranks(which):
    c, d, e = comparison_inputs(which)
    want = comparison_rank_count(c, d, e)
    data = ComparisonData(c, d, e)
    for total in (data.source_total, data.target_total):
        cx = total.complex
        assert {m for m, r in want.items() if r} <= set(cx.degrees())
        assert {m: cx.group(m).rank for m in cx.degrees()} == \
            {m: want.get(m, 0) for m in cx.degrees()}


@pytest.mark.parametrize("which", BIFUNCTORS + sorted(DESK))
def test_comparison_totals_share_one_euler_characteristic(which):
    # χ of a total from its ranks equals Σ_m (−1)^m rank H_m from its
    # homology, and the two totals agree on it
    data = ComparisonData(*comparison_inputs(which))
    chis = []
    for total in (data.source_total, data.target_total):
        cx = total.complex
        chis.append(euler_characteristic(cx))
        assert chis[-1] == sum((-1) ** (m % 2) * homology(cx, m).rank
                               for m in cx.degrees())
    assert chis[0] == chis[1]


@pytest.mark.parametrize("which", sorted(DESK))
def test_comparison_map_equals_that_of_the_explicit_round_trip(which):
    # constant-in-index coefficients share one row total, on which the index
    # leg acts by implicit identities, and the constant Z shares one hom
    # total, on which the coefficient leg does; written out as an explicit
    # bifunctor, which shares nothing, they must give the same map in every
    # degree
    inst = DESK[which](3)
    ctx = {"group": inst.group, "family": inst.family,
           "category": inst.index_cat}
    explicit = decode_bifunctor(encode_bifunctor(inst.coefficients),
                                "bifunctor", ctx)
    chains = inst.chains
    shared = ComparisonData(chains, inst.free_complex, inst.coefficients)
    apart = ComparisonData(chains, inst.free_complex, explicit)
    assert len({id(t) for t in shared.row_totals.values()}) == 1
    assert len({id(t) for t in apart.row_totals.values()}) == \
        len(inst.index_cat.objects)
    assert len({id(t) for t in shared.hom_totals.values()}) == 1
    assert len({id(t) for t in apart.hom_totals.values()}) == \
        len(inst.coefficients.coeff_base.objects)
    for mine, theirs in ((shared.source_total, apart.source_total),
                         (shared.target_total, apart.target_total)):
        assert_same_complex(mine.complex, theirs.complex)
    for m in shared.source_total.complex.degrees():
        assert shared.chain_map.component(m).matrix == \
            apart.chain_map.component(m).matrix


def test_comparison_refuses_legs_that_do_not_commute():
    c, d, e = comparison_inputs("constant_in_index")
    step = next(f for f in e.index_base.morphisms
                if not e.index_base.is_identity(f))
    twisted = dict(e.index_action)
    old = twisted[(step, FREE_LAB)]
    twisted[(step, FREE_LAB)] = ChainMap(
        old.source, old.target,
        {p: old.component(p).negate() for p in old.source.degrees()},
        check=False)
    bad = BiFunctorComplex(e.index_base, e.coeff_base, e.complexes,
                           twisted, e.coeff_action)
    with pytest.raises(ValueError, match="not natural"):
        ComparisonData(c, d, bad)


def doubled_in_degree_zero(m):
    comps = {p: m.component(p) for p in m.source.degrees()}
    comps[0] = comps[0].add(comps[0])
    return ChainMap(m.source, m.target, comps, check=False)


@pytest.mark.parametrize("leg", ["coeff_identity", "every_index_action"])
def test_comparison_refuses_actions_that_do_not_commute_with_d(leg):
    # the actions are built unchecked, so only the comparison's own chain
    # maps of totals can notice that the glued differentials are not natural
    c, d, e = comparison_inputs("constant_in_index")
    index_action, coeff_action = dict(e.index_action), dict(e.coeff_action)
    if leg == "coeff_identity":
        ident = e.coeff_base.ids[FULL_LAB]
        for i in e.index_base.objects:
            coeff_action[(i, ident)] = doubled_in_degree_zero(
                coeff_action[(i, ident)])
    else:
        index_action = {key: doubled_in_degree_zero(m)
                        for key, m in index_action.items()}
    bad = BiFunctorComplex(e.index_base, e.coeff_base, e.complexes,
                           index_action, coeff_action)
    with pytest.raises(ValueError):
        ComparisonData(c, d, bad)


def unit(i, size):
    return [int(r == i) for r in range(size)]


class PureClasses:
    """Classes of elementary tensors x ⊗ y at j in a tensor with a
    free-marked left factor, read off the coequalizer of its stripped copy:
    the preimage, under the oracle isomorphism, of the class there."""

    def __init__(self):
        self.oracles = {}

    def __call__(self, ct, j, x, y):
        if id(ct) not in self.oracles:
            slow, iso = coequalizer_oracle(ct)
            assert is_isomorphism(iso)
            self.oracles[id(ct)] = ct, slow, iso
        _, slow, iso = self.oracles[id(ct)]
        pre, residue = solve_image_membership(iso, slow.class_of_pure(j, x, y))
        assert residue is None
        return pre


def image_by_definition(data, m, a, n, j, x, h, pure):
    """The image of x ⊗ h, x in C_a(j) and h in the degree-n hom total at j:
    the transformation whose value at generator k (at c_k) of D_p is
    x ⊗ (the p-th summand of h, as a module map, at that generator)."""
    ht, tt = data.hom_totals[j], data.target_total
    out = [0] * tt.complex.group(m).ngens
    for pdx, (p, q) in enumerate(ht.keys[n]):
        phi = ht.parts[(p, q)].to_module_map(ht.sums[n].project(pdx).apply(h))
        dmod, key = data.d.module(p), (a, q)
        values = []
        for k, c in enumerate(dmod.free_gens):
            y = phi.components[c].matrix.column(
                dmod.free_index[c][(k, dmod.cat.ids[c])])
            rt = data.row_totals[c]
            inject = rt.sums[p + m].inject(rt.keys[p + m].index(key))
            values.append(inject.apply(pure(rt.parts[key], j, x, y)))
        vec = tt.parts[(p, p + m)].evals.assemble(values)
        emb = tt.sums[m].inject(tt.keys[m].index((p, p + m))).apply(vec)
        out = [u + w for u, w in zip(out, emb)]
    return tt.complex.group(m).reduce(out)


@pytest.mark.parametrize("which", BIFUNCTORS)
def test_comparison_matrix_is_x_tensor_phi_at_each_generator(which):
    # the chains C are free, so every tensor here takes the free path; the
    # classes of x ⊗ h and x ⊗ φ(y) come from the coequalizer oracle
    data = ComparisonData(*comparison_inputs(which))
    src = data.source_total
    pure = PureClasses()
    moved = 0
    for m in src.complex.degrees():
        t = data.chain_map.component(m)
        for kdx, (a, n) in enumerate(src.keys[m]):
            ct = src.parts[(a, n)]
            assert not ct.pres.relations
            for j in data.e.coeff_base.objects:
                xs = data.c.module(a).values[j].ngens
                hs = data.hom_totals[j].complex.group(n).ngens
                for alpha in range(xs):
                    for beta in range(hs):
                        x, h = unit(alpha, xs), unit(beta, hs)
                        cls = pure(ct, j, x, h)
                        assert cls == ct.class_of_pure(j, x, h)
                        want = image_by_definition(data, m, a, n, j, x, h,
                                                   pure)
                        assert t.apply(src.sums[m].inject(kdx).apply(cls)) \
                            == want
                        moved += any(want)
    assert moved
