"""Functor-module layer: free modules, coend tensor, equalizer hom, Kan
extensions, resolutions, Tor, and the product interchange map.

Fixed small instances are computed by hand and frozen; structural laws
(Yoneda, co-Yoneda, both adjunctions, balance of Tor on a point) are checked
on enumerated families.
"""

import math
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbifunctor.catmod import (
    CatHomGroup,
    CatModule,
    CatTensor,
    ModuleMap,
    StandardPresentation,
    constant_module,
    finite_product_interchange,
    free_map_from_images,
    free_module,
    generating_cover,
    hom_into_module,
    hom_over_cat,
    induce_module,
    module_cokernel,
    module_image,
    module_kernel,
    product_module,
    restrict_module,
    tensor_over_cat,
    validate_module,
    validate_module_map,
    zero_module,
)
from orbifunctor.chainplex import (
    cat_complex_concentrated,
    free_resolution,
    homology,
    tensor_complex_over_cat,
    tor,
)
from orbifunctor.exact_abelian import (
    AbHom,
    FpAbGroup,
    HomBasis,
    IntMatrix,
    cokernel_presentation,
    hom_cokernel,
    hom_group,
    is_isomorphism,
    tensor_group,
)
from orbifunctor.fincat import (
    CatFunctor,
    FinGroup,
    SubgroupFamily,
    one_object_category,
    orbit_category,
    standard_category,
    sub_category_and_projection,
)
from samplers import EqualizerHom, coequalizer_oracle, stripped

Z = FpAbGroup.cyclic

G2 = FinGroup.cyclic(2)
OR2 = orbit_category(G2, SubgroupFamily.all(G2))
FREE_LAB = (0,)        # the free orbit, stabilizer 1
FULL_LAB = (0, 1)      # the fixed point, stabilizer G
POINT = standard_category("chain", 0)   # one object, identity only

_S3 = FinGroup.symmetric(3)
SUBS3 = sub_category_and_projection(_S3, SubgroupFamily.all(_S3)).sub


def unit(n, j):
    return [1 if i == j else 0 for i in range(n)]


def swap_endo(cat, obj):
    """The unique non-identity endomorphism of an orbit-category object."""
    endos = [f for f in cat.endomorphisms(obj) if not cat.is_identity(f)]
    assert len(endos) == 1
    return endos[0]


# ---------------------------------------------------------------------------
# Modules and maps
# ---------------------------------------------------------------------------


def test_constant_module_valid():
    for variance in ("co", "contra"):
        assert validate_module(constant_module(OR2, Z(4), variance)) == []
    assert validate_module(zero_module(OR2)) == []


def test_validation_catches_broken_action():
    mod = constant_module(OR2, Z(4), "co")
    bad = dict(mod.actions)
    s = swap_endo(OR2, FREE_LAB)
    bad[s] = AbHom(Z(4), Z(4), AbHom.identity(Z(4)).matrix.scale(2))
    broken = CatModule(OR2, "co", mod.values, bad)
    assert validate_module(broken) != []


def test_bad_variance_rejected():
    with pytest.raises(ValueError):
        CatModule(OR2, "left", {}, {})


def test_free_module_values_over_orbit_z2():
    # one generator at the fixed orbit: a single morphism from each object
    m_full = free_module(OR2, [FULL_LAB], "contra")
    assert m_full.free_gens == (FULL_LAB,)
    assert m_full.values[FREE_LAB] == FpAbGroup.free(1)
    assert m_full.values[FULL_LAB] == FpAbGroup.free(1)
    # one generator at the free orbit: two self-maps, nothing from the fixed one
    m_free = free_module(OR2, [FREE_LAB], "contra")
    assert m_free.values[FREE_LAB] == FpAbGroup.free(2)
    assert m_free.values[FULL_LAB].is_trivial()
    # covariant flavor reverses the roles
    m_co = free_module(OR2, [FREE_LAB], "co")
    assert m_co.values[FREE_LAB] == FpAbGroup.free(2)
    assert m_co.values[FULL_LAB] == FpAbGroup.free(1)


def test_free_module_swap_action_is_permutation():
    m_free = free_module(OR2, [FREE_LAB], "contra")
    s = swap_endo(OR2, FREE_LAB)
    mat = m_free.actions[s].matrix
    assert sorted(mat.rows) == [(0, 1), (1, 0)]
    assert mat.rows != ((1, 0), (0, 1))


@pytest.mark.parametrize("variance", ["co", "contra"])
def test_free_modules_functorial(variance):
    for cat, gens in [(OR2, [FREE_LAB, FULL_LAB]),
                      (standard_category("chain", 2), [0, 2]),
                      (SUBS3, [SUBS3.objects[0], SUBS3.objects[-1]])]:
        mod = free_module(cat, gens, variance)
        assert validate_module(mod) == []
        assert mod.free_gens == tuple(gens)


def test_free_module_unknown_object():
    with pytest.raises(ValueError):
        free_module(OR2, [(7,)], "contra")


def test_free_map_from_images_natural():
    m_free = free_module(OR2, [FREE_LAB], "contra")
    const = constant_module(OR2, FpAbGroup.free(1), "contra")
    mm = free_map_from_images(m_free, const, [[1]])
    assert validate_module_map(mm) == []
    assert mm.components[FREE_LAB].matrix.rows == ((1, 1),)


def test_validate_module_map_catches_non_natural():
    m_free = free_module(OR2, [FREE_LAB], "contra")
    const = constant_module(OR2, FpAbGroup.free(1), "contra")
    mm = free_map_from_images(m_free, const, [[1]])
    broken = dict(mm.components)
    # hits one basis vector only, so the swap self-map breaks naturality
    broken[FREE_LAB] = AbHom(m_free.values[FREE_LAB], FpAbGroup.free(1),
                             IntMatrix.from_rows([[1, 0]]))
    assert validate_module_map(ModuleMap(m_free, const, broken)) != []


def test_yoneda_map_into_a_non_functor_is_still_checked():
    # the swap of G/1 acting by 2 on Z squares to 4, so this target is not
    # a functor: only into a free-marked target is a map out of a free
    # module known natural on sight
    const = constant_module(OR2, FpAbGroup.free(1), "contra")
    actions = dict(const.actions)
    actions[swap_endo(OR2, FREE_LAB)] = AbHom(
        FpAbGroup.free(1), FpAbGroup.free(1), IntMatrix.from_rows([[2]]))
    target = CatModule(OR2, "contra", const.values, actions)
    m_free = free_module(OR2, [FREE_LAB], "contra")
    mm = free_map_from_images(m_free, target, [[1]])
    assert validate_module_map(mm) != []


def test_maps_from_generator_images_are_not_rebuilt(monkeypatch):
    # a map built from its generator images is the transformation they
    # determine, so the free hom path never recomputes its defect; a map
    # built any other way is still compared
    import orbifunctor.catmod as catmod_mod
    free = free_module(OR_S3, [OR_S3.objects[0], OR_S3.objects[-1]], "contra")
    target = constant_module(OR_S3, FpAbGroup.from_invariants(1, (2,)),
                             "contra")
    v = free_map_from_images(free, free, [
        unit(free.values[c].ngens, j % free.values[c].ngens)
        for j, c in enumerate(free.free_gens)])
    hg = CatHomGroup(free, target)
    real = catmod_mod._yoneda_defect

    def forbidden(mm):
        raise AssertionError("a map built from its images was rebuilt")
    monkeypatch.setattr(catmod_mod, "_yoneda_defect", forbidden)
    maps = [hg.to_module_map(e) for e in units(hg.group.ngens)]
    assert [hg.coords_of(mm) for mm in maps] == units(hg.group.ngens)
    composed = hg.precompose_map(hg, v)
    monkeypatch.setattr(catmod_mod, "_yoneda_defect", real)
    copy = ModuleMap(free, free, v.components)
    assert hg.precompose_map(hg, copy) == composed
    assert "defect" in copy._memo and "defect" in v._memo


def test_images_moved_by_an_identity_action_are_still_compared():
    # the identity of G/1 acting by 2 on Z (no functor) moves the image, so
    # the built map is not the transformation of its generator values
    const = constant_module(OR2, Z1, "contra")
    actions = dict(const.actions)
    actions[OR2.ids[FREE_LAB]] = AbHom(Z1, Z1, IntMatrix.from_rows([[2]]))
    target = CatModule(OR2, "contra", const.values, actions)
    mm = free_map_from_images(free_module(OR2, [FREE_LAB], "contra"), target,
                              [[1]])
    assert "defect" not in mm._memo
    assert mm.defect() != []


def test_module_map_algebra():
    mod = constant_module(OR2, Z(6), "co")
    ident = ModuleMap.identity(mod)
    zero = ModuleMap.zero(mod, mod)
    assert ident.add(ident.negate()) == zero
    assert ident.compose(ident) == ident
    assert zero.is_zero() and not ident.is_zero()


# ---------------------------------------------------------------------------
# Kernels, cokernels, images with induced actions
# ---------------------------------------------------------------------------


def sign_kernel_setup():
    """Collapse the rank-2 free-orbit module onto the fixed-orbit one."""
    p_free = free_module(OR2, [FREE_LAB], "contra")
    p_full = free_module(OR2, [FULL_LAB], "contra")
    mm = free_map_from_images(p_free, p_full, [[1]])
    return p_free, p_full, mm


def test_module_kernel_is_sign_representation():
    _, _, mm = sign_kernel_setup()
    kernel, inc = module_kernel(mm)
    assert validate_module(kernel) == []
    assert kernel.values[FREE_LAB] == FpAbGroup.free(1)
    assert kernel.values[FULL_LAB].is_trivial()
    s = swap_endo(OR2, FREE_LAB)
    assert kernel.actions[s].matrix.rows == ((-1,),)
    emb = inc.components[FREE_LAB].apply([1])
    assert emb in ([1, -1], [-1, 1])
    assert validate_module_map(inc) == []


def test_module_cokernel_concentrated_at_fixed_orbit():
    _, _, mm = sign_kernel_setup()
    coker, proj = module_cokernel(mm)
    assert validate_module(coker) == []
    assert coker.values[FREE_LAB].is_trivial()
    assert coker.values[FULL_LAB] == FpAbGroup.free(1)
    assert validate_module_map(proj) == []


def test_module_image_with_witnesses():
    _, _, mm = sign_kernel_setup()
    image, mono, epi = module_image(mm)
    assert validate_module(image) == []
    assert image.values[FREE_LAB] == FpAbGroup.free(1)
    assert image.values[FULL_LAB].is_trivial()
    assert validate_module_map(mono) == [] and validate_module_map(epi) == []
    assert mm.components[FREE_LAB] == \
        mono.components[FREE_LAB].compose(epi.components[FREE_LAB])


def test_doubling_cokernel_is_constant_mod_two():
    const = constant_module(OR2, FpAbGroup.free(1), "co")
    ident = ModuleMap.identity(const)
    coker, _ = module_cokernel(ident.add(ident))
    assert validate_module(coker) == []
    for c in OR2.objects:
        assert coker.values[c] == Z(2)
        assert coker.actions[OR2.ids[c]] == AbHom.identity(Z(2))


# ---------------------------------------------------------------------------
# Tensor over the category
# ---------------------------------------------------------------------------


def test_tensor_point_category_matches_plain_tensor():
    pairs = [(Z(4), Z(6)), (Z(2), Z(3)),
             (FpAbGroup.from_invariants(1, (2,)), Z(4))]
    for a, b in pairs:
        left = constant_module(POINT, a, "contra")
        right = constant_module(POINT, b, "co")
        assert tensor_over_cat(left, right) == tensor_group(a, b)


def test_tensor_variance_requirements():
    with pytest.raises(ValueError):
        CatTensor(constant_module(OR2, Z(4), "co"),
                  constant_module(OR2, Z(4), "co"))


def right_test_modules():
    return [free_module(OR2, [FREE_LAB], "co"),
            free_module(OR2, [FULL_LAB], "co"),
            constant_module(OR2, FpAbGroup.free(1), "co"),
            constant_module(OR2, Z(4), "co")]


def pure_glue(ct, c, x=None, y=None):
    """The map into ct.group from the value at c of the factor whose
    argument is None, through the elementary tensors with the other."""
    n = (ct.right if x is not None else ct.left).values[c].ngens
    cols = [ct.class_of_pure(c, x, unit(n, j)) if x is not None
            else ct.class_of_pure(c, unit(n, j), y) for j in range(n)]
    return AbHom((ct.right if x is not None else ct.left).values[c], ct.group,
                 IntMatrix.from_columns(cols, nrows=ct.group.ngens))


def assert_pure_classes_agree(fast, slow, iso):
    """iso(x ⊗ y in fast) is x ⊗ y in slow, for basis elements x, y at every
    object."""
    for c in fast.cat.objects:
        for x in units(fast.left.values[c].ngens):
            for y in units(fast.right.values[c].ngens):
                assert iso.apply(fast.class_of_pure(c, x, y)) == \
                    slow.class_of_pure(c, x, y)


def test_tensor_with_representable_evaluates():
    # tensoring with the free module at c recovers the value at c, and the
    # elementary tensors of the marked generator give the isomorphism; the
    # coequalizer of the stripped copy is the oracle of the free path
    for right in right_test_modules():
        for c in OR2.objects:
            left = free_module(OR2, [c], "contra")
            ct = CatTensor(left, right)
            slow, iso = coequalizer_oracle(ct)
            assert ct.group == slow.group == right.values[c]
            assert is_isomorphism(iso)
            idx = left.free_basis[c].index((0, OR2.ids[c]))
            x = unit(left.values[c].ngens, idx)
            assert is_isomorphism(pure_glue(slow, c, x=x))
            assert iso.compose(pure_glue(ct, c, x=x)) == pure_glue(slow, c, x=x)
            assert_pure_classes_agree(ct, slow, iso)


def test_tensor_against_representable_evaluates():
    for left in [free_module(OR2, [FREE_LAB], "contra"),
                 constant_module(OR2, Z(6), "contra")]:
        for c in OR2.objects:
            right = free_module(OR2, [c], "co")
            ct = CatTensor(left, right)
            slow, iso = coequalizer_oracle(ct)
            assert ct.group == slow.group == left.values[c]
            assert is_isomorphism(iso)
            idx = right.free_basis[c].index((0, OR2.ids[c]))
            y = unit(right.values[c].ngens, idx)
            assert is_isomorphism(pure_glue(slow, c, y=y))
            assert iso.compose(pure_glue(ct, c, y=y)) == pure_glue(slow, c, y=y)
            assert_pure_classes_agree(ct, slow, iso)


def test_tensor_of_constants_sees_components():
    # over a connected category the coend of trivial actions collapses to one
    # copy of the plain tensor
    for cat in (OR2, standard_category("chain", 2)):
        left = constant_module(cat, FpAbGroup.free(1), "contra")
        right = constant_module(cat, FpAbGroup.free(1), "co")
        assert tensor_over_cat(left, right) == FpAbGroup.free(1)


def test_tensor_induced_map_doubles():
    left = constant_module(OR2, FpAbGroup.free(1), "contra")
    right = constant_module(OR2, FpAbGroup.free(1), "co")
    ct = CatTensor(left, right)
    ident = ModuleMap.identity(left)
    induced = ct.induced(ct, ident.add(ident), None)
    assert induced.apply([1]) == [2]


def test_tensor_components_round_trip():
    right = constant_module(OR2, Z(4), "co")
    for left in (free_module(OR2, [FREE_LAB], "contra"),
                 stripped(free_module(OR2, [FREE_LAB], "contra")),
                 SIGN["contra"]):
        ct = CatTensor(left, right)
        slow, iso = coequalizer_oracle(ct)
        # the epi F0 -> M of the presentation: the identity of a free M, the
        # generating cover's otherwise
        cover, epi = ((left, ModuleMap.identity(left))
                      if left.is_free_marked() else generating_cover(left))
        assert cover.free_basis == ct.pres.cover.free_basis
        for j in range(ct.group.ngens):
            # one copy of N(c) per basis label of F0(c), read back through
            # the coequalizer's elementary tensors at the label's point of
            # M(c)
            comps = ct.components(unit(ct.group.ngens, j))
            back = [0] * slow.group.ngens
            for c in OR2.objects:
                n = right.values[c].ngens
                for a in range(cover.values[c].ngens):
                    pure = slow.class_of_pure(
                        c, epi.components[c].matrix.column(a),
                        comps[c][a * n:(a + 1) * n])
                    back = [u + w for u, w in zip(back, pure)]
            assert slow.group.reduce(back) == \
                iso.apply(unit(ct.group.ngens, j))
        for j in range(slow.group.ngens):
            # the oracle's own round trip: canonical coordinates of each
            # tensor
            comps = slow.components(unit(slow.group.ngens, j))
            back = slow.projection.apply(
                slow.big.assemble([comps[c] for c in OR2.objects]))
            assert back == unit(slow.group.ngens, j)


# ---------------------------------------------------------------------------
# Natural transformation groups
# ---------------------------------------------------------------------------


def test_hom_point_category_matches_plain_hom():
    cases = [(Z(4), Z(6)), (Z(3), FpAbGroup.from_invariants(1, (2, 6)))]
    for a, b in cases:
        left = constant_module(POINT, a, "co")
        right = constant_module(POINT, b, "co")
        assert hom_over_cat(left, right) == hom_group(a, b)


def test_hom_out_of_representable_evaluates_contra():
    targets = [free_module(OR2, [FREE_LAB], "contra"),
               free_module(OR2, [FULL_LAB, FREE_LAB], "contra"),
               constant_module(OR2, Z(6), "contra")]
    for tgt in targets:
        for c in OR2.objects:
            src = free_module(OR2, [c], "contra")
            assert hom_over_cat(src, tgt) == tgt.values[c]


def test_hom_out_of_representable_evaluates_co():
    targets = [free_module(OR2, [FREE_LAB], "co"),
               constant_module(OR2, Z(4), "co")]
    for tgt in targets:
        for c in OR2.objects:
            src = free_module(OR2, [c], "co")
            assert hom_over_cat(src, tgt) == tgt.values[c]


def test_hom_contains_identity():
    mod = free_module(OR2, [FREE_LAB, FULL_LAB], "contra")
    hg = CatHomGroup(mod, mod)
    assert not hg.group.is_trivial()
    coords = hg.coords_of(ModuleMap.identity(mod))
    assert hg.to_module_map(coords) == ModuleMap.identity(mod)


def test_hom_generators_round_trip():
    pairs = [(free_module(OR2, [FREE_LAB], "contra"),
              constant_module(OR2, Z(8), "contra")),
             (constant_module(OR2, Z(4), "co"),
              constant_module(OR2, Z(6), "co"))]
    for src, tgt in pairs:
        hg = CatHomGroup(src, tgt)
        for j in range(hg.group.ngens):
            e = unit(hg.group.ngens, j)
            mm = hg.to_module_map(e)
            assert validate_module_map(mm) == []
            assert hg.coords_of(mm) == e


def test_hom_variance_mismatch():
    with pytest.raises(ValueError):
        CatHomGroup(constant_module(OR2, Z(2), "co"),
                    constant_module(OR2, Z(2), "contra"))


def test_tensor_hom_adjunction_over_orbit_category():
    lefts = [free_module(OR2, [FREE_LAB], "contra"),
             constant_module(OR2, Z(9), "contra")]
    rights = [free_module(OR2, [FULL_LAB], "co"),
              constant_module(OR2, Z(6), "co")]
    coeffs = [Z(12), FpAbGroup.from_invariants(1, (2,))]
    for left in lefts:
        for right in rights:
            for a in coeffs:
                plain = hom_group(tensor_over_cat(left, right), a)
                curried = hom_over_cat(left, hom_into_module(right, a))
                assert plain == curried


def test_hom_into_module_is_contravariant_and_valid():
    inner = hom_into_module(constant_module(OR2, Z(4), "co"), Z(12))
    assert inner.variance == "contra"
    assert validate_module(inner) == []
    with pytest.raises(ValueError):
        hom_into_module(constant_module(OR2, Z(4), "contra"), Z(12))


# ---------------------------------------------------------------------------
# Restriction and induction
# ---------------------------------------------------------------------------


def pr_z2():
    data = sub_category_and_projection(G2, SubgroupFamily.all(G2))
    return data.projection, data.orbit, data.sub


def test_restrict_along_projection():
    projection, orbit, sub = pr_z2()
    over_sub = free_module(sub, [FREE_LAB], "contra")
    pulled = restrict_module(projection, over_sub)
    assert pulled.cat == orbit
    assert validate_module(pulled) == []
    # the quotient collapses the two self-maps of the free orbit, so the
    # pulled-back value is rank 1 with trivial swap action
    assert pulled.values[FREE_LAB] == FpAbGroup.free(1)
    s = swap_endo(orbit, FREE_LAB)
    assert pulled.actions[s] == AbHom.identity(FpAbGroup.free(1))


def test_induce_representable_stays_representable():
    projection, orbit, sub = pr_z2()
    over_orbit = free_module(orbit, [FREE_LAB], "contra")
    pushed = induce_module(projection, over_orbit)
    assert pushed.cat == sub
    assert validate_module(pushed) == []
    expected = free_module(sub, [FREE_LAB], "contra")
    for c in sub.objects:
        assert pushed.values[c] == expected.values[c]


def test_induce_along_identity_is_isomorphic():
    ident = CatFunctor(OR2, OR2, {c: c for c in OR2.objects},
                       {f: f for f in OR2.morphisms})
    for variance in ("contra", "co"):
        mod = free_module(OR2, [FREE_LAB, FULL_LAB], variance)
        pushed = induce_module(ident, mod)
        assert validate_module(pushed) == []
        for c in OR2.objects:
            assert pushed.values[c] == mod.values[c]


def test_induction_restriction_adjunction():
    projection, orbit, sub = pr_z2()
    overs = [free_module(orbit, [FREE_LAB], "contra"),
             constant_module(orbit, Z(4), "contra")]
    unders = [free_module(sub, [FULL_LAB], "contra"),
              constant_module(sub, Z(6), "contra")]
    for m in overs:
        for n in unders:
            lhs = hom_over_cat(induce_module(projection, m), n)
            rhs = hom_over_cat(m, restrict_module(projection, n))
            assert lhs == rhs


def test_induction_restriction_adjunction_covariant():
    projection, orbit, sub = pr_z2()
    m = free_module(orbit, [FREE_LAB], "co")
    n = constant_module(sub, Z(4), "co")
    lhs = hom_over_cat(induce_module(projection, m), n)
    rhs = hom_over_cat(m, restrict_module(projection, n))
    assert lhs == rhs


def test_functor_endpoint_checks():
    projection, orbit, sub = pr_z2()
    wrong = constant_module(sub, Z(2), "co")
    with pytest.raises(ValueError):
        induce_module(projection, wrong)
    with pytest.raises(ValueError):
        restrict_module(projection, constant_module(orbit, Z(2), "co"))


# ---------------------------------------------------------------------------
# Covers, resolutions, Tor
# ---------------------------------------------------------------------------


def test_generating_cover_is_surjective():
    kernel, _ = module_kernel(sign_kernel_setup()[2])
    for mod in [constant_module(OR2, Z(4), "co"), kernel]:
        free, epi = generating_cover(mod)
        assert free.is_free_marked()
        assert validate_module_map(epi) == []
        for c in OR2.objects:
            coker, _ = hom_cokernel(epi.components[c])
            assert coker.is_trivial()
        assert len(free.free_gens) == sum(g.ngens for g in mod.values.values())


def test_free_resolution_structure():
    res, augmentation = free_resolution(
        constant_module(OR2, FpAbGroup.free(1), "contra"), 2)
    assert (res.lo, res.hi) == (0, 2) and res.is_degreewise_free()
    assert augmentation.source is res.module(0)
    assert augmentation.compose(res.diff(1)).is_zero()
    assert res.diff(1).compose(res.diff(2)).is_zero()
    with pytest.raises(ValueError):
        free_resolution(constant_module(OR2, Z(2), "contra"), -1)


def test_tor_point_category_matches_classical():
    left = constant_module(POINT, Z(4), "contra")
    right = constant_module(POINT, Z(6), "co")
    assert tor(left, right, 0) == Z(2)
    assert tor(left, right, 1) == Z(2)
    assert tor(left, right, 2).is_trivial()
    flat = constant_module(POINT, FpAbGroup.free(1), "contra")
    assert tor(flat, right, 1).is_trivial()


def test_tor_of_free_module_vanishes():
    free = free_module(OR2, [FREE_LAB], "contra")
    right = constant_module(OR2, FpAbGroup.free(1), "co")
    assert tor(free, right, 1).is_trivial()
    assert tor(free, right, 2).is_trivial()


def test_tor_zero_recovers_tensor():
    left = constant_module(OR2, Z(4), "contra")
    right = free_module(OR2, [FREE_LAB], "co")
    assert tensor_over_cat(left, right) == Z(4)
    assert tor(left, right, 0) == Z(4)


def test_tor_balance_on_point_category():
    for a, b in [(4, 6), (6, 8), (9, 12)]:
        one = tor(constant_module(POINT, Z(a), "contra"),
                  constant_module(POINT, Z(b), "co"), 1)
        two = tor(constant_module(POINT, Z(b), "contra"),
                  constant_module(POINT, Z(a), "co"), 1)
        assert one == two == Z(math.gcd(a, b))


TOR_BASES = {"or2": OR2, "chain": standard_category("chain", 2),
             "c2": one_object_category(FinGroup.cyclic(2)),
             "c3": one_object_category(FinGroup.cyclic(3))}


@pytest.mark.parametrize("base", sorted(TOR_BASES))
def test_tor_balance_resolving_the_covariant_argument(base):
    # Tor is balanced: the resolution of the covariant argument, tensored
    # with the contravariant one, gives the same groups as `tor`, which
    # resolves the contravariant argument
    cat = TOR_BASES[base]
    group = {0: FpAbGroup.free(1), 2: Z(2), 4: Z(4), 6: Z(6)}
    for b in (0, 6):
        right = constant_module(cat, group[b], "co")
        res, _ = free_resolution(right, 3)
        for a in (0, 2, 4):
            left = constant_module(cat, group[a], "contra")
            total = tensor_complex_over_cat(cat_complex_concentrated(left, 0),
                                            res)
            for p in range(3):
                assert homology(total, p) == tor(left, right, p)
    if base in ("c2", "c3"):
        # Tor_1 over the group ring of Z with Z is H_1(C_n) = Z/n
        z = FpAbGroup.free(1)
        n = int(base[1])
        assert tor(constant_module(cat, z, "contra"),
                   constant_module(cat, z, "co"), 1) == Z(n)


def test_tor_rejects_negative_degree():
    with pytest.raises(ValueError):
        tor(constant_module(POINT, Z(2), "contra"),
            constant_module(POINT, Z(2), "co"), -1)


# ---------------------------------------------------------------------------
# Products and the interchange map
# ---------------------------------------------------------------------------


def test_product_module_blocks():
    prod = product_module([constant_module(OR2, Z(4), "co"),
                           free_module(OR2, [FREE_LAB], "co")])
    assert validate_module(prod.module) == []
    assert prod.module.values[FREE_LAB] == \
        FpAbGroup.from_invariants(2, (4,))
    with pytest.raises(ValueError):
        product_module([])
    with pytest.raises(ValueError):
        product_module([constant_module(OR2, Z(2), "co"),
                        constant_module(OR2, Z(2), "contra")])


def test_interchange_frozen_instance():
    free = free_module(OR2, [FREE_LAB, FULL_LAB], "contra")
    factors = [constant_module(OR2, FpAbGroup.free(1), "co"),
               free_module(OR2, [FREE_LAB], "co"),
               constant_module(OR2, Z(4), "co")]
    the_map, verdict = finite_product_interchange(free, factors)
    assert verdict is True
    assert the_map.source == the_map.target


def test_interchange_requires_marker():
    with pytest.raises(ValueError):
        finite_product_interchange(constant_module(OR2, Z(2), "contra"),
                                   [constant_module(OR2, Z(2), "co")])


@settings(max_examples=12, deadline=None)
@given(st.data())
def test_interchange_random_free_over_sub_s3(data):
    objs = list(SUBS3.objects)
    gens = data.draw(st.lists(st.sampled_from(objs), min_size=1, max_size=2))
    free = free_module(SUBS3, gens, "contra")
    pool = [constant_module(SUBS3, Z(4), "co"),
            constant_module(SUBS3, FpAbGroup.free(1), "co"),
            free_module(SUBS3, [objs[0]], "co")]
    count = data.draw(st.integers(min_value=1, max_value=2))
    picks = data.draw(st.lists(st.sampled_from(range(len(pool))),
                               min_size=count, max_size=count))
    _, verdict = finite_product_interchange(free, [pool[i] for i in picks])
    assert verdict is True


# ---------------------------------------------------------------------------
# Free-marked fast paths against the general kernel and coequalizer paths
# ---------------------------------------------------------------------------


OR_S3 = orbit_category(_S3, SubgroupFamily.all(_S3))
Z1 = FpAbGroup.free(1)


def test_tor_of_constant_z_over_the_orbit_category_of_s3():
    # constant contravariant Z is the representable at the terminal object
    # G/G: one map G/H → G/G from every orbit, each acting by 1.  It is
    # free, so Tor_0 is the value of Z/2 at G/G and Tor_1 vanishes
    terminal = OR_S3.objects[-1]
    assert len(terminal) == _S3.order
    representable = free_module(OR_S3, [terminal], "contra")
    constant = constant_module(OR_S3, Z1, "contra")
    assert all(representable.values[c] == Z1 for c in OR_S3.objects)
    right = constant_module(OR_S3, Z(2), "co")
    assert tor(constant, right, 0) == Z(2)
    assert tor(constant, right, 1).is_trivial()


def rebased(mm, source, target):
    return ModuleMap(source, target, mm.components)


def units(n):
    return [unit(n, j) for j in range(n)]


def comparison_iso(fast: CatHomGroup, slow: CatHomGroup) -> AbHom:
    """fast.group -> slow.group through the module maps both describe."""
    cols = [slow.coords_of(rebased(fast.to_module_map(e), slow.source,
                                      slow.target))
            for e in units(fast.group.ngens)]
    return AbHom(fast.group, slow.group,
                 IntMatrix.from_columns(cols, nrows=slow.group.ngens))


CATS = st.sampled_from([OR2, OR_S3])


@st.composite
def free_on(draw, cat, variance="contra"):
    """A free module over cat on 1-2 drawn generators."""
    gens = draw(st.lists(st.sampled_from(cat.objects), min_size=1,
                         max_size=2))
    return free_module(cat, gens, variance)


def sign_module(variance):
    """Over OR2: Z at the free orbit with the swap acting by -1, Z/2 at the
    fixed point; the projection acts by reduction (covariant) or by zero
    (contravariant).  Its -1 entries tell signs apart where constant and
    free modules act by 0/1 matrices only."""
    s = swap_endo(OR2, FREE_LAB)
    p = OR2.mor(FREE_LAB, FULL_LAB)[0]
    values = {FREE_LAB: Z1, FULL_LAB: Z(2)}
    actions = {OR2.ids[c]: AbHom.identity(values[c]) for c in OR2.objects}
    actions[s] = AbHom(Z1, Z1, IntMatrix.from_rows([[-1]]))
    if variance == "co":
        actions[p] = AbHom(Z1, Z(2), IntMatrix.from_rows([[1]]))
    else:
        actions[p] = AbHom.zero(Z(2), Z1)
    return CatModule(OR2, variance, values, actions)


SIGN = {v: sign_module(v) for v in ("co", "contra")}


@pytest.mark.parametrize("variance", ["co", "contra"])
def test_sign_module_functorial(variance):
    assert validate_module(SIGN[variance]) == []


def target_pool(cat, variance, data):
    """A constant, a free or (over OR2) the sign module to map into."""
    kinds = ["Z", "Z+Z/2", "Z/4", "free"] + (["sign"] if cat is OR2 else [])
    kind = data.draw(st.sampled_from(kinds))
    if kind == "sign":
        return SIGN[variance]
    if kind == "free":
        return data.draw(free_on(cat, variance))
    group = {"Z": Z1, "Z+Z/2": FpAbGroup.from_invariants(1, (2,)),
             "Z/4": Z(4)}[kind]
    return constant_module(cat, group, variance)


def natural_map_to_constant(module, group, data):
    """A natural map from a free or constant module into a constant one."""
    cat = module.cat
    tgt = constant_module(cat, group, module.variance)
    if module.is_free_marked():
        images = [[data.draw(st.integers(-3, 3)) for _ in range(group.ngens)]
                  for _ in module.free_gens]
        return free_map_from_images(module, tgt, images)
    if module is SIGN[module.variance]:
        # the generator at the free orbit goes to an element killed by 2;
        # so does the one at the fixed point, unless the projection acts by
        # zero there
        half = group.order() // 2 * data.draw(st.integers(0, 1))
        at_full = half if module.variance == "co" else 0
        return ModuleMap(module, tgt, {
            FREE_LAB: AbHom(Z1, group, IntMatrix.from_rows([[half]])),
            FULL_LAB: AbHom(Z(2), group, IntMatrix.from_rows([[at_full]]))})
    # constant to constant: one hom, repeated at every object
    hb = HomBasis(module.values[cat.objects[0]], group)
    h = hb.to_hom([data.draw(st.integers(-3, 3))
                   for _ in range(hb.group.ngens)])
    return ModuleMap(module, tgt, {c: h for c in cat.objects})


@st.composite
def presented_modules(draw, cat):
    """A module to present, of either variance: free (its own cover), a
    stripped free copy, a constant with or without torsion, or over OR2 the
    sign module."""
    variance = draw(st.sampled_from(["co", "contra"]))
    kinds = ["free", "stripped", "Z", "Z/4", "Z/6", "Z+Z/2"]
    kind = draw(st.sampled_from(kinds + (["sign"] if cat is OR2 else [])))
    if kind in ("free", "stripped"):
        free = draw(free_on(cat, variance))
        return free if kind == "free" else stripped(free)
    if kind == "sign":
        return SIGN[variance]
    group = {"Z": Z1, "Z/4": Z(4), "Z/6": Z(6),
             "Z+Z/2": FpAbGroup.from_invariants(1, (2,))}[kind]
    return constant_module(cat, group, variance)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_standard_presentation_is_exact_at_every_object(data):
    # F1 -> F0 -> M -> 0 at each object c: the relations, moved along every
    # morphism that acts from their object to c, span the kernel of the epi
    cat = data.draw(CATS)
    module = data.draw(presented_modules(cat))
    pres = StandardPresentation(module)
    cover = pres.cover
    assert cover is not module or not pres.relations
    epi = free_map_from_images(cover, module, [
        unit(module.values[c].ngens, slot)
        for c, slot in zip(cover.free_gens, pres.slots)])
    assert validate_module_map(epi) == []
    contra = module.variance == "contra"
    for c in cat.objects:
        value, eps = module.values[c], epi.components[c].matrix
        # each lift is a section of the epi
        assert value.reduce_matrix(eps * pres.lifts[c]) == \
            IntMatrix.identity(value.ngens)
        image = IntMatrix.from_columns(
            [cover.actions[f].apply(r) for t, r in pres.relations
             for f in (cat.mor(c, t) if contra else cat.mor(t, c))],
            nrows=cover.values[c].ngens)
        # the composite is zero, and the cokernel is M(c) through the epi
        assert value.reduce_matrix(eps * image).is_zero()
        coker = cokernel_presentation(image)
        assert is_isomorphism(AbHom(coker, value, eps * coker.reps))


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_free_hom_fast_path_matches_kernel_path(data):
    # a free-marked source is its own cover and solves nothing; its stripped
    # copy goes through the generating cover and one kernel; both agree with
    # the equalizer oracle
    cat = data.draw(CATS)
    free = data.draw(free_on(cat))
    target = target_pool(cat, "contra", data)
    fast, general = (CatHomGroup(free, target),
                     CatHomGroup(stripped(free), target))
    assert not fast.pres.relations and general.pres.relations
    oracle = EqualizerHom(free, target)
    u = natural_map_to_constant(target, Z(6), data)
    assert validate_module_map(u) == []
    oracle2 = EqualizerHom(free, u.target)
    other = data.draw(free_on(cat))
    images = [[data.draw(st.integers(-2, 2))
               for _ in range(free.values[c].ngens)]
              for c in other.free_gens]
    v = free_map_from_images(other, free, images)
    oracle3 = EqualizerHom(other, target)
    for hg, other_source in ((fast, other), (general, stripped(other))):
        assert hg.group == oracle.group
        # round trip, and the two coordinate systems agree through an
        # isomorphism
        for e in units(hg.group.ngens):
            mm = hg.to_module_map(e)
            assert validate_module_map(mm) == []
            assert hg.coords_of(mm) == e
        iso = comparison_iso(hg, oracle)
        assert is_isomorphism(iso)
        # postcomposition with a natural map into a constant module
        hg2 = CatHomGroup(hg.source, u.target)
        iso2 = comparison_iso(hg2, oracle2)
        assert iso2.compose(hg.postcompose_map(hg2, u)) == \
            oracle.postcompose_map(oracle2, u).compose(iso)
        # precomposition with a natural map out of another free module
        hg3 = CatHomGroup(other_source, target)
        iso3 = comparison_iso(hg3, oracle3)
        assert iso3.compose(hg.precompose_map(
            hg3, rebased(v, other_source, hg.source))) == \
            oracle.precompose_map(oracle3, v).compose(iso)


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_free_tensor_fast_path_matches_coequalizer(data):
    # a free-marked left factor is its own cover and solves nothing; its
    # stripped copy goes through the generating cover and one cokernel; both
    # agree with the coequalizer oracle
    cat = data.draw(CATS)
    free = data.draw(free_on(cat))
    right = target_pool(cat, "co", data)
    fast, general = CatTensor(free, right), CatTensor(stripped(free), right)
    assert not fast.pres.relations and general.pres.relations
    u = natural_map_to_constant(right, Z(6), data)
    assert validate_module_map(u) == []
    for ct in (fast, general):
        slow, iso = coequalizer_oracle(ct)
        assert ct.group == slow.group
        # the witness pair is a section up to torsion
        n = ct.group.ngens
        assert ct.group.reduce_matrix(ct.group.to_can * ct.group.reps) == \
            IntMatrix.identity(n)
        # the classes satisfy every coequalizer relation
        # (x·f) ⊗ y = x ⊗ (f·y)
        for f in cat.morphisms:
            c, d = cat.dom[f], cat.cod[f]
            for x in units(free.values[d].ngens):
                for y in units(right.values[c].ngens):
                    assert ct.class_of_pure(c, free.actions[f].apply(x), y) \
                        == ct.class_of_pure(d, x, right.actions[f].apply(y))
        # the generators of the cover give an isomorphism onto the
        # coequalizer, which carries every elementary tensor to its class
        # there, and induced maps agree through it
        assert is_isomorphism(iso)
        assert_pure_classes_agree(ct, slow, iso)
        ct2 = CatTensor(ct.left, u.target)
        slow2, iso2 = coequalizer_oracle(ct2)
        assert iso2.compose(ct.induced(ct2, None, u)) == \
            slow.induced(slow2, None, u).compose(iso)


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_free_tensor_induced_blocks_match_the_big_sum(data):
    cat = data.draw(CATS)
    free, other = data.draw(free_on(cat)), data.draw(free_on(cat))
    right = target_pool(cat, "co", data)
    u = natural_map_to_constant(right, Z(6), data)
    v = free_map_from_images(free, other, [
        [data.draw(st.integers(-2, 2)) for _ in range(other.values[c].ngens)]
        for c in free.free_gens])
    # every pairing of a free-marked and an unmarked left factor on each side
    for src_left, tgt_free in ((free, True), (free, False),
                               (stripped(free), True),
                               (stripped(free), False)):
        src = CatTensor(src_left, right)
        src_slow, src_iso = coequalizer_oracle(src)
        for left_map, right_map in ((None, u), (v, None), (v, u)):
            tgt_left = other if left_map else free
            tgt = CatTensor(tgt_left if tgt_free else stripped(tgt_left),
                            u.target if right_map else right)
            tgt_slow, tgt_iso = coequalizer_oracle(tgt)
            assert (not src.pres.relations, not tgt.pres.relations) == \
                (src_left is free, tgt_free)
            lm = rebased(v, src.left, tgt.left) if left_map else None
            assert tgt_iso.compose(src.induced(tgt, lm, right_map)) == \
                src_slow.induced(tgt_slow, lm, right_map).compose(src_iso)


def test_free_marked_paths_solve_nothing(monkeypatch):
    import orbifunctor.catmod as catmod_mod

    def forbidden(*args, **kwargs):
        raise AssertionError("a free-marked module was solved for")
    for name in ("hom_kernel", "express_in_kernel"):
        monkeypatch.setattr(catmod_mod, name, forbidden)
    monkeypatch.setattr(catmod_mod.DirectSum, "quotient", forbidden)
    free = free_module(OR_S3, [OR_S3.objects[0], OR_S3.objects[-1]],
                          "contra")
    target = constant_module(OR_S3, FpAbGroup.from_invariants(1, (2,)),
                             "contra")
    hg = CatHomGroup(free, target)
    for e in units(hg.group.ngens):
        assert hg.coords_of(hg.to_module_map(e)) == e
    ident = ModuleMap.identity(target)
    assert hg.postcompose_map(hg, ident) == AbHom.identity(hg.group)
    assert hg.precompose_map(hg, ModuleMap.identity(free)) == \
        AbHom.identity(hg.group)
    CatTensor(free, constant_module(OR_S3, Z(4), "co"))


def broken_swap_setup():
    """F free on the free orbit, N constant Z, and the non-natural map that
    hits only the basis vector (0, id)."""
    free = free_module(OR2, [FREE_LAB], "contra")
    const = constant_module(OR2, Z1, "contra")
    good = free_map_from_images(free, const, [[1]])
    comps = dict(good.components)
    comps[FREE_LAB] = AbHom(free.values[FREE_LAB], Z1,
                            IntMatrix.from_rows([[1, 0]]))
    return free, const, ModuleMap(free, const, comps)


@pytest.mark.parametrize("path", ["fast", "general", "oracle"])
def test_non_natural_maps_refused_on_both_paths(path):
    free, const, broken = broken_swap_setup()
    src = free if path == "fast" else stripped(free)
    hom = EqualizerHom if path == "oracle" else CatHomGroup
    hg = hom(src, const)
    with pytest.raises(ValueError):
        hg.coords_of(rebased(broken, src, const))
    # postcomposition: u: F -> Z is not natural at the swap, and composing
    # it with the identity transformation of F shows it
    ends = hom(src, free)
    with pytest.raises(ValueError):
        ends.postcompose_map(hg, rebased(broken, free, const))
    # precomposition: v sends both basis vectors of F(free orbit) to
    # (0, id); τ∘v is natural for every τ into a constant module but not for
    # the identity of F
    comps = {FREE_LAB: AbHom(free.values[FREE_LAB], free.values[FREE_LAB],
                             IntMatrix.from_rows([[1, 1], [0, 0]])),
             FULL_LAB: AbHom.identity(free.values[FULL_LAB])}
    v = ModuleMap(src, src, comps)
    assert validate_module_map(v) != []
    assert hg.precompose_map(hg, v) == AbHom.identity(hg.group)
    with pytest.raises(ValueError):
        ends.precompose_map(ends, v)


# ---------------------------------------------------------------------------
# Free markers: free_module is their only source, so they are checked here
# ---------------------------------------------------------------------------


def marker_problems(module):
    """What a free marker must satisfy: the basis at each object lists each
    morphism between it and a generator once, in generator order; the value
    is free on the basis and the index numbers it; each action moves the
    basis labels along its morphism.  [] when all hold."""
    cat, contra = module.cat, module.variance == "contra"
    basis, index = module.free_basis, module.free_index
    problems = []
    for w in cat.objects:
        labels = basis.get(w, ())
        expected = [(i, phi) for i, c in enumerate(module.free_gens)
                    for phi in (cat.mor(w, c) if contra else cat.mor(c, w))]
        if len(set(labels)) != len(labels) or set(labels) != set(expected):
            problems.append(f"free basis at {w!r}")
        elif module.values.get(w) != FpAbGroup.free(len(labels)):
            problems.append(f"value at {w!r}")
        elif index.get(w) != {lab: k for k, lab in enumerate(labels)}:
            problems.append(f"free index at {w!r}")
    if problems:
        return problems
    for f in cat.morphisms:
        if module.actions.get(f) != eager_action(module, f):
            problems.append(f"action of {f!r}")
    return problems


def eager_action(module, f):
    """The action of f on a free-marked module, built from its markers: the
    selection matrix moving each basis label along f."""
    cat, contra = module.cat, module.variance == "contra"
    basis, index = module.free_basis, module.free_index
    s, t = (cat.cod[f], cat.dom[f]) if contra else (cat.dom[f], cat.cod[f])
    moved = [(i, cat.compose(f, phi) if contra else cat.compose(phi, f))
             for i, phi in basis[s]]
    return AbHom(module.values[s], module.values[t], IntMatrix.selection(
        len(basis[t]), [index[t][lab] for lab in moved]))


MARKER_CATS = [OR2, OR_S3, SUBS3, POINT, standard_category("chain", 2),
               standard_category("grid", 2),
               one_object_category(FinGroup.cyclic(3))]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(MARKER_CATS), st.sampled_from(["co", "contra"]),
       st.data())
def test_free_module_markers_describe_the_module(cat, variance, data):
    gens = data.draw(st.lists(st.sampled_from(cat.objects), max_size=3))
    free = free_module(cat, gens, variance)
    assert free.is_free_marked() and free.free_gens == tuple(gens)
    assert marker_problems(free) == []
    assert validate_module(free) == []


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(MARKER_CATS), st.sampled_from(["co", "contra"]),
       st.data())
def test_free_module_actions_match_the_eager_reference(cat, variance, data):
    # the columns are read off the labels before any action is built; the
    # actions, built on first read, are a mapping over every morphism equal
    # to the eagerly built one
    gens = data.draw(st.lists(st.sampled_from(cat.objects), max_size=3))
    free = free_module(cat, gens, variance)
    eager = {f: eager_action(free, f) for f in cat.morphisms}
    with mock.patch.object(IntMatrix, "selection",
                           side_effect=AssertionError("action built")):
        for f in cat.morphisms:
            assert free.action_columns(f) == \
                eager[f].matrix.transpose().nonzeros
    assert list(free.actions) == list(cat.morphisms)
    assert len(free.actions) == len(cat.morphisms)
    assert free.actions.get("no such morphism") is None
    assert dict(free.actions) == eager
    f = data.draw(st.sampled_from(cat.morphisms))
    assert free.actions[f] is free.actions[f]


def test_marker_checks_catch_wrong_markers():
    def fresh():
        return free_module(OR2, [FREE_LAB, FULL_LAB], "contra")
    assert marker_problems(fresh()) == []
    short = fresh()
    short.free_basis = dict(short.free_basis)
    short.free_basis[FREE_LAB] = short.free_basis[FREE_LAB][1:]
    assert marker_problems(short) == [f"free basis at {FREE_LAB!r}"]
    flipped = fresh()
    flipped.variance = "co"
    assert f"free basis at {FREE_LAB!r}" in marker_problems(flipped)
    torsion = fresh()
    torsion.values[FULL_LAB] = Z(2)
    assert marker_problems(torsion) == [f"value at {FULL_LAB!r}"]
    unindexed = fresh()
    unindexed.free_index = {**unindexed.free_index, FULL_LAB: {}}
    assert marker_problems(unindexed) == [f"free index at {FULL_LAB!r}"]
    unmoved = fresh()
    s = swap_endo(OR2, FREE_LAB)
    unmoved.actions[s] = AbHom.identity(unmoved.values[FREE_LAB])
    assert marker_problems(unmoved) == [f"action of {s!r}"]
    # the constructor takes no markers: only free_module sets them
    with pytest.raises(TypeError):
        CatModule(OR2, "contra", unmoved.values, unmoved.actions,
                  free_gens=unmoved.free_gens)
    assert not stripped(fresh()).is_free_marked()
