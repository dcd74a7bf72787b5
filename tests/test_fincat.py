"""Tests for finite groups and the concrete categories built on them.

Counting oracles (subgroup counts, hom-set sizes, Weyl groups) were worked out
by hand for Z/2, Z/4, Klein four, and S_3 before implementation.
"""

import signal

import pytest

from orbifunctor.fincat import (
    CatFunctor,
    FinCategory,
    FinGroup,
    CATEGORY_SIZE_BOUND,
    GROUP_ORDER_BOUND,
    SubgroupFamily,
    _generating_set,
    coset_g_set,
    family_closure,
    group_analysis,
    one_object_category,
    orbit_category,
    pi0,
    standard_category,
    sub_category_and_projection,
    transport_groupoid,
    validate_category,
    validate_functor,
)

from samplers import orbit_category_by_labels, subgroups_by_rounds

S3 = FinGroup.symmetric(3)
SWAP01 = (1, 0, 2)      # the transposition exchanging 0 and 1
A3 = S3.subgroup_generated([(1, 2, 0)])


# -- groups -----------------------------------------------------------------


def test_cyclic_group():
    g = FinGroup.cyclic(4)
    assert g.order == 4
    assert g.mult(3, 2) == 1
    assert g.inverse(3) == 1
    assert g.is_abelian()


def test_symmetric_group():
    assert S3.order == 6
    assert not S3.is_abelian()
    assert S3.mult(SWAP01, SWAP01) == S3.identity
    # (p*q)(i) = p(q(i))
    p, q = (1, 0, 2), (0, 2, 1)
    assert S3.mult(p, q) == (1, 2, 0)


def test_from_table_validation():
    with pytest.raises(ValueError):
        FinGroup.from_table([0, 1], {(0, 0): 0, (0, 1): 1, (1, 0): 1, (1, 1): 1})
    good = FinGroup.from_table(
        [0, 1], {(0, 0): 0, (0, 1): 1, (1, 0): 1, (1, 1): 0})
    assert good.identity == 0


def test_dihedral_and_products():
    assert FinGroup.dihedral(4).order == 8
    klein = FinGroup.direct_product(FinGroup.cyclic(2), FinGroup.cyclic(2))
    assert klein.order == 4
    assert klein.is_abelian()
    assert len(klein.all_subgroups()) == 5


def test_hexagon_realization_of_s3():
    # k |-> k+2 and k |-> -k generate a nonabelian group of order 6 on Z/6
    rot2 = tuple((k + 2) % 6 for k in range(6))
    flip = tuple((-k) % 6 for k in range(6))
    g = FinGroup.from_permutations([rot2, flip])
    assert g.order == 6
    assert not g.is_abelian()
    # r^-1 s r = s r^2
    lhs = g.conjugate(rot2, flip)
    rhs = g.mult(flip, g.mult(rot2, rot2))
    assert lhs == rhs


def test_subgroup_lattices():
    z2 = FinGroup.cyclic(2)
    assert len(z2.all_subgroups()) == 2
    assert z2.centralizer([0]) == frozenset([0, 1])
    z4 = FinGroup.cyclic(4)
    an4 = group_analysis(z4)
    assert len(an4.subgroups) == 3
    assert all(an4.centralizers[s] == frozenset(z4.elements)
               for s in an4.subgroups)
    an3 = group_analysis(S3)
    assert len(an3.subgroups) == 6
    assert len(an3.conjugacy_classes) == 4
    swap_sub = frozenset([S3.identity, SWAP01])
    assert an3.centralizers[swap_sub] == swap_sub


def test_group_analysis_bound():
    with pytest.raises(ValueError):
        # C_5 x C_6: the product constructor has no bound of its own
        group_analysis(FinGroup.direct_product(FinGroup.cyclic(5),
                                               FinGroup.cyclic(6)))


def test_quotient():
    q, proj = S3.quotient(A3)
    assert q.order == 2
    assert proj[SWAP01] != q.identity
    with pytest.raises(ValueError):
        S3.quotient(frozenset([S3.identity, SWAP01]))


# -- families ---------------------------------------------------------------


def test_family_closure_oracles():
    z2 = FinGroup.cyclic(2)
    triv = family_closure(z2, [[0]])
    assert len(triv) == 1
    swaps = family_closure(S3, [frozenset([S3.identity, SWAP01])])
    assert len(swaps) == 4      # trivial + the three 2-element subgroups
    everything = family_closure(S3, [S3.elements])
    assert len(everything) == 6
    assert SubgroupFamily.all(S3).members == everything.members


def test_family_validation():
    with pytest.raises(ValueError):
        SubgroupFamily(S3, [frozenset([S3.identity, SWAP01])])
    with pytest.raises(ValueError):
        family_closure(S3, [[SWAP01]])


# -- orbit categories -------------------------------------------------------


def test_orbit_category_z2_counts():
    z2 = FinGroup.cyclic(2)
    cat = orbit_category(z2, SubgroupFamily.all(z2))
    one, whole = (0,), (0, 1)
    assert len(cat.objects) == 2
    assert len(cat.mor(one, one)) == 2
    assert len(cat.mor(one, whole)) == 1
    assert cat.mor(whole, one) == ()
    assert len(cat.mor(whole, whole)) == 1
    assert validate_category(cat) == []


def test_orbit_category_trivial_group():
    t = FinGroup.trivial()
    cat = orbit_category(t, SubgroupFamily.all(t))
    assert len(cat.objects) == 1
    assert len(cat.morphisms) == 1


def test_orbit_category_trivial_family():
    z2 = FinGroup.cyclic(2)
    cat = orbit_category(z2, SubgroupFamily.trivial(z2))
    assert len(cat.objects) == 1
    assert len(cat.morphisms) == 2
    assert validate_category(cat) == []


@pytest.mark.parametrize("group", [
    FinGroup.cyclic(2), FinGroup.cyclic(4),
    FinGroup.direct_product(FinGroup.cyclic(2), FinGroup.cyclic(2)),
    S3, FinGroup.cyclic(6), FinGroup.dihedral(4), FinGroup.cyclic(12),
], ids=["Z2", "Z4", "V4", "S3", "Z6", "D4", "Z12"])
def test_orbit_category_validates_and_counts(group):
    cat = orbit_category(group, SubgroupFamily.all(group))
    assert validate_category(cat) == []
    one = (group.identity,)
    for obj in cat.objects:
        assert len(cat.mor(one, obj)) == group.order // len(obj)
        if obj != one:
            assert cat.mor(obj, one) == ()


# -- subgroup category and projection ---------------------------------------


def test_sub_category_z2():
    z2 = FinGroup.cyclic(2)
    data = sub_category_and_projection(z2, SubgroupFamily.all(z2))
    one = (0,)
    assert len(data.sub.mor(one, one)) == 1
    assert len(data.orbit.mor(one, one)) == 2
    assert validate_category(data.sub) == []
    assert validate_functor(data.projection) == []


def test_sub_category_s3_weyl_counts():
    data = sub_category_and_projection(S3, SubgroupFamily.all(S3))
    swap = tuple(sorted([S3.identity, SWAP01]))
    a3 = tuple(sorted(A3))
    assert len(data.sub.mor(swap, swap)) == 1    # W(<swap>) trivial
    assert len(data.sub.mor(a3, a3)) == 2        # W(A_3) = Z/2
    assert validate_category(data.sub) == []
    assert validate_functor(data.projection) == []


@pytest.mark.parametrize("group", [
    FinGroup.cyclic(4),
    FinGroup.direct_product(FinGroup.cyclic(2), FinGroup.cyclic(2)),
    S3,
], ids=["Z4", "V4", "S3"])
def test_projection_fibers_are_centralizer_orbits(group):
    data = sub_category_and_projection(group, SubgroupFamily.all(group))
    orb, sub, pr = data.orbit, data.sub, data.projection
    for f_sub in sub.morphisms:
        fiber = [f for f in orb.morphisms if pr.mor_map[f] == f_sub]
        assert fiber
        h_sub = frozenset(f_sub[0])
        centralizer = group.centralizer(h_sub)
        # the fiber is one orbit of Z_G H acting by left multiplication
        base = fiber[0]
        orbit = set()
        for z in centralizer:
            moved = tuple(sorted(group.mult(group.mult(z, min(base[2])), k)
                                 for k in frozenset(base[1])))
            orbit.add((base[0], base[1], moved))
        assert set(fiber) == orbit
    # pr is surjective on morphisms (full)
    assert set(pr.mor_map.values()) == set(sub.morphisms)


@pytest.mark.parametrize("group", [
    FinGroup.cyclic(4),
    FinGroup.direct_product(FinGroup.cyclic(2), FinGroup.cyclic(2)),
    S3,
], ids=["Z4", "V4", "S3"])
def test_sub_automorphisms_are_weyl_groups(group):
    """aut in the quotient category is N_G H / (H * Z_G H), as groups."""
    data = sub_category_and_projection(group, SubgroupFamily.all(group))
    sub, pr = data.sub, data.projection
    for h_sub in group.all_subgroups():
        h_lab = tuple(sorted(h_sub))
        normalizer = group.normalizer(h_sub)
        hz = {group.mult(h, z) for h in h_sub
              for z in group.centralizer(h_sub)}
        auts = sub.mor(h_lab, h_lab)

        def phi(n):
            coset = tuple(sorted(group.mult(n, k) for k in h_sub))
            return pr.mor_map[(h_lab, h_lab, coset)]

        # homomorphism (diagrammatically), surjective, kernel H * Z_G H
        for m in normalizer:
            for n in normalizer:
                assert phi(group.mult(m, n)) == sub.compose(phi(m), phi(n))
        assert {phi(n) for n in normalizer} == set(auts)
        kernel = {n for n in normalizer if sub.is_identity(phi(n))}
        assert kernel == hz
        assert len(auts) * len(hz) == len(normalizer)


# -- transport groupoids ----------------------------------------------------


def test_transport_regular_action():
    z2 = FinGroup.cyclic(2)
    elements, action = coset_g_set(z2, [0])
    cat = transport_groupoid(z2, elements, action)
    assert len(cat.objects) == 2
    assert len(cat.morphisms) == 4
    assert len(pi0(cat)) == 1
    assert validate_category(cat) == []


def test_transport_one_point():
    cat = transport_groupoid(S3, *coset_g_set(S3, S3.elements))
    assert len(cat.objects) == 1
    assert len(cat.morphisms) == 6


def test_transport_all_invertible():
    z4 = FinGroup.cyclic(4)
    elements, action = coset_g_set(z4, [0, 2])
    cat = transport_groupoid(z4, elements, action)
    for f in cat.morphisms:
        inverses = [g for g in cat.mor(cat.cod[f], cat.dom[f])
                    if cat.is_identity(cat.compose(f, g))
                    and cat.is_identity(cat.compose(g, f))]
        assert len(inverses) == 1


def test_transport_disconnected():
    z2 = FinGroup.cyclic(2)
    elements = ["a", "b"]
    action = {(g, s): s for g in z2.elements for s in elements}
    cat = transport_groupoid(z2, elements, action)
    assert len(pi0(cat)) == 2


def test_transport_invalid_action():
    z2 = FinGroup.cyclic(2)
    action = {(0, "a"): "a", (1, "a"): "b"}
    with pytest.raises(ValueError):
        transport_groupoid(z2, ["a"], action)


def test_transport_identity_must_fix():
    with pytest.raises(ValueError, match="identity"):
        transport_groupoid(FinGroup.cyclic(2), [0], {(0, 0): 1, (1, 0): 0})


def test_transport_incomplete_action_rejected():
    # (1, 1) is missing, and the compatibility check would read it
    with pytest.raises(ValueError, match="incomplete"):
        transport_groupoid(FinGroup.cyclic(2), [0, 1],
                           {(0, 0): 0, (0, 1): 1, (1, 0): 1})


def test_transport_incompatible_action_rejected():
    # the generator shifts by one on three points, so acting twice is not
    # the identity even though the group element squares to it
    z2 = FinGroup.cyclic(2)
    action = {(g, s): (s + g) % 3 for g in z2.elements for s in (0, 1, 2)}
    with pytest.raises(ValueError, match="not compatible"):
        transport_groupoid(z2, [0, 1, 2], action)


# -- index categories and one-object categories -----------------------------


def test_chain_category():
    cat = standard_category("chain", 2)
    assert len(cat.objects) == 3
    assert len(cat.morphisms) == 6
    assert validate_category(cat) == []
    assert cat.compose((0, 1), (1, 2)) == (0, 2)
    assert cat.mor(2, 0) == ()


def test_grid_category():
    cat = standard_category("grid", 3)
    assert len(cat.mor(0, 2)) == 3
    assert validate_category(cat) == []
    # the square of generators commutes: both orders give the (1,1) step
    a = cat.compose((0, 1, (1, 0)), (1, 2, (0, 1)))
    b = cat.compose((0, 1, (0, 1)), (1, 2, (1, 0)))
    assert a == b == (0, 2, (1, 1))


def test_grid_counts():
    cat = standard_category("grid", 2)
    assert len(cat.mor(0, 0)) == 1
    assert len(cat.mor(0, 1)) == 2
    assert len(cat.mor(1, 0)) == 0


def test_standard_category_errors():
    with pytest.raises(ValueError):
        standard_category("ladder", 2)
    with pytest.raises(ValueError):
        standard_category("chain", -1)
    for kind in ("chain", "grid"):
        with pytest.raises(ValueError, match="truncation"):
            standard_category(kind, CATEGORY_SIZE_BOUND + 1)


def test_one_object_category():
    z3 = FinGroup.cyclic(3)
    cat = one_object_category(z3)
    assert len(cat.objects) == 1
    assert len(cat.morphisms) == 3
    assert validate_category(cat) == []
    # diagrammatic: compose(a, b) = b * a
    assert cat.compose(1, 1) == 2


def test_validate_catches_broken_associativity():
    morphisms = ["1", "a", "b"]
    dom = {f: "*" for f in morphisms}
    cod = dict(dom)
    table = {("1", f): f for f in morphisms}
    table.update({(f, "1"): f for f in morphisms})
    table.update({("a", "a"): "b", ("a", "b"): "a",
                  ("b", "a"): "1", ("b", "b"): "1"})
    cat = FinCategory(["*"], morphisms, dom, cod, table, {"*": "1"})
    problems = validate_category(cat)
    assert len(problems) == 1
    assert "associativity" in problems[0]


def test_validate_catches_missing_identity():
    # a missing identity is refused on construction, before a validator can
    # index it; an identity that is not an endomorphism is left to
    # validate_category
    with pytest.raises(ValueError, match="identity"):
        FinCategory(["*"], ["f"], {"f": "*"}, {"f": "*"},
                    {("f", "f"): "f"}, {})
    with pytest.raises(ValueError, match="identity"):
        FinCategory(["*"], ["f"], {"f": "*"}, {"f": "*"},
                    {("f", "f"): "f"}, {"*": "g"})
    dom = {"1a": "a", "1b": "b", "f": "a"}
    cod = {"1a": "a", "1b": "b", "f": "b"}
    cat = FinCategory(["a", "b"], ["1a", "1b", "f"], dom, cod, {},
                      {"a": "1a", "b": "f"})
    assert any("identity" in p for p in validate_category(cat))


def test_category_refuses_morphism_without_endpoints():
    with pytest.raises(ValueError, match="dom/cod"):
        FinCategory(["*"], ["1", "f"], {"1": "*", "f": "*"}, {"1": "*"},
                    {}, {"*": "1"})
    with pytest.raises(ValueError, match="dom/cod"):
        FinCategory(["*"], ["1", "f"], {"1": "*", "f": "*"},
                    {"1": "*", "f": "elsewhere"}, {}, {"*": "1"})


def test_validate_functor_catches_bad_map():
    z2 = FinGroup.cyclic(2)
    bg = one_object_category(z2)
    bad = CatFunctor(bg, bg, {"*": "*"}, {0: 0, 1: 0})
    assert validate_functor(bad) == []      # collapsing Z/2 is a real functor
    worse = CatFunctor(bg, bg, {"*": "*"}, {0: 1, 1: 0})
    assert any("identity" in p for p in validate_functor(worse))


# -- the builders against the all-pairs builders they replaced ---------------


def _old_coset_label(group, g, subgroup):
    return tuple(sorted(group.mult(g, k) for k in subgroup))


def _old_orbit_category(group, family):
    """The all-elements, all-pairs builder of Or(G, family)."""
    objects = [tuple(sorted(m)) for m in family.members]
    subsets = {o: frozenset(o) for o in objects}
    morphisms = []
    dom, cod, ids, reps = {}, {}, {}, {}
    for h_lab in objects:
        for k_lab in objects:
            k_sub = subsets[k_lab]
            seen = set()
            for g in group.elements:
                if any(group.conjugate(g, h) not in k_sub
                       for h in subsets[h_lab]):
                    continue
                coset = _old_coset_label(group, g, k_sub)
                if coset in seen:
                    continue
                seen.add(coset)
                f = (h_lab, k_lab, coset)
                morphisms.append(f)
                dom[f], cod[f], reps[f] = h_lab, k_lab, min(coset)
                if h_lab == k_lab and coset == k_lab:
                    ids[h_lab] = f
    morphisms.sort()
    table = {}
    for f in morphisms:
        for g in morphisms:
            if cod[f] == dom[g]:
                r = group.mult(reps[f], reps[g])
                table[(f, g)] = (dom[f], cod[g],
                                 _old_coset_label(group, r, subsets[cod[g]]))
    return FinCategory(objects, morphisms, dom, cod, table, ids)


def _old_sub_category(group, orb):
    """(quotient category, projection map) by composing class
    representatives over all pairs."""
    mor_map, morphisms = {}, []
    dom, cod, ids, class_rep = {}, {}, {}, {}
    for f in orb.morphisms:
        h_lab, k_lab, coset = f
        centralizer = group.centralizer(frozenset(h_lab))
        orbit = {_old_coset_label(group, group.mult(z, min(coset)), k_lab)
                 for z in group.elements if z in centralizer}
        key = (h_lab, k_lab, min(orbit))
        mor_map[f] = key
        if key not in dom:
            morphisms.append(key)
            dom[key], cod[key] = h_lab, k_lab
            class_rep[key] = min(min(orbit))
        if orb.is_identity(f):
            ids[h_lab] = key
    morphisms.sort()
    table = {}
    for f in morphisms:
        for g in morphisms:
            if cod[f] == dom[g]:
                r = group.mult(class_rep[f], class_rep[g])
                table[(f, g)] = mor_map[(dom[f], cod[g],
                                         _old_coset_label(group, r, cod[g]))]
    return FinCategory(orb.objects, morphisms, dom, cod, table, ids), mor_map


def _same_category(new, old):
    # the table is compared as a list too: its f-major order decides which
    # failing pair the validators report first
    return (new.objects == old.objects and new.morphisms == old.morphisms
            and new.dom == old.dom and new.cod == old.cod
            and new.ids == old.ids
            and list(new.table.items()) == list(old.table.items()))


def _oracle_cases():
    hexagon = FinGroup.from_permutations([(2, 3, 4, 5, 0, 1),
                                          (0, 5, 4, 3, 2, 1)])
    relabelled = FinGroup.from_table([0, 7], {(0, 0): 0, (0, 7): 7,
                                              (7, 0): 7, (7, 7): 0})
    groups = [FinGroup.trivial(), FinGroup.cyclic(2), FinGroup.cyclic(3),
              FinGroup.cyclic(4), FinGroup.cyclic(6), FinGroup.cyclic(7),
              FinGroup.cyclic(12), relabelled,
              FinGroup.direct_product(FinGroup.cyclic(2), FinGroup.cyclic(2)),
              S3, FinGroup.from_permutations([SWAP01]), FinGroup.dihedral(4),
              hexagon]
    for group in groups:
        fams = [SubgroupFamily.all(group), SubgroupFamily.trivial(group),
                SubgroupFamily(group, []),
                family_closure(group, [group.subgroup_generated([g])
                                       for g in group.elements
                                       if group.mult(g, g) == group.identity])]
        for fam in fams:
            yield group, fam


def test_orbit_and_sub_category_match_the_all_pairs_builders():
    for group, fam in _oracle_cases():
        orb = orbit_category(group, fam)
        assert _same_category(orb, _old_orbit_category(group, fam))
        data = sub_category_and_projection(group, fam)
        old_sub, old_map = _old_sub_category(group, orb)
        assert _same_category(data.sub, old_sub)
        assert data.projection.mor_map == old_map


def _lattice_cases():
    # every group the suite builds, and groups whose elements are not listed
    # in sorted order
    C2, C3 = FinGroup.cyclic(2), FinGroup.cyclic(3)
    unsorted = FinGroup.from_table([7, 0], {(0, 0): 0, (0, 7): 7,
                                            (7, 0): 7, (7, 7): 0})
    quotient, _ = FinGroup.dihedral(4).quotient(
        FinGroup.dihedral(4).subgroup_generated([(2, 3, 0, 1)]))
    return list(dict.fromkeys(group for group, _ in _oracle_cases())) + [
        unsorted, quotient, FinGroup.cyclic(8), FinGroup.cyclic(24),
        FinGroup.direct_product(C2, C3), FinGroup.direct_product(C3, C3),
        FinGroup.direct_product(C2, FinGroup.direct_product(C2, C2)),
        FinGroup.dihedral(3), FinGroup.dihedral(6), FinGroup.dihedral(12),
        FinGroup.symmetric(4),
        FinGroup.from_permutations([(1, 2, 0, 3), (0, 2, 3, 1)])]


@pytest.mark.parametrize("group", _lattice_cases(),
                         ids=lambda g: f"order-{g.order}")
def test_lattice_and_orbit_category_match_the_label_builders(group):
    # the position-based builders against the label-based ones they
    # replaced: equal lattices in the same order, and equal categories with
    # the same morphism and table order
    assert group.all_subgroups() == subgroups_by_rounds(group)
    for fam in (SubgroupFamily.all(group), SubgroupFamily.trivial(group),
                family_closure(group, [group.subgroup_generated([g])
                                       for g in group.elements
                                       if group.mult(g, g) == group.identity])):
        assert _same_category(orbit_category(group, fam),
                              orbit_category_by_labels(group, fam))


def test_orbit_category_is_built_once_per_family():
    fam = SubgroupFamily.all(S3)
    cat = orbit_category(S3, fam)
    assert orbit_category(S3, fam) is cat
    assert sub_category_and_projection(S3, fam).orbit is cat
    # an equal family, or another copy of the group, gets its own build
    assert orbit_category(S3, SubgroupFamily.all(S3)) is not cat
    other = FinGroup.symmetric(3)
    assert orbit_category(other, fam) is not cat
    assert orbit_category(other, fam) == cat


def test_transport_refuses_a_table_wrong_only_at_one_element():
    # the regular action of S_3 with one entry moved, at every element in
    # turn: three of them lie outside the generating set the law is checked on
    assert len(_generating_set(S3)) == 2
    elements, action = coset_g_set(S3, [S3.identity])
    for g in S3.elements:
        if g == S3.identity:
            continue
        s = elements[0]
        bad = dict(action)
        bad[(g, s)] = next(t for t in elements if t != action[(g, s)])
        with pytest.raises(ValueError, match="not compatible"):
            transport_groupoid(S3, elements, bad)


# -- validate_category against the all-pairs check it replaced ---------------


def _old_validate_category(cat):
    """The check that tests composability on all |mor|² ordered pairs."""
    problems = []
    for a in cat.objects:
        i = cat.ids[a]
        if cat.dom[i] != a or cat.cod[i] != a:
            problems.append(f"identity of {a!r} is not an endomorphism")
    if problems:
        return problems
    for f in cat.morphisms:
        for g in cat.morphisms:
            composable = cat.cod[f] == cat.dom[g]
            present = (f, g) in cat.table
            if composable and not present:
                problems.append(f"missing composite {f!r} then {g!r}")
            elif not composable and present:
                problems.append(f"table defined on non-composable {f!r}, {g!r}")
            elif present:
                h = cat.table[(f, g)]
                if h not in cat.mor_index:
                    problems.append(f"composite {f!r} then {g!r} is not a morphism")
                elif cat.dom[h] != cat.dom[f] or cat.cod[h] != cat.cod[g]:
                    problems.append(
                        f"composite {f!r} then {g!r} has wrong dom/cod")
    if problems:
        return problems
    for f in cat.morphisms:
        if cat.table[(cat.ids[cat.dom[f]], f)] != f:
            problems.append(f"left identity fails at {f!r}")
        if cat.table[(f, cat.ids[cat.cod[f]])] != f:
            problems.append(f"right identity fails at {f!r}")
    if problems:
        return problems
    for f in cat.morphisms:
        for g in cat.mor_from(cat.cod[f]):
            fg = cat.table[(f, g)]
            for h in cat.mor_from(cat.cod[g]):
                if cat.table[(fg, h)] != cat.table[(f, cat.table[(g, h)])]:
                    problems.append(
                        f"associativity fails on triple ({f!r}, {g!r}, {h!r})")
                    return problems
    return problems


def _with_table(cat, table):
    return FinCategory(cat.objects, cat.morphisms, cat.dom, cat.cod, table,
                       cat.ids)


def _mutants(cat):
    """(name, category) for each kind of broken table, at a few places."""
    pairs = sorted(cat.table, key=lambda fg: (cat.mor_index[fg[0]],
                                              cat.mor_index[fg[1]]))
    picks = sorted({0, len(pairs) // 2, len(pairs) - 1})
    strays = [(f, g) for f in cat.morphisms for g in cat.morphisms
              if cat.cod[f] != cat.dom[g]]
    for n in picks:
        f, g = pairs[n]
        dropped = dict(cat.table)
        del dropped[(f, g)]
        yield f"dropped-{n}", _with_table(cat, dropped)
        yield f"ghost-{n}", _with_table(cat, {**cat.table, (f, g): "ghost"})
        h = cat.table[(f, g)]
        wrong = [m for m in cat.morphisms
                 if (cat.dom[m], cat.cod[m]) != (cat.dom[h], cat.cod[h])]
        if wrong:
            yield f"dom-cod-{n}", _with_table(cat, {**cat.table,
                                                     (f, g): wrong[0]})
        other = [m for m in cat.mor(cat.dom[h], cat.cod[h]) if m != h]
        if other:
            yield f"reassociated-{n}", _with_table(cat, {**cat.table,
                                                         (f, g): other[0]})
    if strays:
        for n in sorted({0, len(strays) - 1}):
            yield f"stray-{n}", _with_table(
                cat, {**cat.table, strays[n]: cat.morphisms[0]})
    both = dict(cat.table)
    del both[pairs[-1]]
    if strays:
        both[strays[0]] = cat.morphisms[-1]
    yield "dropped-and-stray", _with_table(cat, both)


def _broken_associativity():
    morphisms = ["1", "a", "b"]
    dom = {f: "*" for f in morphisms}
    table = {("1", f): f for f in morphisms}
    table.update({(f, "1"): f for f in morphisms})
    table.update({("a", "a"): "b", ("a", "b"): "a",
                  ("b", "a"): "1", ("b", "b"): "1"})
    return FinCategory(["*"], morphisms, dom, dict(dom), table, {"*": "1"})


_Z2 = FinGroup.cyclic(2)
VALIDATED = {
    **{f"orbit-{name}": orbit_category(g, SubgroupFamily.all(g))
       for name, g in [
           ("Z2", _Z2), ("Z4", FinGroup.cyclic(4)),
           ("V4", FinGroup.direct_product(_Z2, _Z2)), ("S3", S3),
           ("Z6", FinGroup.cyclic(6)), ("D4", FinGroup.dihedral(4)),
           ("Z12", FinGroup.cyclic(12))]},
    "orbit-Z2-trivial": orbit_category(_Z2, SubgroupFamily.trivial(_Z2)),
    "sub-Z2": sub_category_and_projection(_Z2, SubgroupFamily.all(_Z2)).sub,
    "sub-S3": sub_category_and_projection(S3, SubgroupFamily.all(S3)).sub,
    "transport-Z2": transport_groupoid(_Z2, *coset_g_set(_Z2, [0])),
    "chain-2": standard_category("chain", 2),
    "grid-3": standard_category("grid", 3),
    "one-object-Z3": one_object_category(FinGroup.cyclic(3)),
    "broken-associativity": _broken_associativity(),
}


@pytest.mark.parametrize("name", sorted(VALIDATED))
def test_validate_category_matches_the_all_pairs_check(name):
    cat = VALIDATED[name]
    assert validate_category(cat) == _old_validate_category(cat)
    kinds = set()
    for kind, mutant in _mutants(cat):
        problems = validate_category(mutant)
        assert problems == _old_validate_category(mutant), kind
        kinds.add(kind.split("-")[0])
        # another morphism as a composite may still make a category
        assert problems or kind.startswith("reassociated"), kind
    assert {"dropped", "ghost"} <= kinds


def test_validate_category_on_a_large_orbit_category():
    # Or(D_12, all): 862 morphisms, 20,738 composable pairs; the all-pairs
    # check took several seconds here
    group = FinGroup.dihedral(12)
    cat = orbit_category(group, SubgroupFamily.all(group))
    signal.signal(signal.SIGALRM, _too_slow)
    signal.alarm(4)
    try:
        assert validate_category(cat) == []
    finally:
        signal.alarm(0)


def _too_slow(signum, frame):
    raise TimeoutError("validate_category over its time budget")


def test_category_refuses_repeated_morphism_labels():
    with pytest.raises(ValueError, match="not distinct"):
        FinCategory(["*"], ["1", "1"], {"1": "*"}, {"1": "*"},
                    {("1", "1"): "1"}, {"*": "1"})
