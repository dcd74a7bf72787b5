"""Hypothesis checks, comparison verdicts, probes, and engineered defects.

Oracles frozen here were computed independently first: fixed-set quotients
of the reflection circle and hexagon by listing cells, the diagonal-witness
order in the torsion probe by hand (lcm of cyclic orders), and the Borel
kernel pattern for the one-point space from the classifying-space homology
already pinned in the cell-structure tests.
"""

import importlib.resources
import json

import pytest

import orbifunctor.exact_abelian as ea
import orbifunctor.verify as verify_mod
from orbifunctor.exact_abelian import (
    AbHom,
    FpAbGroup,
    IntMatrix,
)
from orbifunctor.fincat import (
    FinGroup,
    SubgroupFamily,
    _coset_label,
    coset_g_set,
    orbit_category,
    pi0,
    standard_category,
    transport_groupoid,
)
from orbifunctor.catmod import CatModule, constant_module
from orbifunctor.chainplex import (
    BiFunctorComplex,
    ChainMap,
    PlainChainComplex,
    cat_complex_concentrated,
    comparison_map_t,
    complex_concentrated,
    homology,
    induced_map_on_homology,
)
from orbifunctor.cellspaces import (
    classifying_model,
    cellular_chain_complex,
    centralizer_quotient_chains,
    fixed_point_chains,
    free_orbit_points,
    hexagon_s3,
    point_space,
    reflection_circle,
)
from orbifunctor.verify import (
    ALMOST,
    ALMOST_ISO,
    ISO,
    NEITHER,
    STRICT,
    GradedSeqSpec,
    TheoremInstance,
    borel_vs_quotient_check,
    check_hypotheses,
    classify_map,
    instance_s3_hexagon,
    instance_z2_reflection,
    interchange_criterion,
    sub_factorization_check,
    tor_interchange_probe,
    transport_pi0_module,
    twisted_coefficient_system,
    verify_comparison,
    with_inflated_floor,
    with_padded_degree,
)

Z = FpAbGroup.free(1)


def count_homology_builds(monkeypatch):
    """A list that gains one entry per HomologyData built from now on."""
    calls = []
    init = ea.HomologyData.__init__

    def counted(self, *args, **kwargs):
        calls.append(1)
        init(self, *args, **kwargs)
    monkeypatch.setattr(ea.HomologyData, "__init__", counted)
    return calls


def one_by_one(src, tgt, entry):
    return AbHom(src, tgt, IntMatrix.from_columns([[entry]], nrows=1))


class TestInstanceValidation:
    def test_desk_instance_builds(self):
        inst = instance_z2_reflection()
        assert inst.top_degree == 2
        assert inst.through_degree == 2
        assert inst.vanishing_floor == 0
        assert inst.mode == STRICT

    def test_unknown_mode_rejected(self):
        inst = instance_z2_reflection()
        with pytest.raises(ValueError, match="unknown mode"):
            TheoremInstance(inst.index_cat, inst.free_complex, inst.group,
                            inst.family, inst.space, inst.coefficients,
                            2, 2, mode="sloppy")

    def test_negative_top_degree_rejected(self):
        inst = instance_z2_reflection()
        with pytest.raises(ValueError, match="top degree"):
            TheoremInstance(inst.index_cat, inst.free_complex, inst.group,
                            inst.family, inst.space, inst.coefficients,
                            -1, 2)

    def test_free_complex_over_wrong_category(self):
        inst = instance_z2_reflection()
        other = standard_category("chain", 2)
        with pytest.raises(ValueError, match="index category"):
            TheoremInstance(other, inst.free_complex, inst.group,
                            inst.family, inst.space, inst.coefficients, 2, 2)

    def test_unmarked_free_complex_rejected(self):
        inst = instance_z2_reflection()
        plain = cat_complex_concentrated(
            constant_module(inst.index_cat, Z, "contra"), 0)
        with pytest.raises(ValueError, match="free markers"):
            TheoremInstance(inst.index_cat, plain, inst.group, inst.family,
                            inst.space, inst.coefficients, 2, 2)

    def test_space_from_wrong_group_rejected(self):
        inst = instance_z2_reflection()
        stranger = point_space(FinGroup.cyclic(3))
        with pytest.raises(ValueError, match="different group"):
            TheoremInstance(inst.index_cat, inst.free_complex, inst.group,
                            inst.family, stranger, inst.coefficients, 2, 2)

    def test_coefficients_over_wrong_orbit_category(self):
        inst = instance_z2_reflection()
        with pytest.raises(ValueError, match="orbit leg"):
            TheoremInstance(inst.index_cat, inst.free_complex,
                            FinGroup.cyclic(3),
                            SubgroupFamily.all(FinGroup.cyclic(3)),
                            inst.space, inst.coefficients, 2, 2)

    def test_space_given_as_chain_complex(self):
        # hypothesis D reads the chains, however the space was given: the
        # same witnesses, "no fixed cells" members included (the hexagon's
        # rotations)
        for inst in (instance_z2_reflection(), instance_s3_hexagon()):
            chains = fixed_point_chains(inst.space, inst.family)
            direct = TheoremInstance(inst.index_cat, inst.free_complex,
                                     inst.group, inst.family, chains,
                                     inst.coefficients, 2, 2)
            assert direct.chains is chains
            rep, from_cells = check_hypotheses(direct), check_hypotheses(inst)
            assert rep.passed
            assert rep.d.witnesses == from_cells.d.witnesses
            assert rep.d.note == from_cells.d.note

    def test_isotropy_outside_the_family_rejected(self):
        # the reflection circle's vertices are fixed by all of C_2, which the
        # trivial family leaves out: its fixed-point chains cannot be built
        inst = instance_z2_reflection()
        trivial = SubgroupFamily.trivial(inst.group)
        coeff = BiFunctorComplex.constant_in_index(
            inst.index_cat, cat_complex_concentrated(
                transport_pi0_module(inst.group, trivial), 0))
        with pytest.raises(ValueError, match="outside the family"):
            TheoremInstance(inst.index_cat, inst.free_complex, inst.group,
                            trivial, inst.space, coeff, 2, 2)

    def test_space_of_wrong_kind_rejected(self):
        inst = instance_z2_reflection()
        with pytest.raises(ValueError, match="cell data or a chain complex"):
            TheoremInstance(inst.index_cat, inst.free_complex, inst.group,
                            inst.family, "circle", inst.coefficients, 2, 2)


class TestHypotheses:
    def test_reflection_instance_passes(self):
        rep = check_hypotheses(instance_z2_reflection())
        assert rep.passed
        assert rep.a.passed and rep.b.passed and rep.c.passed and rep.d.passed
        assert rep.mode == STRICT

    def test_orbit_type_count_reported(self):
        rep = check_hypotheses(instance_z2_reflection())
        assert "2 orbit types" in rep.c.note

    def test_fixed_quotient_homology_witnesses(self):
        # X^(C2) is two points with trivial centralizer action: H_0 = Z^2.
        # X/C2 is an interval: H_0 = Z, H_1 = 0.  Hand count.
        rep = check_hypotheses(instance_z2_reflection())
        table = {(lab, p): grp for lab, p, grp in rep.d.witnesses}
        assert table[((0, 1), 0)] == FpAbGroup.free(2)
        assert table[((0, 1), 1)].is_trivial()
        assert table[((0,), 0)] == Z
        assert table[((0,), 1)].is_trivial()

    def test_hexagon_members_without_fixed_cells(self):
        # rotations fix nothing on the hexagon, so the rotation subgroup and
        # the full group contribute empty fixed sets
        rep = check_hypotheses(instance_s3_hexagon())
        assert rep.passed
        empties = [lab for lab, p, note in rep.d.witnesses if p is None]
        assert len(empties) == 2
        assert all(len(lab) in (3, 6) for lab in empties)

    def test_fixed_point_chains_built_once_per_check(self, monkeypatch):
        # a whole verify-theorem run, parsing included, builds cellular
        # chains twice: the index model and the space's fixed-point chains,
        # which hypothesis D and the comparison share
        import orbifunctor.cellspaces as cs
        import orbifunctor.cli as cli
        calls = []
        build = cs.cellular_chain_complex

        def counted(*args):
            calls.append(1)
            return build(*args)
        ref = importlib.resources.files("orbifunctor") / "manifests" \
            / "z2_reflection_sphere.json"
        data = json.loads(ref.read_text(encoding="utf-8"))
        hexa = hexagon_s3()
        hexagon = {**data, "group": cli.encode_group(hexa.group),
                   "gcw": cli.encode_gcw(hexa)}
        for manifest in (data, hexagon):
            with monkeypatch.context() as patch:
                for module in (cs, cli):
                    patch.setattr(module, "cellular_chain_complex", counted)
                calls.clear()
                parsed = cli.parse_manifest(json.dumps(manifest))
                assert cli.run("verify-theorem", parsed).passed
                assert len(calls) == 2
            # the same witnesses as one centralizer quotient per member,
            # read off the chains over the isotropy family
            inst = parsed.get("instance")
            own = fixed_point_chains(inst.space, inst.space.isotropy_family())
            for lab, p, grp in check_hypotheses(inst).d.witnesses:
                if p is not None:
                    cq = centralizer_quotient_chains(own, inst.group, lab)
                    assert homology(cq, p) == grp

    def test_almost_mode_reports_annihilator(self):
        inst = instance_z2_reflection()
        almost = TheoremInstance(inst.index_cat, inst.free_complex,
                                 inst.group, inst.family, inst.space,
                                 inst.coefficients, 2, 2, mode=ALMOST)
        rep = check_hypotheses(almost)
        assert rep.mode == ALMOST
        assert "annihilator candidate 1" in rep.d.note


class TestComparison:
    def test_reflection_all_degrees_iso(self):
        rep = verify_comparison(instance_z2_reflection())
        assert rep.all_iso and rep.passed
        assert sorted(rep.per_degree) == [0, 1, 2]
        for m in rep.per_degree.values():
            assert m.kind == ISO
            assert m.kernel.is_trivial() and m.cokernel.is_trivial()

    def test_hexagon_all_degrees_iso(self):
        rep = verify_comparison(instance_s3_hexagon())
        assert rep.all_iso and rep.passed

    def test_desk_comparisons_are_decided_by_their_components(
            self, monkeypatch):
        # every desk window and the shipped manifest: each component is an
        # isomorphism, so no homology is built, and each degree's class is
        # the one that homology gives
        import orbifunctor.cli as cli
        ref = importlib.resources.files("orbifunctor") / "manifests" \
            / "z2_reflection_sphere.json"
        shipped = cli.parse_manifest(ref.read_text(encoding="utf-8"))
        insts = ([instance_z2_reflection(w) for w in (3, 4, 5)]
                 + [instance_s3_hexagon(w) for w in (3, 4)]
                 + [shipped.get("instance")])
        for inst in insts:
            with monkeypatch.context() as patch:
                builds = count_homology_builds(patch)
                rep = verify_comparison(inst)
                assert rep.all_iso and builds == []
            t = comparison_map_t(inst.chains, inst.free_complex,
                                 inst.coefficients)
            isos = {}
            for p in range(inst.through_degree + 1):
                assert verify_mod.classify_comparison_degree(t, p, isos) \
                    == classify_map(induced_map_on_homology(t, p)) \
                    == rep.per_degree[p]
            assert all(isos.values())

    def test_degree_rule_falls_back_to_homology(self):
        # chain maps whose components are not all isomorphisms: the rule
        # classifies the induced map, which may still be one; the last two
        # are isomorphisms in degree p but not in p + 1 or in p - 1
        zero = FpAbGroup.zero()
        acyclic = PlainChainComplex(0, 1, {0: Z, 1: Z},
                                    {1: AbHom.identity(Z)})
        to_zero = ChainMap(acyclic, complex_concentrated(zero, 0), {})
        z = complex_concentrated(Z, 0)
        mod2 = PlainChainComplex(0, 1, {0: Z, 1: Z}, {1: one_by_one(Z, Z, 2)})
        upper = PlainChainComplex(0, 1, {0: zero, 1: Z},
                                  {1: AbHom.zero(Z, zero)})
        cases = [(to_zero, 0, ISO), (to_zero, 1, ISO),
                 (ChainMap(z, z, {0: one_by_one(Z, Z, 2)}), 0, ALMOST_ISO),
                 (ChainMap(z, z, {0: AbHom.zero(Z, Z)}), 0, NEITHER),
                 (ChainMap(mod2, acyclic, {0: AbHom.identity(Z),
                                           1: one_by_one(Z, Z, 2)}),
                  0, ALMOST_ISO),
                 (ChainMap(acyclic, upper, {1: AbHom.identity(Z)}), 1,
                  NEITHER)]
        for t, p, kind in cases:
            isos = {}
            got = verify_mod.classify_comparison_degree(t, p, isos)
            assert not all(isos.values())
            assert got == classify_map(induced_map_on_homology(t, p))
            assert got.kind == kind
        doubling = verify_mod.classify_comparison_degree(cases[2][0], 0, {})
        assert doubling.annihilator == 2
        assert doubling.cokernel == FpAbGroup.cyclic(2)

    def test_mixed_mode_warns(self):
        inst = instance_z2_reflection()
        with pytest.warns(UserWarning, match="mixed modes"):
            rep = verify_comparison(inst, mode=ALMOST)
        assert rep.mode == ALMOST
        assert rep.passed

    def test_truncated_window_refused(self):
        inst = instance_z2_reflection()
        marked = TheoremInstance(inst.index_cat, inst.free_complex,
                                 inst.group, inst.family, inst.space,
                                 inst.coefficients, 2, 2,
                                 coeff_truncated=True)
        with pytest.raises(ValueError, match="unreliable"):
            verify_comparison(marked)

    @pytest.mark.parametrize("kind, strict, almost", [
        (ISO, True, True), (ALMOST_ISO, False, True), (NEITHER, False, False)])
    def test_degree_pass_rule(self, kind, strict, almost):
        assert verify_mod.degree_passes(kind, STRICT) is strict
        assert verify_mod.degree_passes(kind, ALMOST) is almost

    def test_mode_decides_an_almost_isomorphism(self, monkeypatch):
        # every degree classified almost-isomorphism: strict mode fails the
        # comparison and almost mode passes it
        z2 = FpAbGroup.cyclic(2)
        monkeypatch.setattr(verify_mod, "classify_comparison_degree",
                            lambda t, p, isos: verify_mod
                            .MapClass(ALMOST_ISO, z2, z2, 2))
        inst = instance_z2_reflection()
        assert inst.mode == STRICT
        assert not verify_comparison(inst).passed
        with pytest.warns(UserWarning, match="mixed modes"):
            assert verify_comparison(inst, mode=ALMOST).passed

    def test_classify_map_kinds(self):
        assert classify_map(one_by_one(Z, Z, 1)).kind == ISO
        doubling = classify_map(one_by_one(Z, Z, 2))
        assert doubling.kind == ALMOST_ISO
        assert doubling.annihilator == 2
        assert doubling.cokernel == FpAbGroup.cyclic(2)
        collapse = classify_map(one_by_one(Z, Z, 0))
        assert collapse.kind == NEITHER
        assert collapse.annihilator is None


class TestEngineeredDefects:
    def test_padded_degree_detected(self):
        rep = check_hypotheses(with_padded_degree(instance_z2_reflection()))
        assert not rep.a.passed
        assert rep.a.witnesses == (3,)
        assert not rep.passed

    def test_inflated_floor_detected(self):
        rep = check_hypotheses(with_inflated_floor(instance_z2_reflection()))
        assert not rep.b.passed
        assert not rep.passed
        degrees = {q for _, _, q, _ in rep.b.witnesses}
        assert degrees == {0}
        groups = {grp for _, _, _, grp in rep.b.witnesses}
        assert groups == {Z}

    @pytest.mark.parametrize("variant", [with_padded_degree,
                                         with_inflated_floor])
    def test_variants_keep_the_truncation_flag(self, variant):
        inst = instance_z2_reflection(3)
        marked = TheoremInstance(inst.index_cat, inst.free_complex,
                                 inst.group, inst.family, inst.space,
                                 inst.coefficients, inst.top_degree,
                                 inst.through_degree, inst.vanishing_floor,
                                 inst.mode, coeff_truncated=True)
        moved = variant(marked)
        assert moved.coeff_truncated
        with pytest.raises(ValueError, match="unreliable"):
            verify_comparison(moved)

    def test_twisted_system_fails_factorization(self):
        idx = standard_category("chain", 1)
        group, family, e = twisted_coefficient_system(idx)
        rep = sub_factorization_check(group, family, e)
        assert not rep.passed
        assert rep.violations
        for i, ref, other, q in rep.violations:
            assert ref != other
            assert q == 0

    def test_clean_instance_passes_factorization(self):
        inst = instance_z2_reflection()
        rep = sub_factorization_check(inst.group, inst.family,
                                      inst.coefficients)
        assert rep.passed
        assert rep.classes_checked >= 1
        assert rep.violations == ()

    def test_hexagon_passes_factorization(self):
        inst = instance_s3_hexagon()
        rep = sub_factorization_check(inst.group, inst.family,
                                      inst.coefficients)
        assert rep.passed

    def test_factorization_builds_homology_once_per_complex_and_degree(
            self, monkeypatch):
        # constant coefficients: every collapsed pair acts by equal
        # components between the same complexes, so no homology is built at
        # all; the sign system below keeps the once-per-complex bound
        inst = instance_s3_hexagon(4)
        calls = count_homology_builds(monkeypatch)
        rep = sub_factorization_check(inst.group, inst.family,
                                      inst.coefficients)
        assert rep.passed
        assert len(calls) == 0

    def test_factorization_needs_matching_category(self):
        inst = instance_z2_reflection()
        with pytest.raises(ValueError, match="does not match"):
            sub_factorization_check(FinGroup.cyclic(3),
                                    SubgroupFamily.all(FinGroup.cyclic(3)),
                                    inst.coefficients)
        # the same group with another family is refused too; an equal family
        # built apart holds an equal category, which is accepted
        with pytest.raises(ValueError, match="does not match"):
            sub_factorization_check(inst.group,
                                    SubgroupFamily.trivial(inst.group),
                                    inst.coefficients)
        assert sub_factorization_check(inst.group,
                                       SubgroupFamily.all(inst.group),
                                       inst.coefficients).passed

    def test_factorization_induces_each_shared_chain_map_once(
            self, monkeypatch):
        # Z/2 acting by a sign on Z over Or(Z/2, trivial), constant in the
        # index: the two self-maps of the free orbit collapse in the subgroup
        # category but act by +1 and -1, at every one of three index objects
        group = FinGroup.cyclic(2)
        family = SubgroupFamily.trivial(group)
        cat = orbit_category(group, family)
        sign = CatModule(cat, "co", {o: Z for o in cat.objects}, {
            f: AbHom.identity(Z) if cat.is_identity(f)
            else AbHom.identity(Z).negate() for f in cat.morphisms})
        idx = standard_category("chain", 2)
        e = BiFunctorComplex.constant_in_index(
            idx, cat_complex_concentrated(sign, 0))
        calls = []
        real = verify_mod.induced_map_on_homology
        monkeypatch.setattr(verify_mod, "induced_map_on_homology",
                            lambda f, p: calls.append(f) or real(f, p))
        builds = count_homology_builds(monkeypatch)
        rep = sub_factorization_check(group, family, e)
        assert {i for i, _, _, _ in rep.violations} == set(idx.objects)
        assert len(calls) == 2      # two distinct chain maps, one degree
        # homology is built at most once per distinct complex and degree
        complexes = {id(c) for c in e.complexes.values()}
        assert 0 < len(builds) <= len(complexes) * (e.hi - e.lo + 1)


class TestTransportModule:
    def test_values_are_connected_components(self):
        # coset spaces are transitive, so every transport groupoid is
        # connected and every value is a single copy of Z
        group = FinGroup.symmetric(3)
        mod = transport_pi0_module(group, SubgroupFamily.all(group))
        for obj in mod.cat.objects:
            assert mod.value(obj) == Z

    def test_actions_are_identity_on_components(self):
        group = FinGroup.cyclic(2)
        mod = transport_pi0_module(group, SubgroupFamily.all(group))
        for f in mod.cat.morphisms:
            assert mod.action(f).matrix.rows == ((1,),)

    @pytest.mark.parametrize("family", ["all", "trivial"])
    @pytest.mark.parametrize("group", [
        FinGroup.cyclic(2), FinGroup.cyclic(3), hexagon_s3().group,
        FinGroup.dihedral(4), FinGroup.dihedral(6)],
        ids=["c2", "c3", "hexagon-s3", "d4", "d6"])
    def test_constant_module_matches_the_groupoid_walk(self, group, family):
        family = getattr(SubgroupFamily, family)(group)
        mod = transport_pi0_module(group, family)
        walked = walked_pi0_module(group, family)
        assert mod.cat is walked.cat is orbit_category(group, family)
        assert mod.values == walked.values
        assert mod.actions == walked.actions


def walked_pi0_module(group, family):
    """The transport-π0 module built the long way: free on the components of
    the transport groupoid of each coset space, each morphism xH -> x r K
    mapping components to components."""
    cat = orbit_category(group, family)
    comp, values = {}, {}       # per object: the component of each coset
    for obj in cat.objects:
        parts = pi0(transport_groupoid(group, *coset_g_set(group, obj)))
        comp[obj] = {c: k for k, part in enumerate(parts) for c in part}
        values[obj] = FpAbGroup.free(len(parts))
    actions = {}
    for f in cat.morphisms:
        h_lab, k_lab, coset = f
        move = {}
        for c, k in sorted(comp[h_lab].items()):
            image = comp[k_lab][_coset_label(
                group, group.mult(min(c), min(coset)), k_lab)]
            assert move.setdefault(k, image) == image   # constant on parts
        actions[f] = AbHom(values[h_lab], values[k_lab], IntMatrix.selection(
            values[k_lab].ngens, [move[k] for k in range(len(move))]))
    return CatModule(cat, "co", values, actions)


class TestSeqSpecValidation:
    def test_empty_prefix_rejected(self):
        with pytest.raises(ValueError, match="nonempty"):
            GradedSeqSpec((), ("bounded-by", 0), (0,), ("bounded-by", 0),
                          {}, 0, 0)

    def test_non_monotone_prefix_rejected(self):
        with pytest.raises(ValueError, match="monotone"):
            GradedSeqSpec((2, 1), ("bounded-by", 3), (0,), ("bounded-by", 0),
                          {}, 0, 0)

    def test_tail_bound_below_prefix_rejected(self):
        with pytest.raises(ValueError, match="below the last prefix"):
            GradedSeqSpec((0, 4), ("bounded-by", 3), (0,), ("bounded-by", 0),
                          {}, 0, 0)

    def test_unknown_tail_tag_rejected(self):
        with pytest.raises(ValueError, match="tail tag"):
            GradedSeqSpec((0,), "eventually-periodic", (0,),
                          ("bounded-by", 0), {}, 0, 0)

    def test_profile_below_floor_rejected(self):
        with pytest.raises(ValueError, match="inconsistent tail tags"):
            GradedSeqSpec((0,), ("bounded-by", 0), (0,), ("bounded-by", 0),
                          {1: FpAbGroup.cyclic(2)}, 3, 0)

    def test_sequence_extension_rules(self):
        spec = GradedSeqSpec((0, 2), ("bounded-by", 4),
                             (1,), "strictly-increasing-unbounded",
                             {}, 0, 0)
        assert [spec.sequence_value("m", i) for i in range(5)] == [0, 2, 4, 4, 4]
        assert [spec.sequence_value("n", j) for j in range(4)] == [1, 2, 3, 4]


class TestInterchange:
    def test_divergent_upper_bounded_lower_surjective(self):
        spec = GradedSeqSpec(
            (0, 1), "strictly-increasing-unbounded",
            (0, 2), ("bounded-by", 5),
            {0: Z, 3: FpAbGroup.cyclic(2)}, 0, 1)
        rep = interchange_criterion(spec)
        assert rep.surjective_symbolic is True
        assert rep.injective and rep.window_iso

    def test_constant_upper_recurring_hit_not_surjective(self):
        spec = GradedSeqSpec(
            (2, 2), ("bounded-by", 2),
            (0, 1, 3), "strictly-increasing-unbounded",
            {2: FpAbGroup.cyclic(4)}, 0, 1)
        rep = interchange_criterion(spec)
        assert rep.surjective_symbolic is False
        assert rep.injective

    def test_both_unbounded_undecided(self):
        spec = GradedSeqSpec(
            (0,), "strictly-increasing-unbounded",
            (0,), "strictly-increasing-unbounded",
            {5: FpAbGroup.cyclic(3)}, 2, 0)
        rep = interchange_criterion(spec)
        assert rep.surjective_symbolic is None

    def test_bounded_tails_straddling_support_undecided(self):
        # the upper limit settles at 1 or 2; only one of the two shifted
        # degrees lands on the support, so the tags cannot decide
        spec = GradedSeqSpec(
            (1, 1), ("bounded-by", 2),
            (0,), ("bounded-by", 0),
            {0: FpAbGroup.cyclic(2)}, 0, 1)
        rep = interchange_criterion(spec)
        assert rep.surjective_symbolic is None

    def test_bounded_tails_clear_of_support_surjective(self):
        spec = GradedSeqSpec(
            (4, 4), ("bounded-by", 4),
            (0,), ("bounded-by", 1),
            {5: FpAbGroup.cyclic(2)}, 0, 0)
        rep = interchange_criterion(spec)
        assert rep.surjective_symbolic is True

    def test_bounded_tails_certain_hit_not_surjective(self):
        # the upper limit is 1 or 2; the certain lower value 3 shifts onto
        # the support either way (3-1=2, 3-2=1)
        spec = GradedSeqSpec(
            (1, 1), ("bounded-by", 2),
            (3,), ("bounded-by", 5),
            {1: FpAbGroup.cyclic(2), 2: FpAbGroup.cyclic(2)}, 0, 0)
        rep = interchange_criterion(spec)
        assert rep.surjective_symbolic is False

    def test_window_groups_match_up_to_reorder(self):
        spec = GradedSeqSpec(
            (0, 1), ("bounded-by", 2),
            (0, 1), ("bounded-by", 3),
            {0: FpAbGroup.cyclic(2), 1: Z, 2: FpAbGroup.cyclic(6)}, 0, 0)
        rep = interchange_criterion(spec, window=(4, 5))
        assert rep.window == (4, 5)
        assert rep.window_iso
        assert rep.source == rep.target

    def test_window_past_the_bound_rejected(self):
        spec = GradedSeqSpec((0,), ("bounded-by", 0), (0,),
                             ("bounded-by", 0),
                             {0: FpAbGroup.from_invariants(2, ())}, 0, 0)
        with pytest.raises(ValueError, match="index pairs"):
            interchange_criterion(spec, window=(10 ** 9, 10 ** 9))
        # 16 x 17 pairs, each Z^2: 544 generators
        with pytest.raises(ValueError, match="generators"):
            interchange_criterion(spec, window=(16, 17))
        assert interchange_criterion(spec, window=(10, 10)).window_iso

    def test_degenerate_window_rejected(self):
        spec = GradedSeqSpec((0,), ("bounded-by", 0), (0,),
                             ("bounded-by", 0), {}, 0, 0)
        with pytest.raises(ValueError, match="at least one"):
            interchange_criterion(spec, window=(0, 3))


class TestTorProbe:
    def test_diagonal_witness_order(self):
        # the diagonal has a generator in each Z/2^n for n = 2..N, so its
        # order is 2^N; checked for every N up to 8
        for n_top in range(2, 9):
            rep = tor_interchange_probe(2, 4, n_top)
            assert rep.delta_order == 2 ** n_top

    def test_membership_exactly_when_block_reaches(self):
        for m_top in range(2, 6):
            for n_top in range(2, 6):
                rep = tor_interchange_probe(2, m_top, n_top)
                assert rep.membership == (m_top >= n_top)
                assert rep.membership_boundary

    def test_window_is_isomorphism(self):
        rep = tor_interchange_probe(3, 4, 3)
        assert rep.window_iso
        assert rep.top_order_bound == 27

    def test_odd_prime(self):
        rep = tor_interchange_probe(3, 2, 5)
        assert rep.delta_order == 3 ** 5
        assert not rep.membership

    def test_composite_rejected(self):
        with pytest.raises(ValueError, match="not prime"):
            tor_interchange_probe(6, 3, 3)

    def test_bounds_rejected(self):
        with pytest.raises(ValueError, match="bounds exceeded"):
            tor_interchange_probe(2, 1, 5)
        with pytest.raises(ValueError, match="bounds exceeded"):
            tor_interchange_probe(2, 3, 17)


class TestBorelVsQuotient:
    def test_fixed_point_free_action_trivial_discrepancy(self):
        group = FinGroup.cyclic(2)
        rep = borel_vs_quotient_check(group, free_orbit_points(group), 4)
        assert rep.passed
        for ker, coker, _, ok in rep.per_degree.values():
            assert ker.is_trivial() and coker.is_trivial() and ok

    def test_one_point_space_kernel_pattern(self):
        # kernels are the positive-degree classifying-space homology of Z/2:
        # Z/2 in odd degrees, zero in positive even degrees
        group = FinGroup.cyclic(2)
        rep = borel_vs_quotient_check(group, point_space(group), 5)
        assert rep.passed
        assert rep.valid_through == 4
        for p, (ker, coker, ann, ok) in rep.per_degree.items():
            expected = FpAbGroup.cyclic(2) if p % 2 else FpAbGroup.zero()
            assert ker == expected
            assert coker.is_trivial()
            assert ok

    def test_each_distinct_induced_map_is_classified_once(self, monkeypatch):
        # over the point, degrees 2 and 4 induce one map, 1, 3 and 5 another
        # (H_p is Z/2 onto 0): three classifications for six degrees
        calls = []
        real = verify_mod.classify_map
        monkeypatch.setattr(verify_mod, "classify_map",
                            lambda f: calls.append(f) or real(f))
        group = FinGroup.cyclic(2)
        rep = borel_vs_quotient_check(group, point_space(group), 6)
        assert sorted(rep.per_degree) == [0, 1, 2, 3, 4, 5]
        assert len(calls) == len(set(calls)) == 3

    def test_explicit_annihilators(self):
        group = FinGroup.cyclic(2)
        rep = borel_vs_quotient_check(group, point_space(group), 5,
                                      annihilators={1: 2, 3: 2})
        assert rep.passed
        assert sorted(rep.per_degree) == [1, 3]

    def test_insufficient_annihilator_fails(self):
        group = FinGroup.cyclic(2)
        rep = borel_vs_quotient_check(group, point_space(group), 4,
                                      annihilators={1: 3})
        assert not rep.passed

    def test_truncation_too_small(self):
        group = FinGroup.cyclic(2)
        with pytest.raises(ValueError, match="truncation too small"):
            borel_vs_quotient_check(group, point_space(group), 3,
                                    annihilators={5: 32})


class TestModelFeed:
    def test_rf_model_feeds_the_instance(self):
        # the desk instances consume the staircase window directly; pin the
        # degree support the hypothesis check sees
        model = classifying_model("RF", 3)
        cx = cellular_chain_complex(model)
        ranks = [cx.module(p).total_rank() for p in range(4)]
        assert ranks[3] == 0
        assert ranks[0] > 0 and ranks[1] > 0 and ranks[2] > 0
