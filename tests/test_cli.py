"""Manifest codecs, command dispatch, exit codes, and report stability.

The shipped scenario file doubles as a fixture: parsing it, verifying it,
and checking the report bytes do not drift between runs.
"""

import ast
import copy
import gc
import hashlib
import importlib.resources
import json
import os
import signal
import subprocess
import sys
import time

import pytest

import orbifunctor
from orbifunctor.catmod import CatModule, constant_module, validate_module
from orbifunctor.exact_abelian import AbHom, FpAbGroup, IntMatrix
from orbifunctor.fincat import (
    FinGroup,
    SubgroupFamily,
    orbit_category,
    standard_category,
)
from orbifunctor.cellspaces import (
    antipodal_circle,
    bar_resolution_truncated,
    classifying_model,
    hexagon_s3,
    point_space,
    reflection_circle,
)
from orbifunctor.chainplex import (
    ChainMap,
    PlainChainComplex,
    validate_bifunctor,
)
from orbifunctor.verify import GradedSeqSpec, transport_pi0_module
from orbifunctor.cli import (
    ManifestError,
    Report,
    decode_abelian,
    decode_bifunctor,
    decode_category,
    decode_family,
    decode_functor_complex,
    decode_gcw,
    decode_group,
    decode_icw,
    decode_matrix,
    decode_module,
    decode_plain_complex,
    decode_seqspec,
    encode_abelian,
    encode_bifunctor,
    encode_category,
    encode_family,
    encode_functor_complex,
    encode_gcw,
    encode_group,
    encode_icw,
    encode_matrix,
    encode_module,
    encode_plain_complex,
    encode_seqspec,
    main,
    parse_manifest,
    run,
)


def shipped_text():
    ref = importlib.resources.files("orbifunctor") / "manifests" \
        / "z2_reflection_sphere.json"
    return ref.read_text(encoding="utf-8")


def write_manifest(tmp_path, data, name="m.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data), encoding="utf-8")
    return str(path)


def hexagon_desk_manifest():
    """The shipped manifest's instance with the hexagon and its six
    symmetries in place of the reflection circle."""
    x = hexagon_s3()
    return {**json.loads(shipped_text()), "group": encode_group(x.group),
            "gcw": encode_gcw(x)}


TRIVIAL_BASE = {"version": "1", "group": {"kind": "trivial"},
                "category": {"kind": "one-object"}}


def cyclic_module(variance, t):
    return {"variance": variance,
            "values": [{"rank": "0", "torsion": [str(t)]}],
            "actions": [{"nrows": "1", "ncols": "1", "rows": [["1"]]}]}


class TestParsing:
    def test_shipped_manifest_parses(self):
        m = parse_manifest(shipped_text())
        assert m.get("instance") is not None
        assert len(m.get("family")) == 2

    @pytest.mark.parametrize("manifest", ["shipped", "hexagon"])
    def test_one_index_category_per_manifest(self, manifest):
        # the classifying model's grid is the category section's object, so
        # no later check walks two composition tables
        data = json.loads(shipped_text()) if manifest == "shipped" \
            else hexagon_desk_manifest()
        m = parse_manifest(json.dumps(data))
        inst = m.get("instance")
        assert inst.free_complex.base is inst.index_cat \
            is inst.coefficients.index_base is m.get("category")
        # a category section that is not the model's base stays apart
        data["category"]["size"] = str(int(data["category"]["size"]) + 1)
        del data["instance"]
        m = parse_manifest(json.dumps(data))
        assert m.get("icw").base != m.get("category")

    def test_classifying_model_builds_over_the_named_category(
            self, monkeypatch):
        # a category section that names the model's standard category is
        # its base, and the model builds none of its own; an explicit
        # section equal to the grid is built once more and then shared; a
        # section of another size is refused by the instance as before
        import orbifunctor.cellspaces as cellspaces
        calls = []
        real = cellspaces.standard_category
        monkeypatch.setattr(cellspaces, "standard_category",
                            lambda *args: calls.append(args) or real(*args))
        data = json.loads(shipped_text())
        m = parse_manifest(json.dumps(data))
        assert calls == [] and m.get("icw").base is m.get("category")
        data["category"] = encode_category(m.get("category"))
        m = parse_manifest(json.dumps(data))
        assert calls == [("grid", 3)]
        assert m.get("icw").base is m.get("category")
        data["category"] = {"kind": "grid", "size": "4"}
        with pytest.raises(ManifestError,
                           match="does not live over the index category"):
            parse_manifest(json.dumps(data))
        assert calls[1:] == [("grid", 3)]

    def test_unknown_section_named(self):
        with pytest.raises(ManifestError, match="unknown section 'cohomology'"):
            parse_manifest('{"cohomology": {}}')

    def test_syntax_error_reports_line(self):
        with pytest.raises(ManifestError, match="line 2"):
            parse_manifest('{\n  "group": }')

    def test_dangling_family_reference(self):
        with pytest.raises(ManifestError, match="no group section"):
            parse_manifest('{"family": {"kind": "all"}}')

    def test_dangling_module_reference(self):
        with pytest.raises(ManifestError, match="no category section"):
            parse_manifest('{"module": {"left": {}}}')

    def test_bad_decimal_pinpoints_field(self):
        with pytest.raises(ManifestError, match="group.n"):
            parse_manifest('{"group": {"kind": "cyclic", "n": "two"}}')

    def test_minimal_manifest(self):
        m = parse_manifest(json.dumps({
            "version": "1",
            "group": {"kind": "trivial"},
            "gcw": {"cells": {"0": [[0]]}, "boundary": []}}))
        assert m.get("gcw").cell_count(0) == 1

    def test_non_object_manifest(self):
        with pytest.raises(ManifestError, match="JSON object"):
            parse_manifest('[1, 2]')

    def test_validation_delegated(self):
        bad = {"group": {"kind": "cyclic", "n": "2"},
               "family": {"kind": "members", "members": [[0, 1]]}}
        # the family is not closed under passing to subgroups
        with pytest.raises(ManifestError, match="family"):
            parse_manifest(json.dumps(bad))


class TestRoundTrip:
    def test_group(self):
        for group in (FinGroup.cyclic(4), FinGroup.symmetric(3),
                      FinGroup.dihedral(3)):
            back = decode_group(encode_group(group), "group")
            assert back.elements == group.elements
            assert back.table == group.table
            assert back.identity == group.identity

    def test_family(self):
        group = FinGroup.symmetric(3)
        fam = SubgroupFamily.all(group)
        back = decode_family(encode_family(fam), "family", group)
        assert back.members == fam.members

    def test_category(self):
        for cat in (standard_category("chain", 2),
                    standard_category("grid", 2),
                    orbit_category(FinGroup.cyclic(2),
                                   SubgroupFamily.all(FinGroup.cyclic(2)))):
            assert decode_category(encode_category(cat), "category", {}) == cat

    def test_abelian_and_matrix(self):
        g = FpAbGroup(2, (2, 4))
        assert decode_abelian(encode_abelian(g), "g") == g
        m = IntMatrix.from_rows([[1, -3, 0], [7, 2, 5]])
        assert decode_matrix(encode_matrix(m), "m") == m

    def test_module(self):
        group = FinGroup.cyclic(2)
        mod = transport_pi0_module(group, SubgroupFamily.all(group))
        back = decode_module(encode_module(mod), "module", mod.cat)
        assert back.variance == mod.variance
        for obj in mod.cat.objects:
            assert back.value(obj) == mod.value(obj)
        for f in mod.cat.morphisms:
            assert back.action(f) == mod.action(f)

    def test_plain_complex(self):
        from orbifunctor.cellspaces import cellular_chain_complex
        cx = classifying_model("RF", 2)
        evaluated = cellular_chain_complex(cx).evaluate_at(0)
        back = decode_plain_complex(encode_plain_complex(evaluated), "c")
        assert (back.lo, back.hi) == (evaluated.lo, evaluated.hi)
        for p in evaluated.degrees():
            assert back.group(p) == evaluated.group(p)
            if p > evaluated.lo:
                assert back.differential(p) == evaluated.differential(p)

    def test_functor_complex(self):
        from orbifunctor.cellspaces import fixed_point_chains
        x = reflection_circle()
        chains = fixed_point_chains(x, SubgroupFamily.all(x.group))
        back = decode_functor_complex(
            encode_functor_complex(chains), "c", chains.base)
        assert back.variance == chains.variance
        for p in chains.degrees():
            mod = chains.module(p)
            for obj in chains.base.objects:
                assert back.module(p).value(obj) == mod.value(obj)
            if p > chains.lo:
                for obj in chains.base.objects:
                    assert (back.diff(p).components[obj]
                            == chains.diff(p).components[obj])

    def test_icw(self):
        model = classifying_model("RF", 3)
        back = decode_icw(encode_icw(model), "icw", {"category": model.base})
        assert back.cells == model.cells
        assert back.boundary == model.boundary
        assert back.truncation_valid == model.truncation_valid

    def test_gcw(self):
        x = reflection_circle()
        back = decode_gcw(encode_gcw(x), "gcw", {"group": x.group})
        assert back.cells == x.cells
        assert back.boundary == x.boundary

    def test_bifunctor(self):
        from orbifunctor.verify import twisted_coefficient_system
        idx = standard_category("chain", 1)
        group, family, e = twisted_coefficient_system(idx)
        ctx = {"group": group, "family": family, "category": idx}
        back = decode_bifunctor(encode_bifunctor(e), "bifunctor", ctx)
        assert set(back.complexes) == set(e.complexes)
        for key in e.index_action:
            assert (back.index_action[key].components
                    == e.index_action[key].components)
        for key in e.coeff_action:
            assert (back.coeff_action[key].components
                    == e.coeff_action[key].components)

    def test_seqspec(self):
        spec = GradedSeqSpec((0, 1), "strictly-increasing-unbounded",
                             (2,), ("bounded-by", 7),
                             {3: FpAbGroup.cyclic(6)}, 1, 2)
        back = decode_seqspec(encode_seqspec(spec), "s")
        assert back.m_prefix == spec.m_prefix
        assert back.m_tail == spec.m_tail
        assert back.n_tail == spec.n_tail
        assert back.profile == spec.profile
        assert back.degree == spec.degree

    def test_shipped_manifest_reencodes(self):
        m = parse_manifest(shipped_text())
        again = decode_gcw(encode_gcw(m.get("gcw")), "gcw",
                           {"group": m.get("group")})
        assert again.cells == m.get("gcw").cells


class TestCommands:
    def test_verify_theorem_passes(self, tmp_path):
        path = write_manifest(tmp_path, json.loads(shipped_text()))
        assert main(["verify-theorem", "--manifest", path]) == 0

    def test_verify_theorem_defect_fails(self, tmp_path):
        data = json.loads(shipped_text())
        data["instance"]["top_degree"] = "1"
        data["instance"]["through_degree"] = "1"
        path = write_manifest(tmp_path, data)
        assert main(["verify-theorem", "--manifest", path]) == 1

    @pytest.mark.parametrize("degree", ["99999999999999999999", "40", "3", "-1"])
    def test_through_degree_out_of_range_rejected(self, tmp_path, degree):
        # the shipped totals end in degree 1, so conclusions stop at 2
        data = json.loads(shipped_text())
        data["instance"]["through_degree"] = degree
        path = write_manifest(tmp_path, data)
        start = time.perf_counter()
        assert main(["verify-theorem", "--manifest", path]) == 2
        assert time.perf_counter() - start < 5

    def test_tor_past_the_resolution_bound_refused(self, tmp_path):
        # constant Z resolves over Or(S_3, all) with total ranks 34, 164 and
        # 812 in degrees 0-2; Tor_2 needs the kernel on degree 2
        g = FinGroup.symmetric(3)
        cat = orbit_category(g, SubgroupFamily.all(g))
        path = write_manifest(tmp_path, {
            "version": "1", "group": encode_group(g),
            "family": {"kind": "all"}, "category": {"kind": "orbit"},
            "module": {
                "left": encode_module(constant_module(
                    cat, FpAbGroup.free(1), "contra")),
                "right": encode_module(constant_module(
                    cat, FpAbGroup.cyclic(2), "co"))}})
        start = time.perf_counter()
        assert main(["tor", "--degree", "2", "--manifest", path]) == 2
        assert time.perf_counter() - start < 1

    def test_validate_shipped(self, tmp_path):
        path = write_manifest(tmp_path, json.loads(shipped_text()))
        assert main(["validate", "--manifest", path]) == 0

    def test_tensor_hom_tor_values(self):
        m = parse_manifest(json.dumps({
            **TRIVIAL_BASE,
            "module": {"left": cyclic_module("contra", 4),
                       "right": cyclic_module("co", 6)}}))
        assert run("tensor", m).groups[0]["value"] == "Z/2"
        assert run("tor", m).groups[0]["value"] == "Z/2"
        m2 = parse_manifest(json.dumps({
            **TRIVIAL_BASE,
            "module": {"left": cyclic_module("co", 4),
                       "right": cyclic_module("co", 6)}}))
        assert run("hom", m2).groups[0]["value"] == "Z/2"

    def test_homology_plain(self):
        m = parse_manifest(json.dumps({
            "version": "1",
            "complex": {"kind": "plain", "lo": "0", "hi": "1",
                        "groups": {"0": {"rank": "1", "torsion": []},
                                   "1": {"rank": "1", "torsion": []}},
                        "diffs": {"1": {"nrows": "1", "ncols": "1",
                                        "rows": [["3"]]}}}}))
        rep = run("homology", m)
        values = {g["name"]: g["value"] for g in rep.groups}
        assert values == {"H_0": "Z/3", "H_1": "0"}

    def test_bredon_point_gives_value_at_full_orbit(self):
        # one fixed point: Bredon H_0 is the coefficient value at G/G
        m = parse_manifest(json.dumps({
            "version": "1",
            "group": {"kind": "cyclic", "n": "2"},
            "family": {"kind": "all"},
            "category": {"kind": "orbit"},
            "module": {"coefficients": {
                "variance": "co",
                "values": [{"rank": "2", "torsion": []},
                           {"rank": "0", "torsion": ["5"]}],
                "actions": [
                    {"nrows": "2", "ncols": "2",
                     "rows": [["1", "0"], ["0", "1"]]},
                    {"nrows": "2", "ncols": "2",
                     "rows": [["0", "1"], ["1", "0"]]},
                    {"nrows": "1", "ncols": "2", "rows": [["1", "1"]]},
                    {"nrows": "1", "ncols": "1", "rows": [["1"]]}]}},
            "gcw": {"cells": {"0": [[0, 1]]}, "boundary": []}}))
        rep = run("bredon", m)
        assert rep.groups == [{"name": "H_0", "value": "Z/5"}]

    def test_bredon_builds_one_total_for_every_degree(self, monkeypatch):
        # degrees 0..dim of the hexagon read one coefficient complex
        import orbifunctor.chainplex as chainplex
        builds = []
        init = chainplex.TotalTensorComplex.__init__

        def counted(self, *args):
            builds.append(self)
            init(self, *args)
        monkeypatch.setattr(chainplex.TotalTensorComplex, "__init__", counted)
        manifest = parse_manifest(json.dumps(bredon_hexagon_manifest()))
        rep = run("bredon", manifest)
        assert rep.groups == [{"name": "H_0", "value": "Z"},
                              {"name": "H_1", "value": "0"}]
        assert len(builds) == 1

    def test_bredon_needs_named_module(self, tmp_path):
        data = {"version": "1", "group": {"kind": "cyclic", "n": "2"},
                "family": {"kind": "all"}, "category": {"kind": "orbit"},
                "module": {"left": cyclic_module("co", 3)},
                "gcw": {"cells": {"0": [[0, 1]]}, "boundary": []}}
        # the module section parses (orbit category has 4 morphisms, so the
        # single-action spec is rejected first)
        path = write_manifest(tmp_path, data)
        assert main(["bredon", "--manifest", path]) == 2

    def test_missing_section_is_input_error(self, tmp_path):
        path = write_manifest(tmp_path, {"version": "1",
                                         "group": {"kind": "trivial"}})
        assert main(["homology", "--manifest", path]) == 2

    def test_missing_manifest_flag(self):
        assert main(["homology"]) == 2

    def test_unreadable_manifest_path(self):
        assert main(["validate", "--manifest", "/nonexistent/x.json"]) == 2

    def test_unknown_command_rejected_by_run(self):
        with pytest.raises(ManifestError, match="unknown command"):
            run("transmogrify", None)

    def test_demo_commands_need_no_manifest(self):
        assert run("demo-interchange", None).passed
        assert run("demo-classifying", None).passed

    def test_demo_interchange_reads_sequences(self):
        m = parse_manifest(json.dumps({
            "version": "1",
            "sequences": {"race": {
                "m_prefix": ["0"],
                "m_tail": "strictly-increasing-unbounded",
                "n_prefix": ["0"],
                "n_tail": "strictly-increasing-unbounded",
                "profile": {"4": {"rank": "0", "torsion": ["2"]}},
                "profile_floor": "0", "degree": "0"}}}))
        rep = run("demo-interchange", m)
        assert any("race" in v["name"] and "undecided" in v["name"]
                   for v in rep.verdicts)

    def test_borel_check_needs_truncation(self, tmp_path):
        path = write_manifest(tmp_path, json.loads(shipped_text()))
        assert main(["borel-check", "--manifest", path]) == 2
        assert main(["borel-check", "--manifest", path,
                     "--truncation", "4"]) == 0


def borel_manifest(space, n=2):
    """A borel-check manifest for a space over the cyclic group of order n."""
    return {"version": "1", "group": {"kind": "cyclic", "n": str(n)},
            "gcw": encode_gcw(space)}


def c2_torsion_module(variance, at_free, at_fixed, swap, along):
    """A module over Or(C_2, all) given by its values at the free orbit and
    the fixed point, the matrix of the swap and that of the projection
    (free orbit to fixed point, read backwards when contravariant)."""
    g = FinGroup.cyclic(2)
    cat = orbit_category(g, SubgroupFamily.all(g))
    free_orbit, fixed = cat.objects
    values = {free_orbit: at_free, fixed: at_fixed}
    actions = {}
    for f in cat.morphisms:
        if cat.is_identity(f):
            actions[f] = AbHom.identity(values[cat.dom[f]])
        elif cat.cod[f] == free_orbit:
            actions[f] = AbHom(at_free, at_free, IntMatrix.from_rows(swap))
        elif variance == "co":
            actions[f] = AbHom(at_free, at_fixed, IntMatrix.from_rows(along))
        else:
            actions[f] = AbHom(at_fixed, at_free, IntMatrix.from_rows(along))
    return CatModule(cat, variance, values, actions)


def c2_torsion_manifest(left_variance, right_variance):
    """Over Or(C_2, all), two modules with torsion, a sign action and no free
    marker: the left one Z/4 at the free orbit (the swap acting by -1) over
    Z/2 at the fixed point, the right one Z ⊕ Z/6 (the swap negating Z/6)
    over Z/2 (covariant) or Z ⊕ Z/2 (contravariant)."""
    z2, z4 = FpAbGroup.cyclic(2), FpAbGroup.cyclic(4)
    left = (c2_torsion_module("co", z4, z2, [[-1]], [[1]])
            if left_variance == "co" else
            c2_torsion_module("contra", z4, z2, [[-1]], [[2]]))
    z_z6 = FpAbGroup.from_invariants(1, (6,))
    right = (c2_torsion_module("co", z_z6, z2, [[1, 0], [0, -1]],
                               [[1, 1]])
             if right_variance == "co" else
             c2_torsion_module("contra", z_z6,
                               FpAbGroup.from_invariants(1, (2,)),
                               [[1, 0], [0, -1]], [[2, 0], [0, 3]]))
    return {"version": "1", "group": {"kind": "cyclic", "n": "2"},
            "family": {"kind": "all"}, "category": {"kind": "orbit"},
            "module": {"left": encode_module(left),
                       "right": encode_module(right)}}


def bredon_hexagon_manifest():
    """The hexagon over Or(S_3, all) with constant Z coefficients."""
    x = hexagon_s3()
    cat = orbit_category(x.group, SubgroupFamily.all(x.group))
    return {"version": "1", "group": encode_group(x.group),
            "family": {"kind": "all"}, "category": {"kind": "orbit"},
            "module": {"coefficients": encode_module(
                constant_module(cat, FpAbGroup.free(1), "co"))},
            "gcw": encode_gcw(x)}


# SHA-256 of the report each command line writes: (manifest, arguments,
# digest).  Reports are the same bytes on every run, so a refactor that keeps
# them keeps these digests.
PINNED_REPORTS = {
    "verify-theorem-shipped": (
        lambda: json.loads(shipped_text()), ["verify-theorem"],
        "30578e0593254cdfa30f86f1080bbca322cd67c2d783ec94c0f6f873a4b2f0a6"),
    "verify-theorem-hexagon": (
        hexagon_desk_manifest, ["verify-theorem"],
        "c08ceabc8ce832a60d490487c9fc3ee7df4e1cf088f828161e4b45febf7560e6"),
    "borel-check-c2-point-t6": (
        lambda: borel_manifest(point_space(FinGroup.cyclic(2))),
        ["borel-check", "--truncation", "6"],
        "6d7c0ab1c4574a82d3132015634b0a0849345690cf5d4f174b91e41c7b143af7"),
    "borel-check-c2-reflection-t5": (
        lambda: borel_manifest(reflection_circle()),
        ["borel-check", "--truncation", "5"],
        "604d60dc96f39ed3d1d70c920aceb257fc604419b1bef826573ef719d46bb679"),
    "borel-check-c2-antipodal-t5": (
        lambda: borel_manifest(antipodal_circle()),
        ["borel-check", "--truncation", "5"],
        "641815fda9eae5f71766819c58bb67e8430c055f970a0432dfc5f5c5258ac9ee"),
    "borel-check-c3-point-t4": (
        lambda: borel_manifest(point_space(FinGroup.cyclic(3)), 3),
        ["borel-check", "--truncation", "4"],
        "2bf41764810be9fee04678fb69e21820a0a292d8958a09469802a1d93a624189"),
    "bredon-hexagon-constant-z": (
        bredon_hexagon_manifest, ["bredon"],
        "3fd7e1a426070c39311da94bc6d2b8d4635b56172d141cc44f8405c8dc045af4"),
    "tensor-c2-torsion": (
        lambda: c2_torsion_manifest("contra", "co"), ["tensor"],
        "76371ddb8f7be0c8a14a87dd228cea09b9c7a9cbda0dbfeab7623bf08d28d515"),
    "hom-c2-torsion-co": (
        lambda: c2_torsion_manifest("co", "co"), ["hom"],
        "7f19f8c3fed6601a8a39a7deae4b5f2ed490b7c90027994786c2137682483a38"),
    "hom-c2-torsion-contra": (
        lambda: c2_torsion_manifest("contra", "contra"), ["hom"],
        "a897dcb53c88caaf4ca1ae9b6524ce64ebc4cfe627b756ad9e3d183a1cbd0f2f"),
    "tor-1-c2-torsion": (
        lambda: c2_torsion_manifest("contra", "co"), ["tor"],
        "c0741d89b2f8e01352169e92f9b79831c62c583a72cbf32b960e8b112980ff60"),
    "tor-2-c2-torsion": (
        lambda: c2_torsion_manifest("contra", "co"), ["tor", "--degree", "2"],
        "f2a27082946e2bf02733954a74ec0a7354ee06a4214a37675308b02559dd9d9b"),
}


class TestReports:
    @pytest.mark.parametrize("variances", [("co", "co"), ("contra", "co"),
                                           ("contra", "contra")])
    def test_pinned_c2_modules_are_functors(self, variances):
        m = parse_manifest(json.dumps(c2_torsion_manifest(*variances)))
        for module in m.get("module").values():
            assert validate_module(module) == []
            assert not module.is_free_marked()

    @pytest.mark.parametrize("case", sorted(PINNED_REPORTS))
    def test_report_bytes_match_the_pinned_digest(self, tmp_path, case):
        manifest, argv, digest = PINNED_REPORTS[case]
        out = tmp_path / "r.json"
        assert main(argv + ["--manifest", write_manifest(tmp_path, manifest()),
                            "--report", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    @pytest.mark.parametrize("filled", [False, True])
    def test_report_text_is_json_dumps_indented(self, filled):
        # the report is written directly; json.dumps with the same settings
        # is its reference, on escapes, non-ASCII text, empty and non-string
        # fields
        rep = Report("verify-theorem", None if filled else "builtin")
        if filled:
            rep.verdict("quote \" and backslash \\", True, "tab\tnewline\n")
            rep.verdict("Z ⊕ Z/2 — ünïcode", False)
            rep.verdicts.append({"name": "count", "passed": True, "detail": 3})
            rep.witness("control \x01 and \u2028")
            rep.witness(("tuple", 1))
            rep.group("H_1", FpAbGroup.from_invariants(1, (2,)))
        doc = {"command": rep.command, "inputs": rep.digest,
               "verdicts": rep.verdicts, "witnesses": rep.witnesses,
               "groups": rep.groups}
        assert rep.to_json() == json.dumps(doc, indent=2, sort_keys=True,
                                           ensure_ascii=False) + "\n"

    def test_report_bytes_stable(self, tmp_path):
        path = write_manifest(tmp_path, json.loads(shipped_text()))
        out1 = tmp_path / "r1.json"
        out2 = tmp_path / "r2.json"
        assert main(["verify-theorem", "--manifest", path,
                     "--report", str(out1)]) == 0
        assert main(["verify-theorem", "--manifest", path,
                     "--report", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_report_bytes_same_without_asserts(self, tmp_path):
        # python -O strips assert statements; no guard may depend on them
        path = write_manifest(tmp_path, json.loads(shipped_text()))
        plain = tmp_path / "plain.json"
        optimized = tmp_path / "optimized.json"
        code = main(["verify-theorem", "--manifest", path,
                     "--report", str(plain)])
        src = os.path.dirname(os.path.dirname(orbifunctor.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
        proc = subprocess.run(
            [sys.executable, "-O", "-c",
             "import sys; from orbifunctor.cli import main; "
             "sys.exit(main(sys.argv[1:]))",
             "verify-theorem", "--manifest", path, "--report", str(optimized)],
            env=env, capture_output=True, timeout=120)
        assert proc.returncode == code == 0
        assert optimized.read_bytes() == plain.read_bytes()

    def test_no_assert_statement_in_the_package(self):
        # the guard above compares one manifest; this one covers every module
        pkg = os.path.dirname(orbifunctor.__file__)
        found = []
        for name in sorted(os.listdir(pkg)):
            if name.endswith(".py"):
                with open(os.path.join(pkg, name), encoding="utf-8") as fh:
                    tree = ast.parse(fh.read(), filename=name)
                found += [f"{name}:{node.lineno}" for node in ast.walk(tree)
                          if isinstance(node, ast.Assert)]
        assert len([n for n in os.listdir(pkg) if n.endswith(".py")]) >= 8
        assert found == []

    def test_hexagon_desk_run_builds_each_orbit_category_once(
            self, monkeypatch):
        import orbifunctor.fincat as fincat
        built = []
        init = fincat.FinCategory.__init__

        def counted(self, *args):
            init(self, *args)
            built.append(self)
        monkeypatch.setattr(fincat.FinCategory, "__init__", counted)
        manifest = parse_manifest(json.dumps(hexagon_desk_manifest()))
        assert run("verify-theorem", manifest).passed
        during_run = list(built)
        full = orbit_category(manifest.get("group"), manifest.get("family"))
        iso = manifest.get("gcw").isotropy_family()
        assert len(full.objects) == 6 and len(iso) == 4
        assert sum(c == full for c in during_run) == 1
        # hypothesis D reads the instance's own fixed-point chains, so the
        # run never builds the category of the isotropy family
        iso_cat = orbit_category(iso.group, iso)
        assert not any(c == iso_cat for c in during_run)

    def test_hexagon_desk_run_shares_the_hom_side(self, monkeypatch):
        import orbifunctor.chainplex as chainplex
        counts = {"totals": 0, "induced": 0}
        init = chainplex.TotalHomComplex.__init__
        induced = chainplex.hom_total_induced

        def counted_init(self, *args):
            counts["totals"] += 1
            init(self, *args)

        def counted_induced(*args):
            counts["induced"] += 1
            return induced(*args)
        monkeypatch.setattr(chainplex.TotalHomComplex, "__init__", counted_init)
        monkeypatch.setattr(chainplex, "hom_total_induced", counted_induced)
        manifest = parse_manifest(json.dumps(hexagon_desk_manifest()))
        assert run("verify-theorem", manifest).passed
        # the constant Z has one column, so one hom total beside the target
        # total, and every morphism of Or(S_3) acts on it by the identity
        assert counts == {"totals": 2, "induced": 0}

    def test_desk_runs_leave_the_shared_identities_intact(self):
        manifests = [parse_manifest(json.dumps(data)) for data in
                     (hexagon_desk_manifest(), json.loads(shipped_text()))]
        for manifest in manifests:
            assert run("verify-theorem", manifest).passed
        for n in range(8):
            ident = IntMatrix.identity(n)
            assert (ident.nrows, ident.ncols) == (n, n)
            assert ident.nonzeros == tuple({i: 1} for i in range(n))
        with pytest.raises(TypeError):
            IntMatrix.identity(2).nonzeros[0][1] = 1
        # the index leg of the transport-pi0 coefficients acts by the
        # shared identity chain maps
        for manifest in manifests:
            for ident in manifest.get("bifunctor").index_action.values():
                c = ident.source
                assert ident is ChainMap.identity(c) is ChainMap.identity(c)
                assert set(ident.components) == set(c.degrees())
                for p in c.degrees():
                    assert ident.component(p) == AbHom.identity(c.group(p))
                    assert ident.component(p).matrix.is_identity()
                with pytest.raises(TypeError):
                    ident.components[c.lo] = AbHom.zero(c.group(c.lo),
                                                        c.group(c.lo))

    def test_desk_run_leaves_no_complex_in_a_reference_cycle(self):
        # with the collector off, whatever one run leaves for it is garbage
        # in a cycle; a complex there would hold its groups, maps and
        # homology until the next collection
        manifest = parse_manifest(json.dumps(hexagon_desk_manifest()))
        gc.collect()
        gc.disable()
        try:
            assert run("verify-theorem", manifest).passed
            gc.set_debug(gc.DEBUG_SAVEALL)
            gc.collect()
            cyclic = [type(x).__name__ for x in gc.garbage
                      if isinstance(x, (PlainChainComplex, ChainMap))]
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
            gc.enable()
        assert cyclic == []

    def test_report_shape(self, tmp_path):
        path = write_manifest(tmp_path, json.loads(shipped_text()))
        out = tmp_path / "r.json"
        main(["demo-classifying", "--report", str(out)])
        doc = json.loads(out.read_text())
        assert set(doc) == {"command", "inputs", "verdicts", "witnesses",
                            "groups"}
        assert doc["command"] == "demo-classifying"
        assert all(set(v) == {"name", "passed", "detail"}
                   for v in doc["verdicts"])

    def test_digest_tracks_content(self):
        m1 = parse_manifest(shipped_text())
        data = json.loads(shipped_text())
        data["instance"]["through_degree"] = "1"
        m2 = parse_manifest(json.dumps(data))
        assert m1.digest != m2.digest

    def test_groups_rendered_canonically(self):
        m = parse_manifest(json.dumps({
            "version": "1",
            "complex": {"kind": "plain", "lo": "0", "hi": "0",
                        "groups": {"0": {"rank": "2",
                                         "torsion": ["2", "4"]}}}}))
        rep = run("homology", m)
        assert rep.groups[0]["value"] == "Z^2 ⊕ Z/2 ⊕ Z/4"


class _Overrun(BaseException):
    """Raised by the per-case alarm; no handler in the program catches it."""


def _raise_overrun(signum, frame):
    raise _Overrun()


_DELETE = object()
_MUTATIONS = (None, 7, "7", [], {}, "-1", "abc", [[]], "0", "1000", _DELETE)


def _field_paths(node, prefix=()):
    """Every object field and list entry below `node`, depth first."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, value in items:
        yield prefix + (key,)
        yield from _field_paths(value, prefix + (key,))


def _mutated(base, path, value):
    data = copy.deepcopy(base)
    holder = data
    for key in path[:-1]:
        holder = holder[key]
    if value is _DELETE:
        del holder[path[-1]]
    else:
        holder[path[-1]] = value
    return json.dumps(data)


def _mutation_sweep(base, command):
    """(cases, failures) of running `command` on every single-field mutation
    of the manifest `base`: each field in turn is replaced by one of a few
    ill-typed or out-of-range values, or deleted.  A case fails unless it
    gives a report (exit 0 or 1) or a ManifestError (exit 2) within 10 s."""
    previous = signal.signal(signal.SIGALRM, _raise_overrun)
    bad = []
    cases = 0
    try:
        for path in list(_field_paths(base)):
            for value in _MUTATIONS:
                cases += 1
                text = _mutated(base, path, value)
                signal.alarm(10)
                try:
                    outcome = run(command, parse_manifest(text))
                except ManifestError as err:
                    outcome = err
                except _Overrun:
                    outcome = "no answer within 10 s"
                except Exception as err:
                    outcome = f"{type(err).__name__}: {err}"
                finally:
                    signal.alarm(0)
                if not isinstance(outcome, (Report, ManifestError)):
                    shown = "deleted" if value is _DELETE else repr(value)
                    bad.append(f"{path} = {shown}: {outcome}")
    finally:
        signal.signal(signal.SIGALRM, previous)
    return cases, bad


@pytest.mark.skipif(not hasattr(signal, "SIGALRM"), reason="needs SIGALRM")
def test_every_single_field_mutation_ends_in_a_report_or_input_error():
    # verify-theorem on the shipped manifest: never another exception, never
    # a hang
    cases, bad = _mutation_sweep(json.loads(shipped_text()), "verify-theorem")
    assert cases == 561
    assert bad == []


def _twisted_bifunctor_shape():
    from orbifunctor.verify import twisted_coefficient_system
    idx = standard_category("chain", 1)
    group, family, e = twisted_coefficient_system(idx)
    return {"version": "1", "group": encode_group(group),
            "family": encode_family(family), "category": encode_category(idx),
            "bifunctor": encode_bifunctor(e)}


def _explicit_module_shape():
    c2 = FinGroup.cyclic(2)
    mod = transport_pi0_module(c2, SubgroupFamily.all(c2))
    return {"version": "1", "category": encode_category(mod.cat),
            "module": {"left": encode_module(mod)}}


def _cells_icw_shape():
    return {"version": "1", "category": {"kind": "grid", "size": "2"},
            "icw": encode_icw(classifying_model("RF", 2))}


def _functor_complex_shape():
    from orbifunctor.cellspaces import fixed_point_chains
    x = reflection_circle()
    chains = fixed_point_chains(x, SubgroupFamily.all(x.group))
    return {"version": "1", "group": {"kind": "cyclic", "n": "2"},
            "family": {"kind": "all"}, "category": {"kind": "orbit"},
            "complex": encode_functor_complex(chains)}


def test_non_natural_functor_complex_differential_exits_2(tmp_path, capsys):
    # the swap of G/1 exchanges the two edges of the reflection circle and
    # fixes both vertices, so a differential at G/1 with two different
    # columns is not natural
    data = _functor_complex_shape()
    data["complex"]["diffs"]["1"][0]["rows"][0][0] = "5"
    path = write_manifest(tmp_path, data)
    assert main(["homology", "--manifest", path]) == 2
    assert "not natural" in capsys.readouterr().err


def test_isotropy_outside_the_family_is_refused_at_parse(tmp_path, capsys):
    # the reflection circle's vertices are fixed by all of C_2, outside the
    # trivial family: the instance's fixed-point chains cannot be built, so
    # the manifest is refused as input before any hypothesis is checked
    data = json.loads(shipped_text())
    data["family"] = {"kind": "trivial"}
    data["instance"]["vanishing_floor"] = "5"
    path = write_manifest(tmp_path, data)
    assert main(["verify-theorem", "--manifest", path]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith("error: instance: ")
    assert "outside the family" in out.err


def _sequence_shape():
    spec = GradedSeqSpec((0, 1), "strictly-increasing-unbounded",
                         (2,), ("bounded-by", 7),
                         {3: FpAbGroup.cyclic(6)}, 1, 2)
    return {"version": "1", "sequences": {"s": encode_seqspec(spec)}}


def _table_group_shape():
    return {"version": "1", "group": encode_group(FinGroup.symmetric(3)),
            "family": {"kind": "all"}}


def _permutation_closure_shape():
    return {"version": "1",
            "group": {"kind": "permutations",
                      "generators": [[1, 2, 0], [1, 0, 2]]},
            "family": {"kind": "closure",
                       "seeds": [[[0, 1, 2]], [[0, 1, 2], [1, 0, 2]]]},
            "category": {"kind": "orbit"}}


def _plain_complex_shape():
    z = {"rank": "1", "torsion": []}
    return {"version": "1",
            "complex": {"kind": "plain", "lo": "0", "hi": "1",
                        "groups": {"0": z, "1": z},
                        "diffs": {"1": {"nrows": "1", "ncols": "1",
                                        "rows": [["2"]]}}}}


@pytest.mark.skipif(not hasattr(signal, "SIGALRM"), reason="needs SIGALRM")
@pytest.mark.parametrize("shape, command, expected", [
    (_twisted_bifunctor_shape, "validate", 2222),
    (_explicit_module_shape, "validate", 1364),
    (_cells_icw_shape, "validate", 1628),
    (_functor_complex_shape, "homology", 1342),
    (_sequence_shape, "demo-interchange", 209),
    (_table_group_shape, "validate", 803),
    (_permutation_closure_shape, "validate", 341),
    (_plain_complex_shape, "homology", 209),
], ids=["twisted-bifunctor", "explicit-module", "cells-icw", "functor-complex",
        "sequence", "table-group", "permutation-closure", "plain-complex"])
def test_single_field_mutations_of_other_shapes_end_in_a_report_or_input_error(
        shape, command, expected):
    # the same sweep over the other section kinds the shipped manifest does
    # not use: table groups, member and closure families, explicit
    # categories, modules, cell and functor complexes, explicit bifunctors
    # and sequence specs
    base = shape()
    assert isinstance(run(command, parse_manifest(json.dumps(base))), Report)
    cases, bad = _mutation_sweep(base, command)
    assert cases == expected
    assert bad == []


# ---------------------------------------------------------------------------
# Work budgets: groups and bar resolutions past their bounds are refused
# before anything is built
# ---------------------------------------------------------------------------


S5_GENERATORS = [[1, 0, 2, 3, 4], [1, 2, 3, 4, 0]]


def _within_a_second(call):
    previous = signal.signal(signal.SIGALRM, _raise_overrun)
    signal.alarm(1)
    try:
        return call()
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def _group_manifest(group):
    return json.dumps({"version": "1", "group": group})


@pytest.mark.skipif(not hasattr(signal, "SIGALRM"), reason="needs SIGALRM")
@pytest.mark.parametrize("group", [
    {"kind": "cyclic", "n": "25"},
    {"kind": "dihedral", "n": "13"},
    {"kind": "dihedral", "n": "0"},
    {"kind": "symmetric", "n": "5"},
    {"kind": "permutations", "generators": S5_GENERATORS},
], ids=["cyclic-25", "dihedral-13", "dihedral-0", "symmetric-5",
        "permutations-s5"])
def test_groups_past_the_bound_are_refused_at_once(group):
    with pytest.raises(ManifestError):
        _within_a_second(lambda: parse_manifest(_group_manifest(group)))


def _cyclic_table(n):
    return {"kind": "table", "elements": [str(k) for k in range(n)],
            "table": [[(a + b) % n for b in range(n)] for a in range(n)]}


@pytest.mark.skipif(not hasattr(signal, "SIGALRM"), reason="needs SIGALRM")
def test_group_table_past_the_bound_is_refused_at_once():
    with pytest.raises(ManifestError, match="exceeds the bound"):
        _within_a_second(lambda: parse_manifest(
            _group_manifest(_cyclic_table(25))))
    assert parse_manifest(_group_manifest(_cyclic_table(24))).get(
        "group").order == 24


def _explicit_shipped(break_leg):
    """The shipped manifest with its bifunctor section written out as an
    explicit bifunctor; with break_leg, the self-map of the free orbit acts
    by 0 in degree 0 at every index object, so the coefficient leg is not
    functorial."""
    data = json.loads(shipped_text())
    inst = parse_manifest(shipped_text()).get("instance")
    section = encode_bifunctor(inst.coefficients)
    if break_leg:
        for i, psi, chain_map in section["coeff_action"]:
            if psi == [[0], [0], [1]]:
                chain_map["components"]["0"] = encode_matrix(
                    IntMatrix.from_rows([[0]]))
    data["bifunctor"] = section
    return data


@pytest.mark.parametrize("command", ["verify-theorem", "validate"])
def test_non_functorial_explicit_bifunctor_exits_2(tmp_path, capsys, command):
    path = write_manifest(tmp_path, _explicit_shipped(break_leg=True))
    assert main([command, "--manifest", path]) == 2
    out = capsys.readouterr()
    assert "coeff leg not functorial" in out.err
    assert "isomorphism" not in out.out


def test_explicit_round_trip_of_the_shipped_bifunctor(tmp_path):
    path = write_manifest(tmp_path, _explicit_shipped(break_leg=False))
    assert main(["verify-theorem", "--manifest", path]) == 0
    assert main(["validate", "--manifest", path]) == 0


@pytest.mark.parametrize("explicit", [False, True],
                         ids=["transport-pi0", "explicit"])
def test_validate_checks_the_bifunctor_once(tmp_path, monkeypatch, explicit):
    import orbifunctor.cli as cli_mod
    calls = []

    def counting(e):
        calls.append(e)
        return validate_bifunctor(e)
    monkeypatch.setattr(cli_mod, "validate_bifunctor", counting)
    monkeypatch.setitem(cli_mod._VALIDATORS, "bifunctor", counting)
    data = (_explicit_shipped(break_leg=False) if explicit
            else json.loads(shipped_text()))
    path = write_manifest(tmp_path, data)
    report = tmp_path / "r.json"
    assert main(["validate", "--manifest", path, "--report", str(report)]) == 0
    # an explicit bifunctor is checked while it is decoded, transport-pi0
    # only by validate
    assert len(calls) == 1
    out = json.loads(report.read_text(encoding="utf-8"))
    assert out["verdicts"] == [
        {"detail": "parses and validates", "name": f"section {name}",
         "passed": True}
        for name in ("group", "family", "category", "icw", "gcw",
                     "bifunctor", "instance")]
    assert out["witnesses"] == [] and out["groups"] == []


def test_non_associative_group_table_exits_2(tmp_path):
    # identity 0 and every element its own inverse, but (1*1)*2 = 2 while
    # 1*(1*2) = 4
    rows = [[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 4, 0, 1, 3],
            [3, 2, 4, 0, 1], [4, 3, 1, 2, 0]]
    group = {"kind": "table", "elements": list(range(5)), "table": rows}
    with pytest.raises(ManifestError, match="associativity fails"):
        parse_manifest(_group_manifest(group))
    path = write_manifest(tmp_path, {"version": "1", "group": group})
    assert main(["validate", "--manifest", path]) == 2


def test_torsion_must_be_a_list():
    with pytest.raises(ManifestError, match="torsion"):
        decode_abelian({"rank": "0", "torsion": "1000"}, "g")
    with pytest.raises(ManifestError, match=">= 2"):
        decode_abelian({"rank": "0", "torsion": ["0", "0"]}, "g")


@pytest.mark.parametrize("group", [{"kind": "cyclic", "n": "24"},
                                   {"kind": "symmetric", "n": "4"},
                                   {"kind": "dihedral", "n": "12"}])
def test_groups_at_the_bound_still_build(group):
    assert parse_manifest(_group_manifest(group)).get("group").order == 24


@pytest.mark.skipif(not hasattr(signal, "SIGALRM"), reason="needs SIGALRM")
def test_bar_past_the_bound_is_refused_at_once(tmp_path):
    c2 = FinGroup.cyclic(2)
    with pytest.raises(ValueError):
        _within_a_second(lambda: bar_resolution_truncated(c2, 9))
    with pytest.raises(ValueError):
        _within_a_second(lambda: bar_resolution_truncated(FinGroup.trivial(),
                                                          10 ** 20))
    path = write_manifest(tmp_path, json.loads(shipped_text()))
    # the shipped group is C_2, so borel-check builds the periodic
    # resolution, one generator per degree: 9 is within the bound, 257 not
    assert _within_a_second(lambda: main(["borel-check", "--manifest", path,
                                          "--truncation", "257"])) == 2
    assert main(["borel-check", "--manifest", path, "--truncation", "9"]) == 0
    # the bound itself: C_2 at truncation 8 has 2^8 = 256 top tuples
    bar = bar_resolution_truncated(c2, 8)
    assert bar.module(8).total_rank() == 2 * 256


def _rank_1000_race():
    # the canonical divergent-upper spec with a rank-1000 profile group in
    # degree 3, which used to run past 15 s
    return {"m_prefix": ["0", "1"], "m_tail": "strictly-increasing-unbounded",
            "n_prefix": ["0", "2"], "n_tail": ["bounded-by", "5"],
            "profile": {"0": {"rank": "1", "torsion": []},
                        "3": {"rank": "1000", "torsion": []}},
            "profile_floor": "0", "degree": "1"}


@pytest.mark.skipif(not hasattr(signal, "SIGALRM"), reason="needs SIGALRM")
def test_interchange_window_past_the_bound_is_refused_at_once(tmp_path):
    m = parse_manifest(json.dumps({"version": "1",
                                   "sequences": {"s": _rank_1000_race()}}))
    with pytest.raises(ManifestError, match="more than the bound"):
        _within_a_second(lambda: run("demo-interchange", m))
    path = write_manifest(tmp_path, {"version": "1",
                                     "sequences": {"s": _rank_1000_race()}})
    assert _within_a_second(lambda: main(["demo-interchange", "--manifest",
                                          path])) == 2


def test_canonical_interchange_specs_are_unchanged_by_the_bound():
    rep = run("demo-interchange", None)
    assert rep.passed
    assert {g["name"]: g["value"] for g in rep.groups} == {
        "divergent-upper: window source": "Z^2 ⊕ Z/2 ⊕ Z/2 ⊕ Z/2 ⊕ Z/2 ⊕ Z/2",
        "constant-upper: window source": "Z/4 ⊕ Z/4 ⊕ Z/4 ⊕ Z/4 ⊕ Z/4 ⊕ Z/4",
        "both-divergent: window source": "Z/3"}
