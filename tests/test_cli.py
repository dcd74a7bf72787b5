"""Manifest codecs, command dispatch, exit codes, and report stability.

The shipped scenario file doubles as a fixture: parsing it, verifying it,
and checking the report bytes do not drift between runs.
"""

import importlib.resources
import json
import os
import subprocess
import sys
import time

import pytest

import orbifunctor
from orbifunctor.exact_abelian import FpAbGroup, IntMatrix
from orbifunctor.fincat import (
    FinGroup,
    SubgroupFamily,
    orbit_category,
    standard_category,
)
from orbifunctor.cellspaces import classifying_model, reflection_circle
from orbifunctor.verify import GradedSeqSpec, transport_pi0_module
from orbifunctor.cli import (
    ManifestError,
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


class TestReports:
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
