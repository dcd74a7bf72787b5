"""Manifest parsing and command dispatch.

Every computation the package offers is reproducible from a flat JSON
manifest.  A manifest is one JSON object with a "version" field and any of
the sections group, family, category, module, complex, icw, gcw, bifunctor,
instance, sequences.  Sections reference each other implicitly: the family
belongs to the group section, modules live over the category section, the
instance is assembled from all of them.  Integers are serialized as decimal
strings of unbounded length; tuples become JSON arrays.

Section shapes (decimal strings everywhere an integer appears):

  group      {"kind": "cyclic"|"symmetric"|"dihedral", "n": "2"}
             {"kind": "trivial"}
             {"kind": "permutations", "generators": [[perm]...]}
             {"kind": "table", "elements": [...], "table": [[idx]...]}
  family     {"kind": "all"|"trivial"}
             {"kind": "closure", "seeds": [[element]...]}
             {"kind": "members", "members": [[element]...]}
  category   {"kind": "chain"|"grid", "size": "3"}
             {"kind": "orbit"}            (orbit category of group+family)
             {"kind": "one-object"}       (the group as a category)
             {"kind": "explicit", "objects": [...], "morphisms": [...],
              "dom": [obj_idx...], "cod": [obj_idx...],
              "compose": [[f_idx, g_idx, fg_idx]...],
              "identities": [mor_idx per object]}
  module     named map, e.g. {"left": SPEC, "right": SPEC}; each SPEC is
             {"variance": "co"|"contra", "values": [GROUP per object],
              "actions": [MATRIX per morphism]} over the category section,
             values ordered like category objects, actions like morphisms
  complex    {"kind": "plain", "lo": "0", "hi": "1",
              "groups": {"0": GROUP, ...}, "diffs": {"1": MATRIX, ...}}
             {"kind": "functor", "variance": ..., "lo": ..., "hi": ...,
              "modules": {"0": SPEC, ...},
              "diffs": {"1": [MATRIX per object], ...}}
  icw        {"kind": "classifying", "model": "N"|"RF", "truncation": "3"}
             {"kind": "cells", "cells": {"0": [tag...], ...},
              "boundary": [[n, i, [[coeff, j, morphism]...]]...],
              "truncation_valid": "2"}    (truncation_valid optional)
  gcw        {"cells": {"0": [[element...]...], ...},
              "boundary": [[n, i, [[coeff, j, [coset...]]...]]...]}
  bifunctor  {"kind": "transport-pi0", "degree": "0"}
             {"kind": "constant-module", "module": "NAME", "degree": "0"}
             {"kind": "explicit", "complexes": [[i, j, PLAIN]...],
              "index_action": [[morphism, j, CHAINMAP]...],
              "coeff_action": [[i, morphism, CHAINMAP]...]}
  instance   {"top_degree": "2", "through_degree": "2",
              "vanishing_floor": "0", "mode": "strict-fg"|"almost-fg",
              "coeff_truncated": false, "free_complex": "icw"|"complex"}
  sequences  named map of {"m_prefix": ["0", ...], "m_tail": TAIL,
              "n_prefix": [...], "n_tail": TAIL,
              "profile": {"3": GROUP, ...}, "profile_floor": "0",
              "degree": "1"} with TAIL either "strictly-increasing-unbounded"
              or ["bounded-by", "5"]

  GROUP      {"rank": "1", "torsion": ["2", "4"]}
  MATRIX     {"nrows": "2", "ncols": "3", "rows": [["1","0","0"], ...]}
  CHAINMAP   {"components": {"0": MATRIX, ...}}

Reports are byte-stable for a fixed manifest: the machine document carries
command, input digest, verdicts, witnesses, and groups in the canonical
form "Z^r ⊕ Z/t1 ⊕ ...".  Timing goes to stderr, never into the report.
Exit codes: 0 all verdicts pass, 1 verdict failure, 2 input error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from functools import partial

from .exact_abelian import AbHom, FpAbGroup, IntMatrix, format_group
from .fincat import (
    FinCategory,
    FinGroup,
    SubgroupFamily,
    family_closure,
    one_object_category,
    orbit_category,
    standard_category,
    validate_category,
)
from .catmod import (
    COVARIANT,
    CatHomGroup,
    CatModule,
    CatTensor,
    ModuleMap,
    tor,
    validate_module,
)
from .chainplex import (
    BiFunctorComplex,
    CatChainComplex,
    ChainMap,
    PlainChainComplex,
    cat_complex_concentrated,
    homology,
    validate_bifunctor,
)
from .cellspaces import (
    CatCWComplex,
    GCWComplex,
    bredon_homology,
    cellular_chain_complex,
    classifying_model,
    contractibility_check,
)
from .verify import (
    ALMOST,
    STRICT,
    GradedSeqSpec,
    TheoremInstance,
    borel_vs_quotient_check,
    check_hypotheses,
    interchange_criterion,
    sub_factorization_check,
    tor_interchange_probe,
    transport_pi0_module,
    verify_comparison,
)

SECTIONS = ("group", "family", "category", "module", "complex", "icw",
            "gcw", "bifunctor", "instance", "sequences")

COMMANDS = ("validate", "homology", "bredon", "tor", "tensor", "hom",
            "verify-theorem", "demo-interchange", "demo-tor-probe",
            "demo-classifying", "borel-check")


class ManifestError(Exception):
    """Input-side failure: syntax, dangling reference, or validation."""


def _fail(path, message):
    raise ManifestError(f"{path}: {message}")


def _int_in(value, path):
    if isinstance(value, bool) or not isinstance(value, (str, int)):
        _fail(path, f"expected a decimal string, got {value!r}")
    try:
        return int(value)
    except ValueError:
        _fail(path, f"not a decimal integer: {value!r}")


def _tuplify(value):
    if isinstance(value, list):
        return tuple(_tuplify(v) for v in value)
    return value


def _listify(value):
    if isinstance(value, (tuple, list)):
        return [_listify(v) for v in value]
    if isinstance(value, frozenset):
        return [_listify(v) for v in sorted(value)]
    return value


def _require(data, key, path, kind=None):
    if not isinstance(data, dict):
        _fail(path, f"expected an object, got {type(data).__name__}")
    if key not in data:
        _fail(path, f"missing field {key!r}")
    value = data[key]
    if kind is not None and not isinstance(value, kind):
        _fail(f"{path}.{key}",
              f"wrong type: expected {getattr(kind, '__name__', kind)}, "
              f"got {type(value).__name__}")
    return value


def _list_in(value, path):
    if not isinstance(value, list):
        _fail(path, f"expected a list, got {value!r}")
    return value


def _member(value, path, pool, what):
    # `in` on a tuple compares with ==, so an unhashable value is refused too
    x = _tuplify(value)
    if x not in pool:
        _fail(path, f"{value!r} is not a {what}")
    return x


def _elements(value, path, group):
    """A JSON list of elements of `group`, as a tuple."""
    return tuple(_member(x, path, group.elements, "group element")
                 for x in _list_in(value, path))


# ---------------------------------------------------------------------------
# Scalar object codecs
# ---------------------------------------------------------------------------


def encode_abelian(g: FpAbGroup):
    return {"rank": str(g.rank), "torsion": [str(t) for t in g.torsion]}


def decode_abelian(data, path):
    rank = _int_in(_require(data, "rank", path), f"{path}.rank")
    torsion = [_int_in(t, f"{path}.torsion[{k}]")
               for k, t in enumerate(data.get("torsion", []))]
    try:
        return FpAbGroup(rank, torsion)
    except ValueError as err:
        _fail(path, str(err))


def encode_matrix(m: IntMatrix):
    return {"nrows": str(m.nrows), "ncols": str(m.ncols),
            "rows": [[str(x) for x in row] for row in m.rows]}


def decode_matrix(data, path):
    nrows = _int_in(_require(data, "nrows", path), f"{path}.nrows")
    ncols = _int_in(_require(data, "ncols", path), f"{path}.ncols")
    rows = _require(data, "rows", path, list)
    if len(rows) != nrows:
        _fail(path, f"{nrows} rows declared, {len(rows)} given")
    out = []
    for r, row in enumerate(rows):
        if len(row) != ncols:
            _fail(f"{path}.rows[{r}]", f"{ncols} columns declared, {len(row)} given")
        out.append([_int_in(x, f"{path}.rows[{r}][{c}]")
                    for c, x in enumerate(row)])
    return IntMatrix(nrows, ncols, out)


# ---------------------------------------------------------------------------
# Group / family / category codecs
# ---------------------------------------------------------------------------


def encode_group(group: FinGroup):
    elements = list(group.elements)
    index = {e: k for k, e in enumerate(elements)}
    table = [[index[group.mult(a, b)] for b in elements] for a in elements]
    return {"kind": "table", "elements": _listify(elements), "table": table}


def decode_group(data, path):
    kind = _require(data, "kind", path)
    if kind in ("cyclic", "symmetric", "dihedral"):
        n = _int_in(_require(data, "n", path), f"{path}.n")
        try:
            maker = {"cyclic": FinGroup.cyclic, "symmetric": FinGroup.symmetric,
                     "dihedral": FinGroup.dihedral}[kind]
            return maker(n)
        except ValueError as err:
            _fail(path, str(err))
    if kind == "trivial":
        return FinGroup.trivial()
    if kind == "permutations":
        gens = _require(data, "generators", path, list)
        try:
            return FinGroup.from_permutations([_tuplify(g) for g in gens])
        except (ValueError, KeyError, IndexError) as err:
            _fail(path, str(err))
    if kind == "table":
        elements = [_tuplify(e) for e in _require(data, "elements", path, list)]
        raw = _require(data, "table", path, list)
        if len(raw) != len(elements):
            _fail(f"{path}.table", "one row per element required")
        table = {}
        for a, row in zip(elements, raw):
            if len(row) != len(elements):
                _fail(f"{path}.table", "one column per element required")
            for b, k in zip(elements, row):
                k = _int_in(k, f"{path}.table")
                if not 0 <= k < len(elements):
                    _fail(f"{path}.table", f"element index {k} out of range")
                table[(a, b)] = elements[k]
        identity = next((e for e in elements
                         if all(table[(e, x)] == x and table[(x, e)] == x
                                for x in elements)), None)
        if identity is None:
            _fail(path, "table has no identity element")
        inv = {}
        for a in elements:
            inv[a] = next((b for b in elements if table[(a, b)] == identity),
                          None)
            if inv[a] is None:
                _fail(path, f"element {a!r} has no inverse")
        return FinGroup(elements, table, identity, inv)
    _fail(path, f"unknown group kind {kind!r}")


def encode_family(family: SubgroupFamily):
    members = sorted(sorted(m) for m in family.members)
    return {"kind": "members", "members": _listify(members)}


def decode_family(data, path, group):
    kind = _require(data, "kind", path)
    try:
        if kind == "all":
            return SubgroupFamily.all(group)
        if kind == "trivial":
            return SubgroupFamily.trivial(group)
        if kind in ("members", "closure"):
            field = "members" if kind == "members" else "seeds"
            raw = _require(data, field, path, list)
            subs = [frozenset(_elements(m, f"{path}.{field}", group))
                    for m in raw]
            if kind == "closure":
                return family_closure(group, subs)
            return SubgroupFamily(group, subs)
    except ValueError as err:
        _fail(path, str(err))
    _fail(path, f"unknown family kind {kind!r}")


def encode_category(cat: FinCategory):
    objects = list(cat.objects)
    morphisms = list(cat.morphisms)
    oidx = {o: k for k, o in enumerate(objects)}
    midx = {m: k for k, m in enumerate(morphisms)}
    compose = sorted(
        [midx[f], midx[g], midx[h]] for (f, g), h in cat.table.items())
    return {"kind": "explicit",
            "objects": _listify(objects),
            "morphisms": _listify(morphisms),
            "dom": [oidx[cat.dom[m]] for m in morphisms],
            "cod": [oidx[cat.cod[m]] for m in morphisms],
            "compose": compose,
            "identities": [midx[cat.identity(o)] for o in objects]}


def decode_category(data, path, ctx):
    kind = _require(data, "kind", path)
    if kind in ("chain", "grid"):
        size = _int_in(_require(data, "size", path), f"{path}.size")
        try:
            return standard_category(kind, size)
        except ValueError as err:
            _fail(path, str(err))
    if kind == "orbit":
        if "group" not in ctx or "family" not in ctx:
            _fail(path, "orbit kind needs group and family sections")
        return orbit_category(ctx["group"], ctx["family"])
    if kind == "one-object":
        if "group" not in ctx:
            _fail(path, "one-object kind needs the group section")
        return one_object_category(ctx["group"])
    if kind == "explicit":
        objects = [_tuplify(o) for o in _require(data, "objects", path, list)]
        morphisms = [_tuplify(m)
                     for m in _require(data, "morphisms", path, list)]

        def pick(pool, idx, where):
            k = _int_in(idx, where)
            if not 0 <= k < len(pool):
                _fail(where, f"index {k} out of range")
            return pool[k]

        dom = {m: pick(objects, i, f"{path}.dom")
               for m, i in zip(morphisms, _require(data, "dom", path, list))}
        cod = {m: pick(objects, i, f"{path}.cod")
               for m, i in zip(morphisms, _require(data, "cod", path, list))}
        table = {}
        for row in _require(data, "compose", path, list):
            if len(row) != 3:
                _fail(f"{path}.compose", f"expected [f, g, fg], got {row!r}")
            f = pick(morphisms, row[0], f"{path}.compose")
            g = pick(morphisms, row[1], f"{path}.compose")
            table[(f, g)] = pick(morphisms, row[2], f"{path}.compose")
        ids = {o: pick(morphisms, i, f"{path}.identities")
               for o, i in zip(objects,
                               _require(data, "identities", path, list))}
        try:
            return FinCategory(objects, morphisms, dom, cod, table, ids)
        except (ValueError, KeyError) as err:
            _fail(path, str(err))
    _fail(path, f"unknown category kind {kind!r}")


# ---------------------------------------------------------------------------
# Module / complex codecs
# ---------------------------------------------------------------------------


def encode_module(module: CatModule):
    cat = module.cat
    return {"variance": module.variance,
            "values": [encode_abelian(module.value(o)) for o in cat.objects],
            "actions": [encode_matrix(module.action(f).matrix)
                        for f in cat.morphisms]}


def decode_module(data, path, cat):
    variance = _require(data, "variance", path)
    if variance not in ("co", "contra"):
        _fail(f"{path}.variance", f"must be 'co' or 'contra', got {variance!r}")
    raw_values = _require(data, "values", path, list)
    if len(raw_values) != len(cat.objects):
        _fail(f"{path}.values", f"{len(cat.objects)} objects in the category, "
              f"{len(raw_values)} values given")
    values = {o: decode_abelian(v, f"{path}.values[{k}]")
              for k, (o, v) in enumerate(zip(cat.objects, raw_values))}
    raw_actions = _require(data, "actions", path, list)
    if len(raw_actions) != len(cat.morphisms):
        _fail(f"{path}.actions", f"{len(cat.morphisms)} morphisms in the "
              f"category, {len(raw_actions)} actions given")
    actions = {}
    for k, (f, spec) in enumerate(zip(cat.morphisms, raw_actions)):
        where = f"{path}.actions[{k}]"
        a, b = cat.dom[f], cat.cod[f]
        src, tgt = (a, b) if variance == "co" else (b, a)
        try:
            actions[f] = AbHom(values[src], values[tgt],
                               decode_matrix(spec, where))
        except ValueError as err:
            _fail(where, str(err))
    return CatModule(cat, variance, values, actions)


def encode_plain_complex(c: PlainChainComplex):
    return {"kind": "plain", "lo": str(c.lo), "hi": str(c.hi),
            "groups": {str(p): encode_abelian(c.group(p))
                       for p in c.degrees()},
            "diffs": {str(p): encode_matrix(c.differential(p).matrix)
                      for p in c.degrees() if p > c.lo}}


def _decode_window(data, path):
    lo = _int_in(_require(data, "lo", path), f"{path}.lo")
    hi = _int_in(_require(data, "hi", path), f"{path}.hi")
    return lo, hi


def decode_plain_complex(data, path):
    lo, hi = _decode_window(data, path)
    raw_groups = _require(data, "groups", path, dict)
    groups = {}
    for p in range(lo, hi + 1):
        if str(p) not in raw_groups:
            _fail(f"{path}.groups", f"missing degree {p}")
        groups[p] = decode_abelian(raw_groups[str(p)], f"{path}.groups.{p}")
    diffs = {}
    raw_diffs = data.get("diffs", {})
    for p in range(lo + 1, hi + 1):
        if str(p) not in raw_diffs:
            _fail(f"{path}.diffs", f"missing degree {p}")
        mat = decode_matrix(raw_diffs[str(p)], f"{path}.diffs.{p}")
        try:
            diffs[p] = AbHom(groups[p], groups[p - 1], mat)
        except ValueError as err:
            _fail(f"{path}.diffs.{p}", str(err))
    try:
        return PlainChainComplex(lo, hi, groups, diffs)
    except ValueError as err:
        _fail(path, str(err))


def encode_functor_complex(c: CatChainComplex):
    cat = c.base
    diffs = {}
    for p in c.degrees():
        if p <= c.lo:
            continue
        d = c.diff(p)
        diffs[str(p)] = [encode_matrix(d.components[o].matrix)
                         for o in cat.objects]
    return {"kind": "functor", "variance": c.variance,
            "lo": str(c.lo), "hi": str(c.hi),
            "modules": {str(p): encode_module(c.module(p))
                        for p in c.degrees()},
            "diffs": diffs}


def decode_functor_complex(data, path, cat):
    variance = _require(data, "variance", path)
    lo, hi = _decode_window(data, path)
    raw_modules = _require(data, "modules", path, dict)
    modules = {}
    for p in range(lo, hi + 1):
        if str(p) not in raw_modules:
            _fail(f"{path}.modules", f"missing degree {p}")
        spec = dict(raw_modules[str(p)])
        spec.setdefault("variance", variance)
        if spec["variance"] != variance:
            _fail(f"{path}.modules.{p}", "variance differs from the complex")
        modules[p] = decode_module(spec, f"{path}.modules.{p}", cat)
    raw_diffs = data.get("diffs", {})
    diffs = {}
    for p in range(lo + 1, hi + 1):
        if str(p) not in raw_diffs:
            _fail(f"{path}.diffs", f"missing degree {p}")
        mats = raw_diffs[str(p)]
        if len(mats) != len(cat.objects):
            _fail(f"{path}.diffs.{p}", "one matrix per object required")
        components = {}
        for o, spec in zip(cat.objects, mats):
            where = f"{path}.diffs.{p}"
            try:
                components[o] = AbHom(modules[p].value(o),
                                      modules[p - 1].value(o),
                                      decode_matrix(spec, where))
            except ValueError as err:
                _fail(where, str(err))
        diffs[p] = ModuleMap(modules[p], modules[p - 1], components)
    try:
        return CatChainComplex(cat, variance, lo, hi, modules, diffs)
    except ValueError as err:
        _fail(path, str(err))


def decode_complex(data, path, ctx):
    kind = _require(data, "kind", path)
    if kind == "plain":
        return decode_plain_complex(data, path)
    if kind == "functor":
        if "category" not in ctx:
            _fail(path, "functor kind needs the category section")
        return decode_functor_complex(data, path, ctx["category"])
    _fail(path, f"unknown complex kind {kind!r}")


def encode_chain_map(m: ChainMap):
    return {"components": {str(p): encode_matrix(f.matrix)
                           for p, f in m.components.items()}}


def decode_chain_map(data, path, source, target):
    raw = _require(data, "components", path, dict)
    components = {}
    for key, spec in raw.items():
        p = _int_in(key, f"{path}.components")
        try:
            components[p] = AbHom(source.group(p), target.group(p),
                                  decode_matrix(spec, f"{path}.components.{key}"))
        except ValueError as err:
            _fail(f"{path}.components.{key}", str(err))
    try:
        return ChainMap(source, target, components)
    except ValueError as err:
        _fail(path, str(err))


# ---------------------------------------------------------------------------
# Cell-structure codecs
# ---------------------------------------------------------------------------


def _decode_cells(data, path, decode_label):
    raw = _require(data, "cells", path, dict)
    cells = {}
    for key, labs in raw.items():
        n = _int_in(key, f"{path}.cells")
        where = f"{path}.cells.{key}"
        cells[n] = tuple(decode_label(lab, where)
                         for lab in _list_in(labs, where))
    return cells


def _decode_boundary(data, path, decode_term):
    out = {}
    raw = _list_in(data.get("boundary", []), f"{path}.boundary")
    for k, entry in enumerate(raw):
        where = f"{path}.boundary[{k}]"
        if not isinstance(entry, list) or len(entry) != 3:
            _fail(where, f"expected [degree, cell, terms], got {entry!r}")
        n = _int_in(entry[0], where)
        i = _int_in(entry[1], where)
        terms = []
        for t, term in enumerate(_list_in(entry[2], f"{where}.terms")):
            if not isinstance(term, list) or len(term) != 3:
                _fail(f"{where}.terms[{t}]",
                      f"expected [coeff, cell, attach], got {term!r}")
            terms.append((_int_in(term[0], f"{where}.terms[{t}]"),
                          _int_in(term[1], f"{where}.terms[{t}]"),
                          decode_term(term[2], f"{where}.terms[{t}]")))
        out[(n, i)] = tuple(terms)
    return out


def encode_icw(x: CatCWComplex):
    boundary = [[str(n), str(i),
                 [[str(c), str(j), _listify(phi)] for c, j, phi in terms]]
                for (n, i), terms in sorted(x.boundary.items())]
    out = {"kind": "cells",
           "cells": {str(n): _listify(list(labs))
                     for n, labs in sorted(x.cells.items())},
           "boundary": boundary}
    if x.truncation_valid is not None:
        out["truncation_valid"] = str(x.truncation_valid)
    return out


def decode_icw(data, path, ctx):
    kind = _require(data, "kind", path)
    if kind == "classifying":
        model = _require(data, "model", path)
        truncation = _int_in(_require(data, "truncation", path),
                             f"{path}.truncation")
        try:
            return classifying_model(model, truncation)
        except ValueError as err:
            _fail(path, str(err))
    if kind == "cells":
        if "category" not in ctx:
            _fail(path, "cells kind needs the category section")
        cat = ctx["category"]
        cells = _decode_cells(data, path, partial(
            _member, pool=cat.objects, what="base object"))
        boundary = _decode_boundary(data, path, partial(
            _member, pool=cat.morphisms, what="base morphism"))
        valid = data.get("truncation_valid")
        if valid is not None:
            valid = _int_in(valid, f"{path}.truncation_valid")
        try:
            return CatCWComplex(ctx["category"], cells, boundary,
                                truncation_valid=valid)
        except ValueError as err:
            _fail(path, str(err))
    _fail(path, f"unknown icw kind {kind!r}")


def encode_gcw(x: GCWComplex):
    boundary = [[str(n), str(i),
                 [[str(c), str(j), _listify(list(coset))]
                  for c, j, coset in terms]]
                for (n, i), terms in sorted(x.boundary.items())]
    return {"cells": {str(n): _listify([list(lab) for lab in labs])
                      for n, labs in sorted(x.cells.items())},
            "boundary": boundary}


def decode_gcw(data, path, ctx):
    if "group" not in ctx:
        _fail(path, "gcw section needs the group section")
    elements = partial(_elements, group=ctx["group"])
    cells = _decode_cells(data, path, elements)
    boundary = _decode_boundary(data, path, elements)
    try:
        return GCWComplex(ctx["group"], cells, boundary)
    except ValueError as err:
        _fail(path, str(err))


# ---------------------------------------------------------------------------
# Bifunctor / sequence codecs
# ---------------------------------------------------------------------------


def encode_bifunctor(e: BiFunctorComplex):
    complexes = [[_listify(i), _listify(j), encode_plain_complex(c)]
                 for (i, j), c in sorted(e.complexes.items())]
    index_action = [[_listify(phi), _listify(j), encode_chain_map(m)]
                    for (phi, j), m in sorted(e.index_action.items())]
    coeff_action = [[_listify(i), _listify(psi), encode_chain_map(m)]
                    for (i, psi), m in sorted(e.coeff_action.items())]
    return {"kind": "explicit", "complexes": complexes,
            "index_action": index_action, "coeff_action": coeff_action}


def decode_bifunctor(data, path, ctx):
    kind = _require(data, "kind", path)
    if kind == "transport-pi0":
        for need in ("group", "family", "category"):
            if need not in ctx:
                _fail(path, f"transport-pi0 kind needs the {need} section")
        degree = _int_in(data.get("degree", "0"), f"{path}.degree")
        module = transport_pi0_module(ctx["group"], ctx["family"])
        return BiFunctorComplex.constant_in_index(
            ctx["category"], cat_complex_concentrated(module, degree))
    if kind == "constant-module":
        for need in ("category", "module"):
            if need not in ctx:
                _fail(path, f"constant-module kind needs the {need} section")
        name = _require(data, "module", path)
        if name not in ctx["module"]:
            _fail(f"{path}.module", f"no module named {name!r} in the "
                  "module section")
        degree = _int_in(data.get("degree", "0"), f"{path}.degree")
        module = ctx["module"][name]
        if module.variance != COVARIANT:
            _fail(f"{path}.module", "coefficient module must be covariant")
        return BiFunctorComplex.constant_in_index(
            ctx["category"], cat_complex_concentrated(module, degree))
    if kind == "explicit":
        for need in ("group", "family", "category"):
            if need not in ctx:
                _fail(path, f"explicit kind needs the {need} section")
        icat = ctx["category"]
        jcat = orbit_category(ctx["group"], ctx["family"])
        complexes = {}
        for k, entry in enumerate(_require(data, "complexes", path, list)):
            where = f"{path}.complexes[{k}]"
            i, j = _tuplify(entry[0]), _tuplify(entry[1])
            complexes[(i, j)] = decode_plain_complex(entry[2], where)
        index_action = {}
        for k, entry in enumerate(_require(data, "index_action", path, list)):
            where = f"{path}.index_action[{k}]"
            phi, j = _tuplify(entry[0]), _tuplify(entry[1])
            if phi not in icat.dom:
                _fail(where, f"{phi!r} names no index morphism")
            a, b = icat.dom[phi], icat.cod[phi]
            index_action[(phi, j)] = decode_chain_map(
                entry[2], where, complexes[(b, j)], complexes[(a, j)])
        coeff_action = {}
        for k, entry in enumerate(_require(data, "coeff_action", path, list)):
            where = f"{path}.coeff_action[{k}]"
            i, psi = _tuplify(entry[0]), _tuplify(entry[1])
            if psi not in jcat.dom:
                _fail(where, f"{psi!r} names no orbit-category morphism")
            j1, j2 = jcat.dom[psi], jcat.cod[psi]
            coeff_action[(i, psi)] = decode_chain_map(
                entry[2], where, complexes[(i, j1)], complexes[(i, j2)])
        try:
            return BiFunctorComplex(icat, jcat, complexes,
                                    index_action, coeff_action)
        except ValueError as err:
            _fail(path, str(err))
    _fail(path, f"unknown bifunctor kind {kind!r}")


def encode_seqspec(spec: GradedSeqSpec):
    def tail(tag_pair):
        tag, bound = tag_pair
        return tag if bound is None else [tag, str(bound)]

    return {"m_prefix": [str(v) for v in spec.m_prefix],
            "m_tail": tail(spec.m_tail),
            "n_prefix": [str(v) for v in spec.n_prefix],
            "n_tail": tail(spec.n_tail),
            "profile": {str(q): encode_abelian(g)
                        for q, g in sorted(spec.profile.items())},
            "profile_floor": str(spec.profile_floor),
            "degree": str(spec.degree)}


def decode_seqspec(data, path):
    def tail(raw, where):
        if isinstance(raw, str):
            return raw
        if isinstance(raw, list) and len(raw) == 2:
            return (raw[0], _int_in(raw[1], where))
        _fail(where, f"unrecognized tail {raw!r}")

    profile = {}
    for key, grp in data.get("profile", {}).items():
        q = _int_in(key, f"{path}.profile")
        profile[q] = decode_abelian(grp, f"{path}.profile.{key}")
    try:
        return GradedSeqSpec(
            [_int_in(v, f"{path}.m_prefix")
             for v in _require(data, "m_prefix", path, list)],
            tail(_require(data, "m_tail", path, (str, list)),
                 f"{path}.m_tail"),
            [_int_in(v, f"{path}.n_prefix")
             for v in _require(data, "n_prefix", path, list)],
            tail(_require(data, "n_tail", path, (str, list)),
                 f"{path}.n_tail"),
            profile,
            _int_in(data.get("profile_floor", "0"), f"{path}.profile_floor"),
            _int_in(_require(data, "degree", path), f"{path}.degree"))
    except ValueError as err:
        _fail(path, str(err))


# ---------------------------------------------------------------------------
# Manifest
# ---------------------------------------------------------------------------


class Manifest:
    """Parsed scenario: one object per section, modules and sequences named."""

    __slots__ = ("version", "raw", "digest", "sections")

    def __init__(self, version, raw, digest, sections):
        self.version = version
        self.raw = raw
        self.digest = digest
        self.sections = sections

    def get(self, name):
        return self.sections.get(name)

    def need(self, name, command):
        if name not in self.sections:
            raise ManifestError(
                f"command {command!r} needs the {name!r} section, which the "
                "manifest does not provide")
        return self.sections[name]


def _digest(raw):
    canonical = json.dumps(raw, sort_keys=True, separators=(",", ":"),
                           ensure_ascii=False)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def parse_manifest(text: str) -> Manifest:
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as err:
        raise ManifestError(
            f"syntax error at line {err.lineno} column {err.colno}: "
            f"{err.msg}") from err
    if not isinstance(raw, dict):
        raise ManifestError("manifest must be a JSON object")
    for key in raw:
        if key != "version" and key not in SECTIONS:
            raise ManifestError(f"unknown section {key!r}")
    version = raw.get("version", "1")
    ctx = {}
    if "group" in raw:
        ctx["group"] = decode_group(raw["group"], "group")
    if "family" in raw:
        if "group" not in ctx:
            raise ManifestError(
                "family: dangling reference, no group section")
        ctx["family"] = decode_family(raw["family"], "family", ctx["group"])
    if "category" in raw:
        ctx["category"] = decode_category(raw["category"], "category", ctx)
    if "module" in raw:
        if "category" not in ctx:
            raise ManifestError(
                "module: dangling reference, no category section")
        if not isinstance(raw["module"], dict):
            raise ManifestError("module: expected a named map of modules")
        ctx["module"] = {
            name: decode_module(spec, f"module.{name}", ctx["category"])
            for name, spec in raw["module"].items()}
    if "complex" in raw:
        ctx["complex"] = decode_complex(raw["complex"], "complex", ctx)
    if "icw" in raw:
        ctx["icw"] = decode_icw(raw["icw"], "icw", ctx)
    if "gcw" in raw:
        ctx["gcw"] = decode_gcw(raw["gcw"], "gcw", ctx)
    if "bifunctor" in raw:
        ctx["bifunctor"] = decode_bifunctor(raw["bifunctor"], "bifunctor", ctx)
    if "sequences" in raw:
        if not isinstance(raw["sequences"], dict):
            raise ManifestError("sequences: expected a named map of specs")
        ctx["sequences"] = {
            name: decode_seqspec(spec, f"sequences.{name}")
            for name, spec in raw["sequences"].items()}
    if "instance" in raw:
        ctx["instance"] = _decode_instance(raw["instance"], "instance", ctx)
    return Manifest(version, raw, _digest(raw), ctx)


def _decode_instance(data, path, ctx):
    if not isinstance(data, dict):
        _fail(path, f"expected an object, got {type(data).__name__}")
    for need in ("category", "group", "family", "gcw", "bifunctor"):
        if need not in ctx:
            _fail(path, f"dangling reference, no {need} section")
    source = data.get("free_complex", "icw" if "icw" in ctx else "complex")
    if source == "icw":
        if "icw" not in ctx:
            _fail(f"{path}.free_complex", "dangling reference, no icw section")
        free_complex = cellular_chain_complex(ctx["icw"])
    elif source == "complex":
        if "complex" not in ctx:
            _fail(f"{path}.free_complex",
                  "dangling reference, no complex section")
        free_complex = ctx["complex"]
        if not isinstance(free_complex, CatChainComplex):
            _fail(f"{path}.free_complex",
                  "the complex section must hold a functor complex")
    else:
        _fail(f"{path}.free_complex",
              f"must be 'icw' or 'complex', got {source!r}")
    mode = data.get("mode", STRICT)
    truncated = data.get("coeff_truncated", False)
    if not isinstance(truncated, bool):
        _fail(f"{path}.coeff_truncated", "must be a JSON boolean")
    try:
        return TheoremInstance(
            ctx["category"], free_complex, ctx["group"], ctx["family"],
            ctx["gcw"], ctx["bifunctor"],
            _int_in(_require(data, "top_degree", path), f"{path}.top_degree"),
            _int_in(_require(data, "through_degree", path),
                    f"{path}.through_degree"),
            _int_in(data.get("vanishing_floor", "0"),
                    f"{path}.vanishing_floor"),
            mode, truncated)
    except ValueError as err:
        _fail(path, str(err))


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------


class Report:
    """Deterministic verdict document plus the human rendering."""

    __slots__ = ("command", "digest", "verdicts", "witnesses", "groups")

    def __init__(self, command, digest):
        self.command = command
        self.digest = digest
        self.verdicts = []
        self.witnesses = []
        self.groups = []

    def verdict(self, name, passed, detail=""):
        self.verdicts.append(
            {"name": name, "passed": bool(passed), "detail": detail})

    def witness(self, text):
        self.witnesses.append(str(text))

    def group(self, name, g: FpAbGroup):
        self.groups.append({"name": name, "value": format_group(g)})

    @property
    def passed(self):
        return all(v["passed"] for v in self.verdicts)

    def to_json(self) -> str:
        doc = {"command": self.command, "inputs": self.digest,
               "verdicts": self.verdicts, "witnesses": self.witnesses,
               "groups": self.groups}
        return json.dumps(doc, indent=2, sort_keys=True,
                          ensure_ascii=False) + "\n"

    def human(self) -> str:
        lines = [f"command: {self.command}", f"inputs: {self.digest}"]
        for v in self.verdicts:
            mark = "PASS" if v["passed"] else "FAIL"
            detail = f" — {v['detail']}" if v["detail"] else ""
            lines.append(f"  {mark}  {v['name']}{detail}")
        for g in self.groups:
            lines.append(f"  {g['name']} = {g['value']}")
        for w in self.witnesses:
            lines.append(f"  witness: {w}")
        failed = sum(1 for v in self.verdicts if not v["passed"])
        lines.append("all verdicts pass" if not failed
                     else f"{failed} verdict(s) failed")
        return "\n".join(lines) + "\n"


_BUILTIN_DIGEST = "builtin"


# ---------------------------------------------------------------------------
# Command implementations
# ---------------------------------------------------------------------------


def _cmd_validate(manifest, args):
    rep = Report("validate", manifest.digest)
    present = [s for s in SECTIONS if manifest.get(s) is not None]
    if not present:
        raise ManifestError("nothing to validate: no sections present")
    for name in present:
        obj = manifest.get(name)
        problems = []
        if name == "category":
            problems = validate_category(obj)
        elif name == "module":
            for mod_name, mod in sorted(obj.items()):
                problems.extend(
                    f"{mod_name}: {p}" for p in validate_module(mod))
        elif name == "bifunctor":
            problems = validate_bifunctor(obj)
        rep.verdict(f"section {name}", not problems,
                    "parses and validates" if not problems
                    else f"{len(problems)} violation(s)")
        for p in problems:
            rep.witness(f"{name}: {p}")
    return rep


def _degrees_arg(args, lo, hi):
    if args.degree is None:
        return list(range(lo, hi + 1))
    return [args.degree]


def _cmd_homology(manifest, args):
    rep = Report("homology", manifest.digest)
    cx = manifest.need("complex", "homology")
    if isinstance(cx, PlainChainComplex):
        for p in _degrees_arg(args, cx.lo, cx.hi):
            rep.group(f"H_{p}", homology(cx, p))
    else:
        for p in _degrees_arg(args, cx.lo, cx.hi):
            for obj in cx.base.objects:
                rep.group(f"H_{p}({obj!r})", homology(cx.evaluate_at(obj), p))
    rep.verdict("homology computed", True,
                f"{len(rep.groups)} group(s)")
    return rep


def _cmd_bredon(manifest, args):
    rep = Report("bredon", manifest.digest)
    x = manifest.need("gcw", "bredon")
    modules = manifest.need("module", "bredon")
    if "coefficients" not in modules:
        raise ManifestError(
            "bredon needs a module named 'coefficients' in the module section")
    coeff = modules["coefficients"]
    for p in _degrees_arg(args, 0, x.dimension):
        rep.group(f"H_{p}", bredon_homology(x, coeff, p))
    rep.verdict("Bredon homology computed", True,
                f"{len(rep.groups)} group(s)")
    return rep


def _two_modules(manifest, command):
    modules = manifest.need("module", command)
    for name in ("left", "right"):
        if name not in modules:
            raise ManifestError(
                f"{command} needs modules named 'left' and 'right'")
    return modules["left"], modules["right"]


def _cmd_tensor(manifest, args):
    rep = Report("tensor", manifest.digest)
    left, right = _two_modules(manifest, "tensor")
    rep.group("left ⊗ right over the category", CatTensor(left, right).group)
    rep.verdict("tensor computed", True)
    return rep


def _cmd_hom(manifest, args):
    rep = Report("hom", manifest.digest)
    left, right = _two_modules(manifest, "hom")
    rep.group("natural transformations left => right",
              CatHomGroup(left, right).group)
    rep.verdict("hom computed", True)
    return rep


def _cmd_tor(manifest, args):
    rep = Report("tor", manifest.digest)
    left, right = _two_modules(manifest, "tor")
    p = 1 if args.degree is None else args.degree
    rep.group(f"Tor_{p}(left, right)", tor(left, right, p))
    rep.verdict("tor computed", True)
    return rep


def _cmd_verify_theorem(manifest, args):
    rep = Report("verify-theorem", manifest.digest)
    inst = manifest.need("instance", "verify-theorem")
    mode = {None: None, "strict": STRICT, "almost": ALMOST}[args.mode]
    hyp = check_hypotheses(inst)
    rep.verdict("hypothesis A: degree support", hyp.a.passed, hyp.a.note)
    for w in hyp.a.witnesses:
        rep.witness(f"support outside window at degree {w}")
    rep.verdict("hypothesis B: coefficient vanishing", hyp.b.passed,
                hyp.b.note)
    for i, j, q, grp in hyp.b.witnesses:
        rep.witness(f"H_{q} of E({i!r}, {j!r}) = {format_group(grp)}")
    rep.verdict("hypothesis C: properness", hyp.c.passed, hyp.c.note)
    rep.verdict("hypothesis D: fixed-set quotients finitely generated",
                hyp.d.passed, hyp.d.note)
    for item in hyp.d.witnesses:
        label, p, grp = item
        if p is None:
            rep.witness(f"subgroup {label!r}: {grp}")
        else:
            rep.group(f"fixed-quotient H_{p} at {label!r}", grp)
    factor = sub_factorization_check(inst.group, inst.family,
                                     inst.coefficients)
    rep.verdict("subgroup-category factorization", factor.passed,
                f"{factor.classes_checked} collapsed class(es) checked")
    for i, ref, other, q in factor.violations:
        rep.witness(f"index {i!r}: {ref!r} and {other!r} disagree on H_{q}")
    if hyp.passed:
        cmp_rep = verify_comparison(inst, mode=mode)
        for p, m in sorted(cmp_rep.per_degree.items()):
            ok = m.kind == "isomorphism" or (
                cmp_rep.mode == ALMOST and m.kind == "almost-isomorphism")
            rep.verdict(f"comparison map in degree {p}: {m.kind}", ok)
            if not (m.kernel.is_trivial() and m.cokernel.is_trivial()):
                rep.group(f"kernel in degree {p}", m.kernel)
                rep.group(f"cokernel in degree {p}", m.cokernel)
    else:
        rep.verdict("comparison map", False,
                    "not attempted: hypotheses failed")
    return rep


_CANONICAL_SPECS = (
    ("divergent-upper", GradedSeqSpec(
        (0, 1), "strictly-increasing-unbounded", (0, 2), ("bounded-by", 5),
        {0: FpAbGroup.free(1), 3: FpAbGroup.cyclic(2)}, 0, 1)),
    ("constant-upper", GradedSeqSpec(
        (2, 2), ("bounded-by", 2), (0, 1, 3), "strictly-increasing-unbounded",
        {2: FpAbGroup.cyclic(4)}, 0, 1)),
    ("both-divergent", GradedSeqSpec(
        (0,), "strictly-increasing-unbounded",
        (0,), "strictly-increasing-unbounded",
        {5: FpAbGroup.cyclic(3)}, 2, 0)),
)


def _cmd_demo_interchange(manifest, args):
    digest = manifest.digest if manifest else _BUILTIN_DIGEST
    rep = Report("demo-interchange", digest)
    if manifest and manifest.get("sequences"):
        specs = sorted(manifest.get("sequences").items())
    else:
        specs = _CANONICAL_SPECS
    label = {True: "surjective", False: "not surjective", None: "undecided"}
    for name, spec in specs:
        result = interchange_criterion(spec)
        rep.verdict(f"{name}: symbolic tail verdict "
                    f"{label[result.surjective_symbolic]}", True,
                    result.reason)
        rep.verdict(f"{name}: finite window {result.window} injective",
                    result.injective)
        rep.group(f"{name}: window source", result.source)
    return rep


def _cmd_demo_tor_probe(manifest, args):
    digest = manifest.digest if manifest else _BUILTIN_DIGEST
    rep = Report("demo-tor-probe", digest)
    for n_top in range(2, 9):
        result = tor_interchange_probe(2, 8, n_top)
        rep.verdict(f"diagonal witness order at N={n_top} is 2^{n_top}",
                    result.delta_order == 2 ** n_top,
                    f"order {result.delta_order}")
    for m_top in range(2, 6):
        for n_top in range(2, 6):
            result = tor_interchange_probe(2, m_top, n_top)
            rep.verdict(
                f"M={m_top} N={n_top}: membership iff M >= N",
                result.membership_boundary and result.window_iso,
                "in the block image" if result.membership
                else "blocked by the diagonal witness")
    return rep


def _cmd_demo_classifying(manifest, args):
    digest = manifest.digest if manifest else _BUILTIN_DIGEST
    rep = Report("demo-classifying", digest)
    picks = []
    if args.model in (None, "both", "N"):
        picks.append(("N", args.truncation if args.truncation else 6))
    if args.model in (None, "both", "RF"):
        picks.append(("RF", args.truncation if args.truncation else 4))
    for kind, k in picks:
        model = classifying_model(kind, k)
        counts = ", ".join(f"{len(model.cells.get(n, ()))} in degree {n}"
                           for n in range(model.dimension + 1))
        rep.verdict(f"{kind} model at truncation {k} built", True,
                    f"cells: {counts}")
        if kind == "RF":
            rep.verdict(f"{kind} model dimension exactly 2",
                        model.dimension == 2)
        check = contractibility_check(model, model.truncation_valid)
        rep.verdict(
            f"{kind} model contractible through degree "
            f"{check.checked_through}", check.passed)
        for obj, p, grp in check.failures:
            rep.witness(f"{kind}: H_{p} at {obj!r} = {format_group(grp)}")
    return rep


def _cmd_borel_check(manifest, args):
    rep = Report("borel-check", manifest.digest)
    x = manifest.need("gcw", "borel-check")
    group = manifest.need("group", "borel-check")
    if args.truncation is None:
        raise ManifestError("borel-check needs --truncation")
    result = borel_vs_quotient_check(group, x, args.truncation)
    for p, (ker, coker, ann, ok) in sorted(result.per_degree.items()):
        rep.verdict(f"degree {p}: discrepancy annihilated by {ann}", ok)
        rep.group(f"kernel in degree {p}", ker)
        rep.group(f"cokernel in degree {p}", coker)
    rep.verdict(f"reliable through degree {result.valid_through}", True)
    return rep


_DISPATCH = {
    "validate": _cmd_validate,
    "homology": _cmd_homology,
    "bredon": _cmd_bredon,
    "tor": _cmd_tor,
    "tensor": _cmd_tensor,
    "hom": _cmd_hom,
    "verify-theorem": _cmd_verify_theorem,
    "demo-interchange": _cmd_demo_interchange,
    "demo-tor-probe": _cmd_demo_tor_probe,
    "demo-classifying": _cmd_demo_classifying,
    "borel-check": _cmd_borel_check,
}

_DEMO_COMMANDS = {"demo-interchange", "demo-tor-probe", "demo-classifying"}


def run(command: str, manifest, args=None) -> Report:
    """Dispatch a command against a parsed manifest (None for pure demos)."""
    if command not in _DISPATCH:
        raise ManifestError(f"unknown command {command!r}")
    if manifest is None and command not in _DEMO_COMMANDS:
        raise ManifestError(f"command {command!r} needs --manifest")
    if args is None:
        args = argparse.Namespace(degree=None, truncation=None, mode=None,
                                  model=None)
    try:
        return _DISPATCH[command](manifest, args)
    except ManifestError:
        raise
    except ValueError as err:
        raise ManifestError(str(err)) from err


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="orbifunctor",
        description="exact homological-algebra workbench over finite small "
                    "categories")
    sub = parser.add_subparsers(dest="command", required=True)
    for command in COMMANDS:
        p = sub.add_parser(command)
        p.add_argument("--manifest", help="path to a JSON manifest",
                       default=None)
        p.add_argument("--degree", type=int, default=None,
                       help="single degree to report (default: all)")
        p.add_argument("--truncation", type=int, default=None,
                       help="truncation parameter for windowed constructions")
        p.add_argument("--mode", choices=("strict", "almost"), default=None,
                       help="finite-generation bookkeeping mode")
        p.add_argument("--report", default=None,
                       help="write the machine-readable report here")
        if command == "demo-classifying":
            p.add_argument("--model", choices=("N", "RF", "both"),
                           default=None, help="which window model to build")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if not hasattr(args, "model"):
        args.model = None
    started = time.perf_counter()
    try:
        manifest = None
        if args.manifest is not None:
            try:
                with open(args.manifest, encoding="utf-8") as fh:
                    text = fh.read()
            except OSError as err:
                print(f"error: cannot read manifest: {err}", file=sys.stderr)
                return 2
            manifest = parse_manifest(text)
        report = run(args.command, manifest, args)
    except ManifestError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    elapsed = time.perf_counter() - started
    sys.stdout.write(report.human())
    if args.report:
        with open(args.report, "w", encoding="utf-8") as fh:
            fh.write(report.to_json())
    print(f"timing: {elapsed:.3f}s", file=sys.stderr)
    return 0 if report.passed else 1


if __name__ == "__main__":
    sys.exit(main())
