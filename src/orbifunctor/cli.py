"""Manifest parsing and command dispatch.

Every computation the package offers is reproducible from a flat JSON
manifest.  A manifest is one JSON object with a "version" field and any of
the sections group, family, category, module, complex, icw, gcw, bifunctor,
instance, sequences.  Sections reference each other implicitly: the family
belongs to the group section, modules live over the category section, the
instance is assembled from all of them.  Integers are serialized as decimal
strings of unbounded length; tuples become JSON arrays.  Labels (group
elements, category objects and morphisms) must be distinct, hashable and
mutually orderable once arrays become tuples.

Section shapes (decimal strings everywhere an integer appears):

  group      {"kind": "cyclic"|"symmetric"|"dihedral", "n": "2"}
             {"kind": "trivial"}
             {"kind": "permutations", "generators": [[perm]...]}
             {"kind": "table", "elements": [...], "table": [[idx]...]}
                         (a checked group of at most GROUP_ORDER_BOUND elements)
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
from itertools import product
from json.encoder import encode_basestring

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
    CatHomGroup,
    CatModule,
    CatTensor,
    ModuleMap,
    validate_module,
)
from .chainplex import (
    BiFunctorComplex,
    CatChainComplex,
    ChainMap,
    PlainChainComplex,
    cat_complex_concentrated,
    homology,
    tor,
    validate_bifunctor,
)
from .cellspaces import (
    CatCWComplex,
    GCWComplex,
    bredon_complex,
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
    degree_passes,
    interchange_criterion,
    sub_factorization_check,
    tor_interchange_probe,
    transport_pi0_module,
    verify_comparison,
)

SECTIONS = ("group", "family", "category", "module", "complex", "icw",
            "gcw", "bifunctor", "instance", "sequences")


class ManifestError(Exception):
    """Input-side failure: syntax, dangling reference, or validation."""


def _fail(path, message):
    raise ManifestError(f"{path}: {message}")


def _call(path, make, *args):
    """make(*args), a ValueError from it reported as an input error at path."""
    try:
        return make(*args)
    except ValueError as err:
        _fail(path, str(err))


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


_MISSING = object()


def _field(data, key, path, kind=None, default=_MISSING):
    """data[key] checked against `kind`; required unless given a default."""
    if not isinstance(data, dict):
        _fail(path, f"expected an object, got {type(data).__name__}")
    if key not in data:
        if default is _MISSING:
            _fail(path, f"missing field {key!r}")
        return default
    value = data[key]
    if kind is not None and not isinstance(value, kind):
        _fail(f"{path}.{key}",
              f"wrong type: expected {getattr(kind, '__name__', kind)}, "
              f"got {type(value).__name__}")
    return value


def _int_field(data, key, path, default=_MISSING):
    return _int_in(_field(data, key, path, default=default), f"{path}.{key}")


def _list_in(value, path, length=None):
    if not isinstance(value, list):
        _fail(path, f"expected a list, got {value!r}")
    if length is not None and len(value) != length:
        _fail(path, f"expected {length} entries, got {len(value)}")
    return value


def _each(data, key, path, labels):
    """(label, path, spec) for the list field `key`: one spec per label."""
    raw = _list_in(_field(data, key, path), f"{path}.{key}", len(labels))
    return [(x, f"{path}.{key}[{k}]", spec)
            for k, (x, spec) in enumerate(zip(labels, raw))]


def _triples(value, path, shape):
    """(path, entry) for each [a, b, c] entry of a JSON list."""
    for k, entry in enumerate(_list_in(value, path)):
        where = f"{path}[{k}]"
        if not isinstance(entry, list) or len(entry) != 3:
            _fail(where, f"expected {shape}, got {entry!r}")
        yield where, entry


def _labels(data, key, path, what):
    """A list field of distinct, hashable, mutually orderable labels."""
    labels = tuple(_tuplify(v) for v in _field(data, key, path, list))
    try:
        if len(set(sorted(labels))) == len(labels):
            return labels
    except TypeError:      # unorderable or unhashable: refused as below
        pass
    _fail(f"{path}.{key}",
          f"{what}s must be distinct, hashable and mutually orderable")


def _index(pool, value, path):
    k = _int_in(value, path)
    if not 0 <= k < len(pool):
        _fail(path, f"index {k} out of range")
    return pool[k]


def _member(value, path, pool, what):
    x = _tuplify(value)
    try:
        found = x in pool
    except TypeError:          # unhashable, so no key of a dict pool
        found = False
    if not found:
        _fail(path, f"{value!r} is not a {what}")
    return x


def _elements(value, path, group):
    """A JSON list of elements of `group`, as a tuple."""
    return tuple(_member(x, path, group.elements, "group element")
                 for x in _list_in(value, path))


def _needs(ctx, path, needs):
    for need in needs:
        if need not in ctx:
            _fail(path, f"dangling reference, no {need} section")


def _kind(data, path, ctx, kinds):
    """Decode by the row of `kinds` that data["kind"] names.

    A row is (sections the kind reads from ctx, builder(data, path, ctx)); a
    ValueError from the builder is an input error at `path`.
    """
    needs, build = kinds[_member(_field(data, "kind", path), f"{path}.kind",
                                 kinds, "known kind")]
    _needs(ctx, path, needs)
    return _call(path, build, data, path, ctx)


# ---------------------------------------------------------------------------
# Scalar object codecs
# ---------------------------------------------------------------------------


def encode_abelian(g: FpAbGroup):
    return {"rank": str(g.rank), "torsion": [str(t) for t in g.torsion]}


def decode_abelian(data, path):
    rank = _int_field(data, "rank", path)
    torsion = [_int_in(t, f"{path}.torsion[{k}]")
               for k, t in enumerate(_field(data, "torsion", path, list, []))]
    return _call(path, FpAbGroup, rank, torsion)


def encode_matrix(m: IntMatrix):
    return {"nrows": str(m.nrows), "ncols": str(m.ncols),
            "rows": [[str(x) for x in row] for row in m.rows]}


def decode_matrix(data, path):
    nrows = _int_field(data, "nrows", path)
    ncols = _int_field(data, "ncols", path)
    rows = _list_in(_field(data, "rows", path), f"{path}.rows", nrows)
    return IntMatrix(nrows, ncols, [
        [_int_in(x, f"{path}.rows[{r}][{c}]")
         for c, x in enumerate(_list_in(row, f"{path}.rows[{r}]", ncols))]
        for r, row in enumerate(rows)])


def _decode_hom(data, path, source, target):
    return _call(path, AbHom, source, target, decode_matrix(data, path))


# ---------------------------------------------------------------------------
# Group / family / category codecs
# ---------------------------------------------------------------------------


def encode_group(group: FinGroup):
    elements = list(group.elements)
    index = {e: k for k, e in enumerate(elements)}
    table = [[index[group.mult(a, b)] for b in elements] for a in elements]
    return {"kind": "table", "elements": _listify(elements), "table": table}


def _table_group(data, path, ctx):
    elements = _labels(data, "elements", path, "group element")
    table = {}
    for a, where, row in _each(data, "table", path, elements):
        for b, k in zip(elements, _list_in(row, where, len(elements))):
            table[(a, b)] = _index(elements, k, where)
    return FinGroup.from_table(elements, table)


def _permutation_group(data, path, ctx):
    where = f"{path}.generators"
    return FinGroup.from_permutations(
        [[_int_in(x, where) for x in _list_in(g, where)]
         for g in _field(data, "generators", path, list)])


def _sized(make, field):
    """A kind row built by make(the integer field `field`)."""
    return (), lambda data, path, ctx: make(_int_field(data, field, path))


_GROUP_KINDS = {
    "cyclic": _sized(FinGroup.cyclic, "n"),
    "symmetric": _sized(FinGroup.symmetric, "n"),
    "dihedral": _sized(FinGroup.dihedral, "n"),
    "trivial": ((), lambda data, path, ctx: FinGroup.trivial()),
    "permutations": ((), _permutation_group),
    "table": ((), _table_group),
}


def decode_group(data, path):
    return _kind(data, path, {}, _GROUP_KINDS)


def encode_family(family: SubgroupFamily):
    members = sorted(sorted(m) for m in family.members)
    return {"kind": "members", "members": _listify(members)}


def _listed_subgroups(field, make):
    def build(data, path, ctx):
        group = ctx["group"]
        return make(group, [frozenset(_elements(m, f"{path}.{field}", group))
                            for m in _field(data, field, path, list)])
    return (), build


_FAMILY_KINDS = {
    "all": ((), lambda data, path, ctx: SubgroupFamily.all(ctx["group"])),
    "trivial": ((), lambda data, path, ctx: SubgroupFamily.trivial(
        ctx["group"])),
    "members": _listed_subgroups("members", SubgroupFamily),
    "closure": _listed_subgroups("seeds", family_closure),
}


def decode_family(data, path, group):
    return _kind(data, path, {"group": group}, _FAMILY_KINDS)


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


def _explicit_category(data, path, ctx):
    objects = _labels(data, "objects", path, "object")
    morphisms = _labels(data, "morphisms", path, "morphism")

    def indices(key, pool, labels):
        return {x: _index(pool, k, where)
                for x, where, k in _each(data, key, path, labels)}

    table = {}
    for where, row in _triples(_field(data, "compose", path),
                               f"{path}.compose", "[f, g, fg]"):
        f, g, fg = (_index(morphisms, k, where) for k in row)
        table[(f, g)] = fg
    return FinCategory(objects, morphisms, indices("dom", objects, morphisms),
                       indices("cod", objects, morphisms), table,
                       indices("identities", morphisms, objects))


_CATEGORY_KINDS = {
    "chain": _sized(partial(standard_category, "chain"), "size"),
    "grid": _sized(partial(standard_category, "grid"), "size"),
    "orbit": (("group", "family"), lambda data, path, ctx: orbit_category(
        ctx["group"], ctx["family"])),
    "one-object": (("group",), lambda data, path, ctx: one_object_category(
        ctx["group"])),
    "explicit": ((), _explicit_category),
}


def decode_category(data, path, ctx):
    return _kind(data, path, ctx, _CATEGORY_KINDS)


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
    variance = _member(_field(data, "variance", path), f"{path}.variance",
                       ("co", "contra"), "variance, 'co' or 'contra'")
    values = {o: decode_abelian(spec, where)
              for o, where, spec in _each(data, "values", path, cat.objects)}
    actions = {}
    for f, where, spec in _each(data, "actions", path, cat.morphisms):
        a, b = cat.dom[f], cat.cod[f]
        src, tgt = (a, b) if variance == "co" else (b, a)
        actions[f] = _decode_hom(spec, where, values[src], values[tgt])
    return CatModule(cat, variance, values, actions)


def encode_plain_complex(c: PlainChainComplex):
    return {"kind": "plain", "lo": str(c.lo), "hi": str(c.hi),
            "groups": {str(p): encode_abelian(c.group(p))
                       for p in c.degrees()},
            "diffs": {str(p): encode_matrix(c.differential(p).matrix)
                      for p in c.degrees() if p > c.lo}}


def _graded(data, path, key, decode, decode_diff):
    """(lo, hi, objects, diffs) of a complex: decode(spec, path) reads the
    object of each degree in [lo, hi] from `key`, decode_diff(spec, path,
    source, target) each differential above lo from "diffs"."""
    lo, hi = _int_field(data, "lo", path), _int_field(data, "hi", path)

    def specs(field, first, default=_MISSING):
        raw = _field(data, field, path, dict, default)
        for p in range(first, hi + 1):
            if str(p) not in raw:
                _fail(f"{path}.{field}", f"missing degree {p}")
            yield p, raw[str(p)], f"{path}.{field}.{p}"

    objects = {p: decode(spec, where) for p, spec, where in specs(key, lo)}
    diffs = {p: decode_diff(spec, where, objects[p], objects[p - 1])
             for p, spec, where in specs("diffs", lo + 1, {})}
    return lo, hi, objects, diffs


def decode_plain_complex(data, path):
    return _call(path, PlainChainComplex,
                 *_graded(data, path, "groups", decode_abelian, _decode_hom))


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
    variance = _field(data, "variance", path)

    def module(spec, where):
        if _field(spec, "variance", where, default=variance) != variance:
            _fail(where, "variance differs from the complex")
        return decode_module({**spec, "variance": variance}, where, cat)

    def diff(mats, where, source, target):
        mats = _list_in(mats, where, len(cat.objects))
        return ModuleMap(source, target, {
            o: _decode_hom(spec, where, source.value(o), target.value(o))
            for o, spec in zip(cat.objects, mats)})

    return _call(path, CatChainComplex, cat, variance,
                 *_graded(data, path, "modules", module, diff))


_COMPLEX_KINDS = {
    "plain": ((), lambda data, path, ctx: decode_plain_complex(data, path)),
    "functor": (("category",), lambda data, path, ctx: decode_functor_complex(
        data, path, ctx["category"])),
}


def decode_complex(data, path, ctx):
    return _kind(data, path, ctx, _COMPLEX_KINDS)


def encode_chain_map(m: ChainMap):
    return {"components": {str(p): encode_matrix(f.matrix)
                           for p, f in m.components.items()}}


def decode_chain_map(data, path, source, target):
    components = {}
    for key, spec in _field(data, "components", path, dict).items():
        p = _int_in(key, f"{path}.components")
        components[p] = _decode_hom(spec, f"{path}.components.{key}",
                                    source.group(p), target.group(p))
    return _call(path, ChainMap, source, target, components)


# ---------------------------------------------------------------------------
# Cell-structure codecs
# ---------------------------------------------------------------------------


def _decode_cell_data(data, path, decode_label, decode_attach):
    """(cells, boundary) of a cell complex; decode_label reads each cell's
    label, decode_attach each boundary term's attaching data."""
    cells = {}
    for key, labs in _field(data, "cells", path, dict).items():
        where = f"{path}.cells.{key}"
        cells[_int_in(key, f"{path}.cells")] = tuple(
            decode_label(lab, where) for lab in _list_in(labs, where))
    boundary = {}
    for where, (n, i, terms) in _triples(
            _field(data, "boundary", path, default=[]), f"{path}.boundary",
            "[degree, cell, terms]"):
        boundary[(_int_in(n, where), _int_in(i, where))] = tuple(
            (_int_in(c, at), _int_in(j, at), decode_attach(attach, at))
            for at, (c, j, attach) in _triples(terms, f"{where}.terms",
                                               "[coeff, cell, attach]"))
    return cells, boundary


def _encode_cell_data(x):
    """The cells and boundary of either kind of cell complex, as
    `_decode_cell_data` reads them."""
    return {"cells": {str(n): _listify(labs)
                      for n, labs in sorted(x.cells.items())},
            "boundary": [[str(n), str(i),
                          [[str(c), str(j), _listify(attach)]
                           for c, j, attach in terms]]
                         for (n, i), terms in sorted(x.boundary.items())]}


def encode_icw(x: CatCWComplex):
    out = {"kind": "cells", **_encode_cell_data(x)}
    if x.truncation_valid is not None:
        out["truncation_valid"] = str(x.truncation_valid)
    return out


def _cells_icw(data, path, ctx):
    cat = ctx["category"]
    cells, boundary = _decode_cell_data(
        data, path, partial(_member, pool=cat.objects, what="base object"),
        partial(_member, pool=cat.morphisms, what="base morphism"))
    valid = _field(data, "truncation_valid", path, default=None)
    if valid is not None:
        valid = _int_in(valid, f"{path}.truncation_valid")
    return CatCWComplex(cat, cells, boundary, truncation_valid=valid)


def _classifying_icw(data, path, ctx):
    # one index category per manifest: the model stands over a category
    # section that names its standard category, and a section equal to the
    # model's base otherwise becomes its base, so later checks compare one
    # object; the cells, checked against the equal base, stand over it
    # unchanged
    cat = ctx.get("category")
    model = classifying_model(_field(data, "model", path),
                              _int_field(data, "truncation", path), cat)
    if cat is not None and model.base is not cat and cat == model.base:
        model.base = cat
    return model


_ICW_KINDS = {
    "classifying": ((), _classifying_icw),
    "cells": (("category",), _cells_icw),
}


def decode_icw(data, path, ctx):
    return _kind(data, path, ctx, _ICW_KINDS)


def encode_gcw(x: GCWComplex):
    return _encode_cell_data(x)


def decode_gcw(data, path, ctx):
    elements = partial(_elements, group=ctx["group"])
    return _call(path, GCWComplex, ctx["group"],
                 *_decode_cell_data(data, path, elements, elements))


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


def _constant_in_index(module, data, path, ctx):
    degree = _int_field(data, "degree", path, 0)
    return BiFunctorComplex.constant_in_index(
        ctx["category"], cat_complex_concentrated(module, degree))


def _constant_module(data, path, ctx):
    name = _member(_field(data, "module", path), f"{path}.module",
                   ctx["module"], "module name in the module section")
    return _constant_in_index(ctx["module"][name], data, path, ctx)


def _explicit_bifunctor(data, path, ctx):
    icat = ctx["category"]
    jcat = orbit_category(ctx["group"], ctx["family"])

    def entries(key, shape, pairs):
        """(pair, path, spec) of [a, b, spec] entries, one for each pair."""
        pool = dict.fromkeys(pairs)
        out = {}
        for where, (a, b, spec) in _triples(_field(data, key, path),
                                            f"{path}.{key}", shape):
            out[_member([a, b], where, pool, f"pair for {key}")] = where, spec
        for pair in pool:
            if pair not in out:
                _fail(f"{path}.{key}", f"no entry for {pair!r}")
        return [(pair, where, spec) for pair, (where, spec) in out.items()]

    complexes = {pair: decode_plain_complex(spec, where)
                 for pair, where, spec in entries(
                     "complexes", "[i, j, PLAIN]",
                     product(icat.objects, jcat.objects))}
    index_action = {
        (phi, j): decode_chain_map(spec, where, complexes[icat.cod[phi], j],
                                   complexes[icat.dom[phi], j])
        for (phi, j), where, spec in entries(
            "index_action", "[morphism, j, CHAINMAP]",
            product(icat.morphisms, jcat.objects))}
    coeff_action = {
        (i, psi): decode_chain_map(spec, where, complexes[i, jcat.dom[psi]],
                                   complexes[i, jcat.cod[psi]])
        for (i, psi), where, spec in entries(
            "coeff_action", "[i, morphism, CHAINMAP]",
            product(icat.objects, jcat.morphisms))}
    e = BiFunctorComplex(icat, jcat, complexes, index_action, coeff_action)
    problems = validate_bifunctor(e)
    if problems:
        _fail(path, problems[0])
    return e


_BIFUNCTOR_KINDS = {
    "transport-pi0": (("group", "family", "category"), lambda data, path, ctx:
                      _constant_in_index(transport_pi0_module(
                          ctx["group"], ctx["family"]), data, path, ctx)),
    "constant-module": (("category", "module"), _constant_module),
    "explicit": (("group", "family", "category"), _explicit_bifunctor),
}


def decode_bifunctor(data, path, ctx):
    return _kind(data, path, ctx, _BIFUNCTOR_KINDS)


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
    def prefix(key):
        return [_int_in(v, f"{path}.{key}")
                for v in _field(data, key, path, list)]

    def tail(key):
        raw = _field(data, key, path, (str, list))
        if isinstance(raw, str):
            return raw
        tag, bound = _list_in(raw, f"{path}.{key}", 2)
        return tag, _int_in(bound, f"{path}.{key}")

    profile = {_int_in(q, f"{path}.profile"): decode_abelian(
        g, f"{path}.profile.{q}")
        for q, g in _field(data, "profile", path, dict, {}).items()}
    return _call(path, GradedSeqSpec, prefix("m_prefix"), tail("m_tail"),
                 prefix("n_prefix"), tail("n_tail"), profile,
                 _int_field(data, "profile_floor", path, 0),
                 _int_field(data, "degree", path))


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


def _decode_instance(data, path, ctx):
    source = _member(_field(data, "free_complex", path,
                            default="icw" if "icw" in ctx else "complex"),
                     f"{path}.free_complex", ("icw", "complex"),
                     "free complex source, 'icw' or 'complex'")
    _needs(ctx, f"{path}.free_complex", (source,))
    free_complex = ctx[source]
    if source == "icw":
        free_complex = cellular_chain_complex(free_complex)
    elif not isinstance(free_complex, CatChainComplex):
        _fail(f"{path}.free_complex",
              "the complex section must hold a functor complex")
    return _call(
        path, TheoremInstance, ctx["category"], free_complex, ctx["group"],
        ctx["family"], ctx["gcw"], ctx["bifunctor"],
        _int_field(data, "top_degree", path),
        _int_field(data, "through_degree", path),
        _int_field(data, "vanishing_floor", path, 0),
        _field(data, "mode", path, default=STRICT),
        _field(data, "coeff_truncated", path, bool, False))


def _named(decode):
    """Decoder of a named map; decode(spec, path, ctx) reads each spec."""
    def decode_map(data, path, ctx):
        if not isinstance(data, dict):
            _fail(path, "expected a named map")
        return {name: decode(spec, f"{path}.{name}", ctx)
                for name, spec in data.items()}
    return decode_map


# (section, sections it reads, decoder(data, path, ctx)), in decode order
_DECODERS = (
    ("group", (), lambda data, path, ctx: decode_group(data, path)),
    ("family", ("group",), lambda data, path, ctx: decode_family(
        data, path, ctx["group"])),
    ("category", (), decode_category),
    ("module", ("category",), _named(lambda data, path, ctx: decode_module(
        data, path, ctx["category"]))),
    ("complex", (), decode_complex),
    ("icw", (), decode_icw),
    ("gcw", ("group",), decode_gcw),
    ("bifunctor", (), decode_bifunctor),
    ("sequences", (), _named(lambda data, path, ctx: decode_seqspec(
        data, path))),
    ("instance", ("category", "group", "family", "gcw", "bifunctor"),
     _decode_instance),
)


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
    ctx = {}
    for section, needs, decode in _DECODERS:
        if section in raw:
            _needs(ctx, section, needs)
            ctx[section] = decode(raw[section], section, ctx)
    return Manifest(raw.get("version", "1"), raw, _digest(raw), ctx)


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------


def _scalar(x) -> str:
    """x as json.dumps writes it with ensure_ascii=False."""
    if isinstance(x, str):
        return encode_basestring(x)
    return json.dumps(x)


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
        """The document that json.dumps writes with indent=2, sort_keys=True
        and ensure_ascii=False, written directly: its shape is fixed, and
        json.dumps indents through its pure-Python encoder."""
        def listed(entries):
            return "[\n" + ",\n".join(entries) + "\n  ]" if entries else "[]"

        def record(d):
            return "    {\n" + ",\n".join(
                f"      {_scalar(k)}: {_scalar(d[k])}" for k in sorted(d)) \
                + "\n    }"
        fields = (
            ("command", _scalar(self.command)),
            ("groups", listed([record(g) for g in self.groups])),
            ("inputs", _scalar(self.digest)),
            ("verdicts", listed([record(v) for v in self.verdicts])),
            ("witnesses", listed(["    " + _scalar(w)
                                  for w in self.witnesses])))
        return "{\n" + ",\n".join(f'  "{k}": {v}' for k, v in fields) \
            + "\n}\n"

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


# section -> its problems; a section not listed validates by parsing
_VALIDATORS = {
    "category": validate_category,
    "module": lambda modules: [f"{name}: {p}"
                               for name, mod in sorted(modules.items())
                               for p in validate_module(mod)],
    "bifunctor": validate_bifunctor,
}


def _cmd_validate(manifest, args, rep):
    present = [s for s in SECTIONS if manifest.get(s) is not None]
    if not present:
        raise ManifestError("nothing to validate: no sections present")
    for name in present:
        # `_explicit_bifunctor` refuses an explicit bifunctor with a problem
        explicit = (name == "bifunctor"
                    and manifest.raw[name]["kind"] == "explicit")
        problems = [] if explicit else _VALIDATORS.get(
            name, lambda obj: [])(manifest.get(name))
        rep.verdict(f"section {name}", not problems,
                    "parses and validates" if not problems
                    else f"{len(problems)} violation(s)")
        for p in problems:
            rep.witness(f"{name}: {p}")


def _degrees_arg(args, lo, hi):
    if args.degree is None:
        return list(range(lo, hi + 1))
    return [args.degree]


def _cmd_homology(manifest, args, rep):
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


def _cmd_bredon(manifest, args, rep):
    x = manifest.need("gcw", "bredon")
    modules = manifest.need("module", "bredon")
    if "coefficients" not in modules:
        raise ManifestError(
            "bredon needs a module named 'coefficients' in the module section")
    chains = bredon_complex(x, modules["coefficients"])
    for p in _degrees_arg(args, 0, x.dimension):
        rep.group(f"H_{p}", homology(chains, p))
    rep.verdict("Bredon homology computed", True,
                f"{len(rep.groups)} group(s)")


def _two_modules(manifest, command):
    modules = manifest.need("module", command)
    if not modules.keys() >= {"left", "right"}:
        raise ManifestError(f"{command} needs modules named 'left' and 'right'")
    return modules["left"], modules["right"]


def _cmd_tensor(manifest, args, rep):
    left, right = _two_modules(manifest, "tensor")
    rep.group("left ⊗ right over the category", CatTensor(left, right).group)
    rep.verdict("tensor computed", True)


def _cmd_hom(manifest, args, rep):
    left, right = _two_modules(manifest, "hom")
    rep.group("natural transformations left => right",
              CatHomGroup(left, right).group)
    rep.verdict("hom computed", True)


def _cmd_tor(manifest, args, rep):
    left, right = _two_modules(manifest, "tor")
    p = 1 if args.degree is None else args.degree
    rep.group(f"Tor_{p}(left, right)", tor(left, right, p))
    rep.verdict("tor computed", True)


def _cmd_verify_theorem(manifest, args, rep):
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
            rep.verdict(f"comparison map in degree {p}: {m.kind}",
                        degree_passes(m.kind, cmp_rep.mode))
            if not (m.kernel.is_trivial() and m.cokernel.is_trivial()):
                rep.group(f"kernel in degree {p}", m.kernel)
                rep.group(f"cokernel in degree {p}", m.cokernel)
    else:
        rep.verdict("comparison map", False,
                    "not attempted: hypotheses failed")


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


def _cmd_demo_interchange(manifest, args, rep):
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


def _cmd_demo_tor_probe(manifest, args, rep):
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


def _cmd_demo_classifying(manifest, args, rep):
    picks = [(kind, args.truncation or k) for kind, k in (("N", 6), ("RF", 4))
             if args.model in (None, "both", kind)]
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


def _cmd_borel_check(manifest, args, rep):
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

COMMANDS = tuple(_DISPATCH)
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
    rep = Report(command, manifest.digest if manifest else _BUILTIN_DIGEST)
    try:
        _DISPATCH[command](manifest, args, rep)
    except ManifestError:
        raise
    except ValueError as err:
        raise ManifestError(str(err)) from err
    return rep


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
                raise ManifestError(f"cannot read manifest: {err}") from err
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
