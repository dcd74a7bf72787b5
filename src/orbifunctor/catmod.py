"""Modules over a finite category: functors into f.p. abelian groups.

Covariant and contravariant modules, natural transformations, free modules
with marked bases, tensor product over the category and natural
transformation groups (both evaluations on the first factor's standard
presentation, then one cokernel or kernel), objectwise kernels/cokernels
with induced actions, restriction and induction along a functor, generating
covers, and the finite-product interchange map for finitely generated free
modules.  A free module's basis is held by the module itself (`free_gens`,
`free_basis`); free resolutions and Tor, which are chain complexes of such
modules, live in `chainplex`.

Every map between evaluations is one sparse matrix, written by the writers
beside `StandardPresentation`; a `CatTensor` or `CatHomGroup` is the
one-pair case of the total complexes of `chainplex`, written by the same.

Everything is presented over the exact integer layer, so all answers are
canonical forms with witnesses, never up-to-iso guesses.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import MutableMapping
from functools import partial

from .exact_abelian import (
    AbHom,
    DirectSum,
    FpAbGroup,
    HomBasis,
    IntMatrix,
    block_hom,
    express_in_kernel,
    hom_cokernel,
    hom_from_presentation,
    hom_image,
    hom_kernel,
    is_isomorphism,
)
from .fincat import CatFunctor, FinCategory

COVARIANT = "co"
CONTRAVARIANT = "contra"


class CatModule:
    """A functor from a finite category to finitely presented abelian groups.

    variance "co": action(f) maps value(dom f) -> value(cod f);
    variance "contra": action(f) maps value(cod f) -> value(dom f).

    Free modules built by free_module additionally carry `free_gens` (the flat
    tuple of base objects, one per generator), `free_basis` (per object, the
    ordered tuple of basis labels (generator index, morphism)) and
    `free_index` (per object, the position of each label).  Hom and tensor
    trust these markers; free_module is the only place that sets them, and it
    derives the values and actions from them.
    """

    __slots__ = ("cat", "variance", "values", "actions", "free_gens",
                 "free_basis", "free_index", "_columns")

    def __init__(self, cat, variance, values, actions):
        if variance not in (COVARIANT, CONTRAVARIANT):
            raise ValueError(f"variance must be 'co' or 'contra', got {variance!r}")
        self.cat = cat
        self.variance = variance
        self.values = dict(values)
        self.actions = dict(actions)
        self.free_gens = self.free_basis = self.free_index = None
        self._columns = {}

    def value(self, obj) -> FpAbGroup:
        return self.values[obj]

    def action(self, f) -> AbHom:
        return self.actions[f]

    def action_columns(self, f):
        """The columns of the action of f as {row: entry} dicts, built once;
        they are shared and must not be mutated."""
        cols = self._columns.get(f)
        if cols is None:
            if self.free_basis is not None:     # unit vectors at moved labels
                cols = tuple({k: 1} for k in _moved(
                    self.cat, self.variance == CONTRAVARIANT, self.free_basis,
                    self.free_index, f)[2])
            else:
                cols = self.actions[f].matrix.transpose().nonzeros
            self._columns[f] = cols
        return cols

    def is_free_marked(self):
        return self.free_basis is not None

    def total_rank(self):
        return sum(g.ngens for g in self.values.values())

    def __repr__(self):
        kind = "free " if self.is_free_marked() else ""
        return (f"CatModule({kind}{self.variance}, "
                f"{len(self.cat.objects)} objects)")


def _action_endpoints(module, f):
    # (object acted from, object acted to) of the morphism f
    a, b = module.cat.dom[f], module.cat.cod[f]
    if module.variance == COVARIANT:
        return a, b
    return b, a


def validate_module(module: CatModule) -> list:
    """Exhaustive functoriality check; returns problems, [] when valid."""
    problems = []
    cat = module.cat
    for c in cat.objects:
        if c not in module.values:
            problems.append(f"no value at object {c!r}")
    for f in cat.morphisms:
        act = module.actions.get(f)
        if act is None:
            problems.append(f"no action for morphism {f!r}")
            continue
        src_obj, tgt_obj = _action_endpoints(module, f)
        if act.source != module.values[src_obj] or act.target != module.values[tgt_obj]:
            problems.append(f"action of {f!r} has wrong source/target groups")
    if problems:
        return problems
    for c in cat.objects:
        if module.actions[cat.ids[c]] != AbHom.identity(module.values[c]):
            problems.append(f"action of the identity at {c!r} is not the identity")
    for (f, g), h in cat.table.items():
        if module.variance == COVARIANT:
            expect = module.actions[g].compose(module.actions[f])
        else:
            expect = module.actions[f].compose(module.actions[g])
        if module.actions[h] != expect:
            problems.append(f"functoriality fails on composable pair "
                            f"({f!r}, {g!r})")
            return problems
    return problems


def constant_module(cat: FinCategory, group: FpAbGroup,
                    variance=COVARIANT) -> CatModule:
    ident = AbHom.identity(group)
    return CatModule(cat, variance, {c: group for c in cat.objects},
                     {f: ident for f in cat.morphisms})


def zero_module(cat: FinCategory, variance=COVARIANT) -> CatModule:
    return constant_module(cat, FpAbGroup.zero(), variance)


class ModuleMap:
    """Natural transformation between same-base same-variance modules.

    Naturality is not checked on construction; `validate_module_map`,
    `natural_from` and `defect` check it.  The last two remember their
    answers, so a map that is reused (a differential) is checked once.

    `images` is set by `free_map_from_images` alone: the value of the map
    at each generator (k, id_{c_k}) of its free-marked source, as a
    {coordinate: entry} dict, when the map is the transformation these
    values determine.  Such a map builds each component on its first read.
    """

    __slots__ = ("source", "target", "components", "images", "_memo")

    def __init__(self, source: CatModule, target: CatModule, components):
        if source.cat is not target.cat and source.cat != target.cat:
            raise ValueError("modules live over different categories")
        if source.variance != target.variance:
            raise ValueError("variance mismatch")
        self.source = source
        self.target = target
        self.components = dict(components)
        self.images = None
        self._memo = {}

    def natural_from(self, obj) -> bool:
        """Whether the naturality square of every morphism acting from obj
        commutes."""
        key = ("from", obj)
        if key not in self._memo:
            cat = self.source.cat
            mors = cat.mor_from if self.source.variance == COVARIANT else cat.mor_to
            self._memo[key] = all(_square_commutes(self, f) for f in mors(obj))
        return self._memo[key]

    def defect(self):
        """For a map out of a free-marked module: the triples (object w,
        basis position j, difference in target(w)) at which the map differs
        from the transformation that its values at the marked generators
        determine, empty exactly when the map is natural.  Empty for a
        source without markers, whose every point is a generator of its
        standard presentation."""
        if "defect" not in self._memo:
            self._memo["defect"] = _yoneda_defect(self)
        return self._memo["defect"]

    @classmethod
    def identity(cls, module):
        return cls(module, module,
                   {c: AbHom.identity(module.values[c]) for c in module.cat.objects})

    @classmethod
    def zero(cls, source, target):
        return cls(source, target,
                   {c: AbHom.zero(source.values[c], target.values[c])
                    for c in source.cat.objects})

    def component(self, obj) -> AbHom:
        return self.components[obj]

    def compose(self, first: "ModuleMap") -> "ModuleMap":
        """self ∘ first."""
        return ModuleMap(first.source, self.target,
                         {c: self.components[c].compose(first.components[c])
                          for c in self.source.cat.objects})

    def add(self, other):
        return ModuleMap(self.source, self.target,
                         {c: self.components[c].add(other.components[c])
                          for c in self.source.cat.objects})

    def negate(self):
        return ModuleMap(self.source, self.target,
                         {c: self.components[c].negate()
                          for c in self.source.cat.objects})

    def is_zero(self):
        return all(h.is_zero() for h in self.components.values())

    def __eq__(self, other):
        return (isinstance(other, ModuleMap)
                and self.components == other.components)

    def __repr__(self):
        return f"ModuleMap({self.source!r} -> {self.target!r})"


def validate_module_map(mm: ModuleMap) -> list:
    """Naturality check over every morphism; returns problems, [] when valid
    or already known natural."""
    cat = mm.source.cat
    if all(mm._memo.get(("from", c)) for c in cat.objects):
        return []
    problems = []
    for c in cat.objects:
        comp = mm.components.get(c)
        if comp is None:
            problems.append(f"no component at {c!r}")
        elif comp.source != mm.source.values[c] or comp.target != mm.target.values[c]:
            problems.append(f"component at {c!r} has wrong endpoints")
    if problems:
        return problems
    for f in cat.morphisms:
        if not _square_commutes(mm, f):
            problems.append(f"naturality fails at morphism {f!r}")
            return problems
    mm._memo.update((("from", c), True) for c in cat.objects)
    return problems


def _square_commutes(mm: ModuleMap, f) -> bool:
    s, t = _action_endpoints(mm.source, f)
    a, b = mm.target.actions[f].matrix, mm.source.actions[f].matrix
    if mm.components[s] is mm.components[t] and a.is_identity() \
            and b.is_identity():
        return True     # one component between two identity actions
    reduce = mm.target.values[t].reduce_matrix
    return (reduce(a * mm.components[s].matrix)
            == reduce(mm.components[t].matrix * b))


def _yoneda_defect(mm: ModuleMap):
    # compare each component with that of the transformation sending each
    # generator i to the value of mm at (i, id_{c_i}); a module without
    # markers has a generator at each point of its standard presentation,
    # so nothing to compare
    free, target = mm.source, mm.target
    if not free.is_free_marked():
        return []
    ids = free.cat.ids
    yoneda = free_map_from_images(free, target, [
        mm.components[c].matrix.column(free.free_index[c][(i, ids[c])])
        for i, c in enumerate(free.free_gens)])
    out = []
    for w in free.cat.objects:
        have, want = mm.components[w].matrix, yoneda.components[w].matrix
        if have != want:
            for j, col in enumerate((want - have).columns()):
                diff = target.values[w].reduce(col)
                if any(diff):
                    out.append((w, j, diff))
    return out


# ---------------------------------------------------------------------------
# Free modules
# ---------------------------------------------------------------------------


def free_module(cat: FinCategory, gens, variance=CONTRAVARIANT) -> CatModule:
    """The free module on one generator per listed object, marked free.

    Contravariant: value at w is free on the disjoint union of mor(w, c_i),
    with morphisms acting by precomposition.  Covariant: mor(c_i, w) and
    postcomposition.  Basis order is generator index first, then the stable
    morphism order of the category; `free_gens` of the result lists the
    generators' objects.  Each action is built on its first read.
    """
    gens = tuple(gens)
    objset = set(cat.objects)
    for c in gens:
        if c not in objset:
            raise ValueError(f"unknown object {c!r}")
    contra = variance == CONTRAVARIANT
    # the basis at w: the labels (i, φ) with φ in mor(w, c_i) (contravariant)
    # or mor(c_i, w) (covariant), generator index first
    basis = {w: tuple((i, phi) for i, c in enumerate(gens)
                      for phi in (cat.mor(w, c) if contra else cat.mor(c, w)))
             for w in cat.objects}
    index = {w: {lab: k for k, lab in enumerate(basis[w])} for w in cat.objects}
    values = {w: FpAbGroup.free(len(basis[w])) for w in cat.objects}
    module = CatModule(cat, variance, values, {})
    module.free_gens, module.free_basis, module.free_index = gens, basis, index

    def action(f):  # no reference to module: a cycle waits for the collector
        s, t, positions = _moved(cat, contra, basis, index, f)
        return AbHom(values[s], values[t], IntMatrix.selection(
            len(basis[t]), positions), check=False)
    module.actions = _LazyActions(cat.morphisms, action)
    return module


def _moved(cat, contra, basis, index, f):
    """(s, t, positions): f acts on the free module with these markers from
    s to t, moving the basis label k of s to the label positions[k] of t."""
    s, t = (cat.cod[f], cat.dom[f]) if contra else (cat.dom[f], cat.cod[f])
    return s, t, [index[t][(i, cat.compose(f, phi) if contra
                            else cat.compose(phi, f))] for i, phi in basis[s]]


def _acted(module: CatModule, vec, f):
    """The action of f on vec, both {coordinate: entry} dicts; on a
    free-marked module one composite per term moves its label."""
    out = {}
    if module.free_basis is not None:
        cat, contra = module.cat, module.variance == CONTRAVARIANT
        s, t = _action_endpoints(module, f)
        basis, index = module.free_basis[s], module.free_index[t]
        for b, x in vec.items():
            k, phi = basis[b]
            r = index[(k, cat.compose(f, phi) if contra
                       else cat.compose(phi, f))]
            out[r] = out.get(r, 0) + x
    else:
        cols = module.action_columns(f)
        for b, x in vec.items():
            for r, y in cols[b].items():
                out[r] = out.get(r, 0) + x * y
    return {r: x for r, x in out.items() if x}


class _LazyActions(MutableMapping):
    """Each key's value (a morphism's action, a map's component), built by
    build(key) on its first read (most are never read); assignment and
    deletion act as on a dict."""

    __slots__ = ("_acts", "_build")

    def __init__(self, keys, build):
        self._acts = dict.fromkeys(keys)     # None until built
        self._build = build

    def __getitem__(self, f):
        act = self._acts[f]
        if act is None:
            act = self._acts[f] = self._build(f)
        return act

    def __setitem__(self, f, act):
        self._acts[f] = act

    def __delitem__(self, f):
        del self._acts[f]

    def __iter__(self):
        return iter(self._acts)

    def __len__(self):
        return len(self._acts)


def free_map_from_images(free: CatModule, target: CatModule,
                         images) -> ModuleMap:
    """The module map out of a marked free module sending generator i (sitting
    at base object c_i) to the given element of target(c_i).  Its component
    at w is built on its first read: the column of label (i, φ) is the
    action of φ on image i."""
    if not free.is_free_marked():
        raise ValueError("source carries no free marker")
    if len(images) != len(free.free_gens):
        raise ValueError("one image per generator required")
    sparse = []
    for img, c in zip(images, free.free_gens):
        if len(img) != target.values[c].ngens:
            raise ValueError(f"image of a generator at {c!r} has the wrong length")
        sparse.append({b: x for b, x in enumerate(target.values[c].reduce(img))
                       if x})
    mm = ModuleMap(free, target, {})
    # no reference to mm: a cycle waits for the collector
    mm.components = _LazyActions(free.cat.objects, partial(
        _free_component, free, target, sparse))
    ids = free.cat.ids
    if all(_acted(target, img, ids[c]) == img
           for img, c in zip(sparse, free.free_gens)):
        mm.images = sparse
        mm._memo["defect"] = []     # the identities fix the images
    if target.is_free_marked():
        # Yoneda: natural into a functor, which a free-marked module is
        mm._memo.update((("from", c), True) for c in free.cat.objects)
    return mm


def _free_component(free, target, images, w) -> AbHom:
    # the component at w of the map sending generator i to images[i]
    basis = free.free_basis[w]
    rows = [{} for _ in range(target.values[w].ngens)]
    for j, (i, phi) in enumerate(basis):
        for r, x in _acted(target, images[i], phi).items():
            rows[r][j] = x
    return AbHom(free.values[w], target.values[w],
                 IntMatrix(len(rows), len(basis), nonzeros=rows), check=False)


def _column(mat: IntMatrix, j):
    # column j of mat as a {row: entry} dict
    return {r: nz[j] for r, nz in enumerate(mat.nonzeros) if j in nz}


def vanishes_at_generators(second: ModuleMap, first: ModuleMap) -> bool:
    """Whether second ∘ first is zero, for natural maps out of a free-marked
    module.  By the Yoneda lemma the composite is zero exactly when it sends
    each generator (k, id_{c_k}) to zero in the target at c_k; a map stored
    as its generator images is read label by label, building no
    component."""
    free, end = first.source, second.target
    ids = free.cat.ids
    for k, c in enumerate(free.free_gens):
        y = first.images[k] if first.images is not None else _column(
            first.components[c].matrix, free.free_index[c][(k, ids[c])])
        z = [0] * end.values[c].ngens
        if second.images is not None:
            basis = second.source.free_basis[c]
            for b, x in y.items():
                i, phi = basis[b]
                for r, a in _acted(end, second.images[i], phi).items():
                    z[r] += x * a
        else:
            for r, nz in enumerate(second.components[c].matrix.nonzeros):
                z[r] = sum(a * y.get(j, 0) for j, a in nz.items())
        if any(end.values[c].reduce(z)):
            return False
    return True


# ---------------------------------------------------------------------------
# Kernels, cokernels, images of module maps
# ---------------------------------------------------------------------------


def _objectwise(mm: ModuleMap, build, act):
    """(module, data) from data[c] = build(component at c), whose first entry
    is the value at c; act(f, s, t, data) is the action of f from s to t."""
    cat = mm.source.cat
    data = {c: build(mm.components[c]) for c in cat.objects}
    actions = {f: act(f, *_action_endpoints(mm.source, f), data)
               for f in cat.morphisms}
    return CatModule(cat, mm.source.variance,
                     {c: data[c][0] for c in cat.objects}, actions), data


def module_kernel(mm: ModuleMap):
    """(kernel module, inclusion).  Objectwise kernels with induced actions."""
    def act(f, s, t, data):
        moved = mm.source.actions[f].compose(data[s][2])
        return AbHom(data[s][0], data[t][0],
                     express_in_kernel(data[t][1], moved.matrix))

    kernel, data = _objectwise(mm, lambda h: tuple(hom_kernel(h)), act)
    return kernel, ModuleMap(kernel, mm.source,
                             {c: data[c][2] for c in mm.source.cat.objects})


def module_cokernel(mm: ModuleMap):
    """(cokernel module, projection).  Objectwise cokernels, induced actions."""
    # cokernels are presented on target-canonical generators, so the action
    # of the target module is the presentation-level map
    coker, data = _objectwise(mm, hom_cokernel, lambda f, s, t, data:
                              hom_from_presentation(data[s][0], data[t][0],
                                                    mm.target.actions[f].matrix))
    return coker, ModuleMap(mm.target, coker,
                            {c: data[c][1] for c in mm.source.cat.objects})


def module_image(mm: ModuleMap):
    """(image module, mono into target, epi from source)."""
    # images are presented on source-canonical generators
    image, data = _objectwise(mm, hom_image, lambda f, s, t, data:
                              hom_from_presentation(data[s][0], data[t][0],
                                                    mm.source.actions[f].matrix))
    cat = mm.source.cat
    mono = ModuleMap(image, mm.target, {c: data[c][1] for c in cat.objects})
    epi = ModuleMap(mm.source, image, {c: data[c][2] for c in cat.objects})
    return image, mono, epi


# ---------------------------------------------------------------------------
# Tensor and hom over the category, through the standard presentation
# ---------------------------------------------------------------------------


class StandardPresentation:
    """F1 → F0 → M → 0, the free presentation through which M enters a
    tensor or a hom (Davis–Lück, K-Theory 15, 1998, §1).

    F0 (`cover`) is M itself when M is free-marked, with no relations, and
    the free module of `generating_cover(M)` otherwise.  Generator k of F0
    sits at c_k and maps to canonical generator `slots[k]` of M(c_k);
    `lifts[c]` sends each canonical generator of M(c) to a preimage in
    F0(c).  F1 is free on `relations`, pairs (t, r) with r in F0(t), and is
    never built as a module: r = (x at s, f) − Σ_j M(f)(e_x)_j · (j at t,
    id) for each non-identity f acting from s to t and generator x of M(s),
    and r = n · (j at c, id) for each generator j of M(c) of finite order n.
    Each label (x, f), f not an identity, is in one relation, which rewrites
    it at t; so the presentation is exact at every object (the coend
    formula).
    """

    __slots__ = ("cover", "slots", "lifts", "relations")

    def __init__(self, module: CatModule):
        cat = module.cat
        if module.is_free_marked():
            self.cover, self.relations = module, []
            self.slots = [module.free_index[c][(k, cat.ids[c])]
                          for k, c in enumerate(module.free_gens)]
            self.lifts = {c: IntMatrix.identity(module.values[c].ngens)
                          for c in cat.objects}
            return
        cover = self.cover = generating_cover(module)[0]
        self.slots = [j for c in cat.objects
                      for j in range(module.values[c].ngens)]
        first = {}
        for k, c in enumerate(cover.free_gens):
            first.setdefault(c, k)
        # canonical generator j of M(c) lifts to (j at c, id)
        self.lifts = {c: IntMatrix.selection(len(cover.free_basis[c]), [
            cover.free_index[c][(first[c] + j, cat.ids[c])]
            for j in range(module.values[c].ngens)]) for c in cat.objects}
        self.relations = []
        for f in cat.morphisms:
            if not cat.is_identity(f):
                s, t = _action_endpoints(module, f)
                for x in range(module.values[s].ngens):
                    r = [-a for a in self.lifts[t].apply(
                        module.actions[f].matrix.column(x))]
                    r[cover.free_index[t][(first[s] + x, f)]] += 1
                    self.relations.append((t, r))
        self.relations += [(c, [n * a for a in self.lifts[c].column(j)])
                           for c in cat.objects
                           for j, n in enumerate(module.values[c].moduli())
                           if n]

    def images(self, v: ModuleMap | None, into: "StandardPresentation"):
        """(k, c_k, terms) for each generator k of this cover: its point of
        M(c_k), carried by v (None: the identity) and lifted into the cover
        of `into`, as the terms (k2, φ, a) of its labels (k2, φ) there."""
        for k, (c, slot) in enumerate(zip(self.cover.free_gens, self.slots)):
            if v is None:
                x = {slot: 1}
            elif v.images is not None and v.source is self.cover:
                x = v.images[k]     # slot is the generator (k, id_c)
            else:
                x = _column(v.components[c].matrix, slot)
            lift = into.lifts[c]
            if not lift.is_identity():
                y = lift.apply([x.get(i, 0) for i in range(lift.ncols)])
                x = {r: a for r, a in enumerate(y) if a}
            basis = into.cover.free_basis[c]
            yield k, c, [(*basis[r], a) for r, a in x.items()]


def _terms(free: CatModule, w, vec):
    # vec in free(w) as the terms (k, φ, a) of its nonzero labels (k, φ)
    return [(k, phi, a) for (k, phi), a in zip(free.free_basis[w], vec) if a]


# The writers: each adds the blocks of one map between evaluations to rows,
# one {column: entry} dict per target coordinate, cols[k] and at[k] being
# the first column and row of summand k on the source and the target side.


def _put(rows, r0, c0, mat: IntMatrix, a):
    # rows[r0 + i][c0 + j] += a·mat[i][j]
    if mat.is_identity():
        for i in range(mat.nrows):
            row, j = rows[r0 + i], c0 + i
            row[j] = row.get(j, 0) + a
        return
    for i, nz in enumerate(mat.nonzeros, r0):
        if nz:
            row = rows[i]
            for j, x in nz.items():
                j += c0
                row[j] = row.get(j, 0) + a * x


def _matrix(rows, ncols) -> IntMatrix:
    return IntMatrix(len(rows), ncols, nonzeros=[
        {j: x for j, x in row.items() if x} for row in rows])


def _related(rows, at, col, pres, module, transposed=False):
    # F1 read through N = module: relation r at t, on a copy of N(t) from
    # column col on, is the block Σ_φ r_(k,φ)·N(φ) into summand k (tensor);
    # transposed, the copy is a row block and summand k the columns (hom:
    # τ ↦ τ_t(r)).  Returns the column after the last copy
    for t, r in pres.relations:
        for k, phi, a in _terms(pres.cover, t, r):
            mat = module.actions[phi].matrix
            if transposed:
                _put(rows, col, at[k], mat, a)
            else:
                _put(rows, at[k], col, mat, a)
        col += module.values[t].ngens
    return col


def _diagonal(rows, cols, at, pres, u, sign=1):
    # sign·u at c_k on summand k for each generator k of the cover
    for k, c in enumerate(pres.cover.free_gens):
        _put(rows, at[k], cols[k], u.components[c].matrix, sign)


def _carried(rows, cols, at, pres, v, into, module, u):
    # tensor: generator k of pres's cover goes to its point carried by v
    # (None: the identity) and lifted into into's cover; a term a·(k2, φ)
    # there is the block a·N(φ)·u_{c_k} from summand k to summand k2, N =
    # module (u None: the identity)
    for k, c, terms in pres.images(v, into):
        for k2, phi, a in terms:
            mat = module.actions[phi].matrix
            if u is not None:
                mat = mat * u.components[c].matrix
            _put(rows, at[k2], cols[k], mat, a)


def _postcomposed(rows, cols, at, pres, u):
    # τ ↦ u∘τ on the values at the generators of a free-marked module, which
    # is the transformation of its generator values for every τ exactly when
    # u is natural at each morphism acting from a generator's object
    for c in set(pres.cover.free_gens):
        if not u.natural_from(c):
            raise ValueError(f"module map is not natural at a morphism "
                             f"acting from {c!r}")
    _diagonal(rows, cols, at, pres, u)


def _precomposed(rows, cols, at, pres, v, into, module, sign,
                 inclusion=None):
    # τ ↦ sign·τ∘v for v: M' → M, pres and into presenting M' and M: a term
    # a·(k, φ) of the image of generator k2 of pres's cover is the block
    # sign·a·N(φ) from summand k to summand k2, N = module.  τ∘v differs
    # from the transformation of its generator values by τ applied to v's
    # defect d, which vanishes for every τ exactly when τ ↦ τ_w(d) is zero
    # on the group of the τ: the whole evaluation of into's cover (inclusion
    # None), or the group that inclusion embeds in it
    gens = into.cover.free_gens
    for w, _, diff in v.defect():
        at_w = [{} for _ in range(module.values[w].ngens)]
        for k, phi, a in _terms(into.cover, w, into.lifts[w].apply(diff)):
            _put(at_w, 0, cols[k], module.actions[phi].matrix, a)
        # the columns end with the last summand of into's cover
        at_w = _matrix(at_w, cols[len(gens) - 1]
                       + module.values[gens[-1]].ngens if gens else 0)
        if inclusion is not None:
            at_w = hom_from_presentation(inclusion.target, module.values[w],
                                         at_w).compose(inclusion).matrix
        if not module.values[w].reduce_matrix(at_w).is_zero():
            raise ValueError("composite with the module map is not natural")
    for k2, _, terms in pres.images(v, into):
        for k, phi, a in terms:
            _put(rows, at[k2], cols[k], module.actions[phi].matrix, sign * a)


class CatTensor:
    """M ⊗ over the base category ⊗ N for M contravariant, N covariant.

    M enters through its standard presentation F1 → F0 → M → 0 (`pres`),
    and M ⊗ N = coker(F1 ⊗ N → F0 ⊗ N).  By the co-Yoneda lemma F0 ⊗ N is
    the evaluation `evals` = ⊕_k N(c_k): (k, φ) ⊗ y at c is N(φ)(y) in
    summand k, and F1 ⊗ N is one copy of N(t) per relation at t.  `group` is
    presented on the coordinates of `evals`: it is `evals.group` when M is
    free-marked (no relations) and the cokernel otherwise, so every induced
    map is one block map between evaluations.
    """

    __slots__ = ("left", "right", "cat", "pres", "evals", "group")

    def __init__(self, left: CatModule, right: CatModule):
        if left.cat != right.cat:
            raise ValueError("modules live over different categories")
        if left.variance != CONTRAVARIANT or right.variance != COVARIANT:
            raise ValueError("tensor needs a contravariant left module and a "
                             "covariant right module")
        self.left = left
        self.right = right
        self.cat = left.cat
        pres = self.pres = StandardPresentation(left)
        ev = self.evals = DirectSum([right.values[c]
                                     for c in pres.cover.free_gens])
        self.group = ev.group
        if pres.relations:
            rows = [{} for _ in range(ev.total_gens)]
            ncols = _related(rows, ev.offsets, 0, pres, right)
            self.group = ev.quotient(_matrix(rows, ncols))

    def class_of_pure(self, c, x, y):
        """Class of the elementary tensor x ⊗ y sitting at object c."""
        # Σ_φ a_(k,φ)·N(φ)(y) in summand k, a the lift of x to F0(c)
        vec = [0] * self.evals.total_gens
        for k, phi, a in _terms(self.pres.cover, c,
                                self.pres.lifts[c].apply(x)):
            for i, z in enumerate(self.right.actions[phi].matrix.apply(y),
                                  self.evals.offsets[k]):
                vec[i] += a * z
        return self.group.to_canonical(vec)

    def components(self, can_vec):
        """One representative of a class, as per-object tensor coordinates
        on the cover: the sum Σ_k (k, id) ⊗ y_k, with F0(c) ⊗ N(c) read as
        one copy of N(c) per basis label of F0(c), label-major."""
        rep = self.group.representative(can_vec)
        cover = self.pres.cover
        out = {c: [0] * (len(cover.free_basis[c]) * self.right.values[c].ngens)
               for c in self.cat.objects}
        for k, c in enumerate(cover.free_gens):
            n, lo = self.evals.parts[k].ngens, self.evals.offsets[k]
            at = cover.free_index[c][(k, self.cat.ids[c])] * n
            out[c][at:at + n] = rep[lo:lo + n]
        return out

    def induced(self, other: "CatTensor", left_map: ModuleMap | None,
                right_map: ModuleMap | None) -> AbHom:
        """The map of tensor groups induced by maps of both factors (no left
        map: the identity of the left factor)."""
        rows = [{} for _ in range(other.evals.total_gens)]
        _carried(rows, self.evals.offsets, other.evals.offsets, self.pres,
                 left_map, other.pres, other.right, right_map)
        return hom_from_presentation(self.group, other.group, _matrix(
            rows, self.evals.total_gens))


def tensor_over_cat(left: CatModule, right: CatModule) -> FpAbGroup:
    """Canonical form of the tensor product over the base category."""
    return CatTensor(left, right).group


class CatHomGroup:
    """The group of natural transformations M => N (same variance).

    M enters through its standard presentation F1 → F0 → M → 0 (`pres`),
    and hom(M, N) = ker(hom(F0, N) → hom(F1, N)).  By the Yoneda lemma a
    transformation out of F0 is the tuple of its values at the generators
    (k, id_{c_k}), so hom(F0, N) is the evaluation `evals` = ⊕_k N(c_k), and
    τ in hom(M, N) is read there through its values at the points `slots[k]`
    of M(c_k).  When M is free-marked there are no relations and `group` is
    `evals.group`; otherwise `lattice` is the kernel, a sub-quotient of
    `evals.group` (`hom_kernel`), `group` its group and `inclusion` its map
    into `evals.group`.

    Every map refuses exactly when some composite is not natural:
    `coords_of` raises ValueError on a module map that is not natural, and
    `postcompose_map` and `precompose_map` raise ValueError exactly when
    composing some transformation with the given map is not natural.
    """

    __slots__ = ("source", "target", "cat", "pres", "evals", "group",
                 "lattice", "inclusion")

    def __init__(self, source: CatModule, target: CatModule):
        if source.cat != target.cat:
            raise ValueError("modules live over different categories")
        if source.variance != target.variance:
            raise ValueError("variance mismatch")
        self.source = source
        self.target = target
        self.cat = source.cat
        pres = self.pres = StandardPresentation(source)
        self.evals = DirectSum([target.values[c]
                                for c in pres.cover.free_gens])
        self.group, self.lattice = self.evals.group, None
        self.inclusion = AbHom.identity(self.group)
        if pres.relations:
            # τ ↦ (τ_t(r))_r, i.e. (Σ_k Σ_φ r_(k,φ)·N(φ)·τ_k)_r
            ev = self.evals
            rels = DirectSum([target.values[t] for t, _ in pres.relations])
            rows = [{} for _ in range(rels.total_gens)]
            _related(rows, ev.offsets, 0, pres, target, transposed=True)
            self.group, self.lattice, self.inclusion = hom_kernel(
                hom_from_presentation(ev.group, rels.group,
                                      _matrix(rows, ev.total_gens)))

    def to_module_map(self, can_vec) -> ModuleMap:
        ev = self.evals
        vec = ev.group.representative(self.inclusion.apply(can_vec))
        tau = free_map_from_images(self.pres.cover, self.target, [
            vec[lo:lo + part.ngens] for lo, part in zip(ev.offsets, ev.parts)])
        # down along F0 → M: each canonical generator through its lift; what
        # tau knows of itself holds for the map it induces
        mm = ModuleMap(self.source, self.target, {
            c: AbHom(self.source.values[c], self.target.values[c],
                     tau.components[c].matrix * self.pres.lifts[c],
                     check=False) for c in self.cat.objects})
        mm._memo.update(tau._memo)
        return mm

    def coords_of(self, mm: ModuleMap):
        for c in self.cat.objects:
            h = mm.components[c]
            if h.source != self.source.values[c] or \
                    h.target != self.target.values[c]:
                raise ValueError("module map does not match this hom group")
        if mm.source is not self.source:
            mm = ModuleMap(self.source, self.target, mm.components)
        if mm.defect():
            raise ValueError("module map is not natural")
        # with no defect, mm is the transformation of its values at the
        # generators, which is natural when they lie in the kernel
        vec = self.evals.assemble([
            mm.components[c].matrix.column(slot)
            for c, slot in zip(self.pres.cover.free_gens, self.pres.slots)])
        if self.lattice is None:
            return vec
        return express_in_kernel(self.lattice, IntMatrix.from_columns(
            [vec], nrows=len(vec))).column(0)

    def postcompose_map(self, other: "CatHomGroup", u: ModuleMap) -> AbHom:
        """Hom(M,N) -> Hom(M,N'), τ ↦ u∘τ, for a module map u: N -> N'."""
        if other.source is not self.source:
            raise ValueError("hom groups out of different modules")
        for c in set(self.pres.cover.free_gens):
            h = u.components[c]
            if h.source != self.target.values[c] or \
                    h.target != other.target.values[c]:
                raise ValueError("composition mismatch")
        # a free M holds points off its generators, its basis labels moved
        # along morphisms, which `_postcomposed` checks; a cover has none
        write = _postcomposed if self.source.is_free_marked() else _diagonal
        return self._composed(other, write, self.pres, u)

    def precompose_map(self, other: "CatHomGroup", v: ModuleMap) -> AbHom:
        """Hom(M,N) -> Hom(M',N), τ ↦ τ∘v, for a module map v: M' -> M."""
        if v.source is not other.source:
            v = ModuleMap(other.source, v.target, v.components)
        return self._composed(other, _precomposed, other.pres, v, self.pres,
                              self.target, 1, self.inclusion)

    def _composed(self, other: "CatHomGroup", write, *args) -> AbHom:
        # the map of evaluations that write(rows, cols, at, *args) writes,
        # from this kernel into other's; ValueError when an image leaves it
        rows = [{} for _ in range(other.evals.total_gens)]
        write(rows, self.evals.offsets, other.evals.offsets, *args)
        on_covers = hom_from_presentation(
            self.evals.group, other.evals.group,
            _matrix(rows, self.evals.total_gens)).compose(self.inclusion)
        if other.lattice is None:
            return on_covers
        return AbHom(self.group, other.group,
                     express_in_kernel(other.lattice, on_covers.matrix))


def hom_over_cat(source: CatModule, target: CatModule) -> FpAbGroup:
    """Canonical form of the group of natural transformations."""
    return CatHomGroup(source, target).group


def hom_into_module(right: CatModule, group: FpAbGroup) -> CatModule:
    """The contravariant module c ↦ Hom(N(c), A) for covariant N.

    Morphisms act by precomposition; this is the inner Hom used by the
    tensor-hom adjunction.
    """
    if right.variance != COVARIANT:
        raise ValueError("inner hom here takes a covariant module")
    cat = right.cat
    bases = {c: HomBasis(right.values[c], group) for c in cat.objects}
    values = {c: bases[c].group for c in cat.objects}
    actions = {}
    for f in cat.morphisms:
        a, b = cat.dom[f], cat.cod[f]
        # contravariant: value(b) -> value(a), τ ↦ τ∘N(f)
        actions[f] = bases[b].precompose(bases[a], right.actions[f])
    return CatModule(cat, CONTRAVARIANT, values, actions)


# ---------------------------------------------------------------------------
# Restriction and induction along a functor
# ---------------------------------------------------------------------------


def restrict_module(func: CatFunctor, module: CatModule) -> CatModule:
    """Precompose a module over the functor's target with the functor."""
    if module.cat != func.target:
        raise ValueError("module does not live over the functor's target")
    values = {c: module.values[func.obj_map[c]] for c in func.source.objects}
    actions = {f: module.actions[func.mor_map[f]] for f in func.source.morphisms}
    return CatModule(func.source, module.variance, values, actions)


def induce_module(func: CatFunctor, module: CatModule) -> CatModule:
    """Left Kan extension of a module along a functor.

    Computed objectwise as a tensor over the source category with the
    appropriate morphism module, so every value arrives as a canonical form
    with witnesses.
    """
    if module.cat != func.source:
        raise ValueError("module does not live over the functor's source")
    cat_d = func.target
    contra = module.variance == CONTRAVARIANT
    # the free module on d over the target, c ↦ Z[mor(d, F c)] (covariant)
    # or Z[mor(F c, d)] (contravariant), restricted to the source
    frees = {d: free_module(cat_d, [d], COVARIANT if contra else CONTRAVARIANT)
             for d in cat_d.objects}
    helpers = {d: restrict_module(func, frees[d]) for d in cat_d.objects}
    tens = {d: CatTensor(module, helpers[d]) if contra
            else CatTensor(helpers[d], module) for d in cat_d.objects}
    values = {d: tens[d].group for d in cat_d.objects}
    actions = {}
    for psi in cat_d.morphisms:
        d1, d2 = cat_d.dom[psi], cat_d.cod[psi]
        # contravariant: value(d2) -> value(d1), alpha ∈ mor(d2, Fc) ↦ psi
        # then alpha; covariant: value(d1) -> value(d2), beta ∈ mor(Fc, d1) ↦
        # beta then psi; the map of representables sending the generator to
        # psi, restricted along the functor
        src_d, tgt_d = (d2, d1) if contra else (d1, d2)
        image = [0] * frees[tgt_d].values[src_d].ngens
        image[frees[tgt_d].free_index[src_d][(0, psi)]] = 1
        rep = free_map_from_images(frees[src_d], frees[tgt_d], [image])
        mm = ModuleMap(helpers[src_d], helpers[tgt_d],
                       {c: rep.components[func.obj_map[c]]
                        for c in func.source.objects})
        actions[psi] = (tens[src_d].induced(tens[tgt_d], None, mm) if contra
                        else tens[src_d].induced(tens[tgt_d], mm, None))
    return CatModule(cat_d, module.variance, values, actions)


# ---------------------------------------------------------------------------
# Generation
# ---------------------------------------------------------------------------


def generating_cover(module: CatModule):
    """(free module, epi): the objectwise-canonical-generator cover."""
    cat = module.cat
    gens = []
    slots = []      # generator i is canonical generator slots[i] of its value
    for c in cat.objects:
        for j in range(module.values[c].ngens):
            gens.append(c)
            slots.append(j)
    free = free_module(cat, gens, module.variance)
    epi = free_map_from_images(free, module, [
        [int(j == slot) for j in range(module.values[c].ngens)]
        for c, slot in zip(gens, slots)])
    return free, epi


# ---------------------------------------------------------------------------
# Finite products and the interchange map
# ---------------------------------------------------------------------------


ProductData = namedtuple("ProductData", ["module", "sums"])


def product_module(modules) -> ProductData:
    """Objectwise finite product (= direct sum) with coordinate bookkeeping."""
    modules = list(modules)
    if not modules:
        raise ValueError("need at least one module")
    cat = modules[0].cat
    variance = modules[0].variance
    if any(m.cat != cat or m.variance != variance for m in modules):
        raise ValueError("modules must share base and variance")
    sums = {c: DirectSum([m.values[c] for m in modules]) for c in cat.objects}
    values = {c: sums[c].group for c in cat.objects}
    actions = {}
    for f in cat.morphisms:
        s, t = _action_endpoints(modules[0], f)
        blocks = {(i, i): m.actions[f] for i, m in enumerate(modules)}
        actions[f] = block_hom(sums[s], sums[t], blocks)
    return ProductData(CatModule(cat, variance, values, actions), sums)


def finite_product_interchange(free: CatModule, modules):
    """(map, verdict) for F ⊗ (∏ M_i)  →  ∏ (F ⊗ M_i), F marked free.

    The verdict certifies the map is an isomorphism by exact kernel and
    cokernel computation.
    """
    if not free.is_free_marked():
        raise ValueError("left factor carries no free marker")
    modules = list(modules)
    prod = product_module(modules)
    lhs = CatTensor(free, prod.module)
    rhs_parts = [CatTensor(free, m) for m in modules]
    rhs = DirectSum([t.group for t in rhs_parts])
    # factor i of the map is 1 ⊗ (projection onto M_i)
    parts = []
    for i, (t, m) in enumerate(zip(rhs_parts, modules)):
        proj = ModuleMap(prod.module, m, {c: prod.sums[c].project(i)
                                          for c in free.cat.objects})
        parts.append(lhs.induced(t, None, proj))
    the_map = rhs.hom_into(lhs.group, parts)
    return the_map, is_isomorphism(the_map)
