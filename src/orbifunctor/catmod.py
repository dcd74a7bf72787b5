"""Modules over a finite category: functors into f.p. abelian groups.

Covariant and contravariant modules, natural transformations, free modules
with marked bases, tensor product over the category (a coequalizer, or an
evaluation when the left factor is free-marked), natural transformation
groups (an equalizer, or an evaluation out of a free-marked module),
objectwise kernels/cokernels with induced actions, restriction and induction
along a functor, generating covers, and the finite-product interchange map
for finitely generated free modules.  A free module's basis is held by the
module itself (`free_gens`, `free_basis`); free resolutions and Tor, which
are chain complexes of such modules, live in `chainplex`.

Everything is presented over the exact integer layer, so all answers are
canonical forms with witnesses, never up-to-iso guesses.
"""

from __future__ import annotations

from collections import namedtuple

from .exact_abelian import (
    AbHom,
    DirectSum,
    FpAbGroup,
    HomBasis,
    IntMatrix,
    TensorBasis,
    block_hom,
    express_in_kernel,
    hom_cokernel,
    hom_from_presentation,
    hom_image,
    hom_kernel,
    is_isomorphism,
    quotient_group,
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
            cols = self._columns[f] = self.actions[f].matrix.transpose().nonzeros
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
    """

    __slots__ = ("source", "target", "components", "_memo")

    def __init__(self, source: CatModule, target: CatModule, components):
        if source.cat is not target.cat and source.cat != target.cat:
            raise ValueError("modules live over different categories")
        if source.variance != target.variance:
            raise ValueError("variance mismatch")
        self.source = source
        self.target = target
        self.components = dict(components)
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
        determine.  Empty exactly when the map is natural."""
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
    # generator i to the value of mm at (i, id_{c_i})
    free, target = mm.source, mm.target
    if not free.is_free_marked():
        raise ValueError("source carries no free marker")
    yoneda = free_map_from_images(free, target,
                                  _generator_images(free, mm.components))
    out = []
    for w in free.cat.objects:
        have, want = mm.components[w].matrix, yoneda.components[w].matrix
        if have != want:
            for j, col in enumerate((want - have).columns()):
                diff = target.values[w].reduce(col)
                if any(diff):
                    out.append((w, j, diff))
    return out


def _generator_images(free: CatModule, components):
    # the column of each component at the marked generator (i, id_{c_i})
    ids = free.cat.ids
    return [components[c].matrix.column(free.free_index[c][(i, ids[c])])
            for i, c in enumerate(free.free_gens)]


# ---------------------------------------------------------------------------
# Free modules
# ---------------------------------------------------------------------------


def free_module(cat: FinCategory, gens, variance=CONTRAVARIANT) -> CatModule:
    """The free module on one generator per listed object, marked free.

    Contravariant: value at w is free on the disjoint union of mor(w, c_i),
    with morphisms acting by precomposition.  Covariant: mor(c_i, w) and
    postcomposition.  Basis order is generator index first, then the stable
    morphism order of the category; `free_gens` of the result lists the
    generators' objects.
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
    module = CatModule(cat, variance, {w: FpAbGroup.free(len(basis[w]))
                                       for w in cat.objects}, {})
    for f in cat.morphisms:
        # the selection matrix moving each basis label along f
        s, t = _action_endpoints(module, f)
        moved = [(i, cat.compose(f, phi) if contra else cat.compose(phi, f))
                 for i, phi in basis[s]]
        module.actions[f] = AbHom(
            module.values[s], module.values[t], IntMatrix.selection(
                len(basis[t]), [index[t][lab] for lab in moved]), check=False)
    module.free_gens, module.free_basis, module.free_index = gens, basis, index
    return module


def free_map_from_images(free: CatModule, target: CatModule,
                         images) -> ModuleMap:
    """The module map out of a marked free module sending generator i (sitting
    at base object c_i) to the given element of target(c_i)."""
    if not free.is_free_marked():
        raise ValueError("source carries no free marker")
    if len(images) != len(free.free_gens):
        raise ValueError("one image per generator required")
    reduced = []
    for img, c in zip(images, free.free_gens):
        if len(img) != target.values[c].ngens:
            raise ValueError(f"image of a generator at {c!r} has the wrong length")
        reduced.append(target.values[c].reduce(img))
    sparse = [{b: x for b, x in enumerate(img) if x} for img in reduced]

    def image_column(i, phi):
        cols, acc = target.action_columns(phi), {}
        for b, x in sparse[i].items():
            for r, y in cols[b].items():
                acc[r] = acc.get(r, 0) + x * y
        return {r: x for r, x in acc.items() if x}
    mm = _free_map(free, target, image_column)
    if _generator_images(free, mm.components) == reduced:
        mm._memo["defect"] = []     # the identities fix the images
    return mm


def _free_map(free: CatModule, target: CatModule, image_column) -> ModuleMap:
    # image_column(i, phi): target coordinates of basis element (i, phi), as
    # a {row: nonzero entry} dict
    components = {}
    for w in free.cat.objects:
        rows = [{} for _ in range(target.values[w].ngens)]
        for j, (i, phi) in enumerate(free.free_basis[w]):
            for r, x in image_column(i, phi).items():
                rows[r][j] = x
        mat = IntMatrix(len(rows), len(free.free_basis[w]), nonzeros=rows)
        components[w] = AbHom(free.values[w], target.values[w], mat, check=False)
    mm = ModuleMap(free, target, components)
    if target.is_free_marked():
        # Yoneda: natural into a functor, which a free-marked module is
        mm._memo.update((("from", c), True) for c in free.cat.objects)
    return mm


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
        grp_t, lattice_t, _ = data[t]
        moved = mm.source.actions[f].compose(data[s][2])
        cols = [express_in_kernel(grp_t, lattice_t, mm.source.values[t], col)
                for col in moved.matrix.columns()]
        return AbHom(data[s][0], grp_t,
                     IntMatrix.from_columns(cols, nrows=grp_t.ngens))

    kernel, data = _objectwise(mm, hom_kernel, act)
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
# Tensor over the category (coequalizer)
# ---------------------------------------------------------------------------


class CatTensor:
    """M ⊗ over the base category ⊗ N for M contravariant, N covariant.

    When M is free-marked on generators at c_0, ..., c_{r-1}, the co-Yoneda
    lemma gives M ⊗ N = ⊕_k N(c_k), held in `evals` with `group` its
    canonical form: (k, φ) ⊗ y at c is N(φ)(y) in summand k.  Nothing is
    solved; `tensors`, `part_index`, `big` and `projection` are None.
    Otherwise `evals` is None and the group is the coequalizer: the quotient
    of `big` = ⊕_c M(c) ⊗ N(c), part `part_index[c]` the `TensorBasis`
    `tensors[c]`, by the relations (x·φ) ⊗ y  =  x ⊗ (φ·y), one block per
    non-identity morphism φ: c → d, x in M(d), y in N(c); `projection` maps
    the big sum's canonical coordinates onto it.
    """

    __slots__ = ("left", "right", "cat", "tensors", "part_index", "big",
                 "evals", "group", "projection")

    def __init__(self, left: CatModule, right: CatModule):
        if left.cat != right.cat:
            raise ValueError("modules live over different categories")
        if left.variance != CONTRAVARIANT or right.variance != COVARIANT:
            raise ValueError("tensor needs a contravariant left module and a "
                             "covariant right module")
        self.left = left
        self.right = right
        cat = self.cat = left.cat
        if left.is_free_marked():
            self.evals = DirectSum([right.values[c] for c in left.free_gens])
            self.group = self.evals.group
            self.tensors = self.part_index = self.big = self.projection = None
            return
        self.evals = None
        self.tensors = {c: TensorBasis(left.values[c], right.values[c])
                        for c in cat.objects}
        self.part_index = {c: i for i, c in enumerate(cat.objects)}
        self.big = DirectSum([self.tensors[c].group for c in cat.objects])
        rel_cols = []
        for f in cat.morphisms:
            if cat.is_identity(f):
                continue
            c, d = cat.dom[f], cat.cod[f]
            # one relation per generator pair (x, y) of M(d) x N(c), x-major
            mcols = left.actions[f].matrix.transpose().nonzeros    # M(d) -> M(c)
            ncols = right.actions[f].matrix.transpose().nonzeros   # N(c) -> N(d)
            tc, td = self.tensors[c], self.tensors[d]
            at_c = [{} for _ in tc.entries]     # (x·f) ⊗ y, on pairs at c
            at_d = [{} for _ in td.entries]     # x ⊗ (f·y), on pairs at d
            col = 0
            for x in range(left.values[d].ngens):
                for y in range(right.values[c].ngens):
                    for a, v in mcols[x].items():
                        k = tc.index.get((a, y))
                        if k is not None:
                            at_c[k][col] = v
                    for b, w in ncols[y].items():
                        k = td.index.get((x, b))
                        if k is not None:
                            at_d[k][col] = w
                    col += 1
            rels = (self._pairs_to_big(c, IntMatrix(len(at_c), col, nonzeros=at_c))
                    - self._pairs_to_big(d, IntMatrix(len(at_d), col, nonzeros=at_d)))
            rel_cols.extend(self.big.group.reduce_matrix(rels).columns())
        self.group, self.projection = quotient_group(self.big.group, rel_cols)

    def _pairs_to_big(self, c, pairs: IntMatrix) -> IntMatrix:
        # columns on the generator pairs of the tensor at c -> canonical
        # coordinates of the big sum (unreduced): the part's rows placed at
        # its offset (rows are never mutated, so the empty ones share one
        # dict), then the sum's own witness
        big = self.big
        placed = [{}] * big.total_gens
        lo = big.offsets[self.part_index[c]]
        rows = (self.tensors[c].group.to_can * pairs).nonzeros
        placed[lo:lo + len(rows)] = rows
        return big.group.to_can * IntMatrix(big.total_gens, pairs.ncols,
                                            nonzeros=placed)

    def class_of_pure(self, c, x, y):
        """Class of the elementary tensor x ⊗ y sitting at object c."""
        if self.evals is None:
            raw = self.big.embed(self.part_index[c], self.tensors[c].pure(x, y))
            return self.projection.apply(self.big.group.to_canonical(raw))
        # Σ_φ x_(k,φ)·N(φ)(y) in summand k
        moved = _through(self.left, self.right, c, x)
        return self.evals.assemble([moved[k].apply(y) if k in moved
                                    else [0] * part.ngens
                                    for k, part in enumerate(self.evals.parts)])

    def components(self, can_vec):
        """One representative of a class, as per-object tensor coordinates:
        the canonical coordinates of each `tensors[c]` on the coequalizer
        path; on the free path the sum Σ_k (k, id) ⊗ y_k, with M(c) ⊗ N(c)
        read as one copy of N(c) per basis label of M(c), label-major."""
        rep = self.group.representative(can_vec)
        if self.evals is None:
            return {c: self.big.project(i).apply(rep)
                    for i, c in enumerate(self.cat.objects)}
        left = self.left
        out = {c: [0] * (len(left.free_basis[c]) * self.right.values[c].ngens)
               for c in self.cat.objects}
        for k, c in enumerate(left.free_gens):
            n, lo = self.evals.parts[k].ngens, self.evals.offsets[k]
            at = left.free_index[c][(k, self.cat.ids[c])] * n
            out[c][at:at + n] = rep[lo:lo + n]
        return out

    def induced(self, other: "CatTensor", left_map: ModuleMap | None,
                right_map: ModuleMap | None) -> AbHom:
        """The map of tensor groups induced by maps of both factors."""
        us = (right_map or ModuleMap.identity(self.right)).components
        if self.evals is not None and other.evals is not None and (
                _same_marking(self.left, other.left) if left_map is None
                else _same_marking(left_map.source, self.left)
                and _same_marking(left_map.target, other.left)):
            return self._blockwise(other, left_map, us)
        vs = (left_map or ModuleMap.identity(self.left)).components
        if self.evals is not None or other.evals is not None:
            return self._pairwise(other, vs, us)
        blocks = {(other.part_index[c], self.part_index[c]):
                  self.tensors[c].induced(other.tensors[c], vs[c], us[c])
                  for c in self.cat.objects}
        # both groups are presented on the canonical coordinates of their sums
        big_map = block_hom(self.big, other.big, blocks)
        return hom_from_presentation(self.group, other.group, big_map.matrix)

    def _pairwise(self, other: "CatTensor", vs, us) -> AbHom:
        # the pair (a, b) at c goes to the class of vs[c](a) ⊗ us[c](b) in
        # other; a free side is read on its generator pairs (k, id) ⊗ y at
        # c_k, a coequalizer side on the pairs of its tensor at each object
        def image(c, a, b):
            return other.class_of_pure(c, vs[c].matrix.column(a),
                                       us[c].matrix.column(b))
        n = other.group.ngens
        if self.evals is not None:
            ids = self.cat.ids
            pres = IntMatrix.from_columns(
                [image(c, self.left.free_index[c][(k, ids[c])], b)
                 for k, c in enumerate(self.left.free_gens)
                 for b in range(self.right.values[c].ngens)], nrows=n)
        else:
            cols = []
            for c in self.cat.objects:
                tb = self.tensors[c]
                pairs = IntMatrix.from_columns(
                    [image(c, a, b) for a, b, _ in tb.entries], nrows=n)
                cols.extend((pairs * tb.group.reps).columns())
            pres = IntMatrix.from_columns(cols, nrows=n) * self.big.group.reps
        return AbHom(self.group, other.group, pres * self.group.reps)

    def _blockwise(self, other: "CatTensor", v, us) -> AbHom:
        # in ⊕_k N(c_k) coordinates generator y of N(c_k) is (k, id) ⊗ y, sent
        # to v(k, id) ⊗ u(y): block (k', k) = Σ_φ a_(k',φ)·N'(φ)·u_{c_k}, a
        # the value of v at generator k (block (k, k) = u_{c_k} when v = 1)
        if v is None:
            return block_hom(self.evals, other.evals, {
                (k, k): us[c] for k, c in enumerate(self.left.free_gens)})
        values, gens = other.right.values, other.left.free_gens
        images = _generator_images(v.source, v.components)
        blocks = {}
        for k, c in enumerate(self.left.free_gens):
            for k2, m in _through(other.left, other.right, c,
                                  images[k]).items():
                blocks[(k2, k)] = AbHom(us[c].source, values[gens[k2]],
                                        m * us[c].matrix, check=False)
        return block_hom(self.evals, other.evals, blocks)


def tensor_over_cat(left: CatModule, right: CatModule) -> FpAbGroup:
    """Canonical form of the tensor product over the base category."""
    return CatTensor(left, right).group


# ---------------------------------------------------------------------------
# Natural transformation groups (equalizer)
# ---------------------------------------------------------------------------


class CatHomGroup:
    """The group of natural transformations M => N (same variance).

    When M is free-marked on generators at c_0, ..., c_{r-1}, the Yoneda
    lemma makes a transformation the tuple of its values at the marked
    generators (k, id_{c_k}), so the group is the canonical form of
    ⊕_k N(c_k), held in `evals`, and nothing is solved.  Otherwise it is the
    kernel, inside ⊕_c Hom(M(c), N(c)), of the stacked naturality
    constraints over all non-identity morphisms.

    Both paths refuse the same maps: `coords_of` raises ValueError on a
    module map that is not natural, and `postcompose_map` and
    `precompose_map` raise ValueError exactly when composing some
    transformation with the given map is not natural.
    """

    __slots__ = ("source", "target", "cat", "evals", "bases", "big", "group",
                 "kernel_basis", "inclusion")

    def __init__(self, source: CatModule, target: CatModule):
        if source.cat != target.cat:
            raise ValueError("modules live over different categories")
        if source.variance != target.variance:
            raise ValueError("variance mismatch")
        self.source = source
        self.target = target
        cat = self.cat = source.cat
        if source.is_free_marked():
            self.evals = DirectSum([target.values[c] for c in source.free_gens])
            self.group = self.evals.group
            self.bases = self.big = self.kernel_basis = self.inclusion = None
            return
        self.evals = None
        self.bases = {c: HomBasis(source.values[c], target.values[c])
                      for c in cat.objects}
        self.big = DirectSum([self.bases[c].group for c in cat.objects])
        constraints = []      # (constraint hom from big.group, target basis)
        for f in cat.morphisms:
            if cat.is_identity(f):
                continue
            # f acts from s to t; N(f)∘τ_s − τ_t∘M(f) : Hom(M(s), N(t)) when
            # covariant, its negative when contravariant
            s, t = _action_endpoints(source, f)
            mixed = HomBasis(source.values[s], target.values[t])
            post = self.bases[s].postcompose(mixed, target.actions[f]).compose(
                self.big.project(cat.objects.index(s)))
            pre = self.bases[t].precompose(mixed, source.actions[f]).compose(
                self.big.project(cat.objects.index(t)))
            if source.variance == COVARIANT:
                constraints.append(post.add(pre.negate()))
            else:
                constraints.append(pre.add(post.negate()))
        tgt_sum = DirectSum([p.target for p in constraints])
        delta = tgt_sum.hom_into(self.big.group, constraints)
        self.group, self.kernel_basis, self.inclusion = hom_kernel(delta)

    def to_module_map(self, can_vec) -> ModuleMap:
        if self.evals is not None:
            pres = self.group.representative(can_vec)
            ev = self.evals
            images = [pres[lo:lo + part.ngens]
                      for lo, part in zip(ev.offsets, ev.parts)]
            return free_map_from_images(self.source, self.target, images)
        v = self.inclusion.apply(can_vec)
        components = {}
        for i, c in enumerate(self.cat.objects):
            coords = self.big.project(i).apply(v)
            components[c] = self.bases[c].to_hom(coords)
        return ModuleMap(self.source, self.target, components)

    def coords_of(self, mm: ModuleMap):
        if self.evals is None:
            vec = self.big.assemble([self.bases[c].coords_of(mm.components[c])
                                     for c in self.cat.objects])
            return express_in_kernel(self.group, self.kernel_basis,
                                     self.big.group, vec)
        for c in self.cat.objects:
            h = mm.components[c]
            if h.source != self.source.values[c] or \
                    h.target != self.target.values[c]:
                raise ValueError("module map does not match this hom group")
        if mm.source is not self.source:
            mm = ModuleMap(self.source, self.target, mm.components)
        if mm.defect():
            raise ValueError("module map is not natural")
        return self.evals.assemble(_generator_images(self.source,
                                                     mm.components))

    def postcompose_map(self, other: "CatHomGroup", u: ModuleMap) -> AbHom:
        """Hom(M,N) -> Hom(M,N'), τ ↦ u∘τ, for a module map u: N -> N'."""
        if not (self._evaluates(other)
                and _same_marking(self.source, other.source)):
            return self._generatorwise(other, u.compose)
        # u∘τ is natural for every τ exactly when u is natural at each
        # morphism acting from a generator's object
        for c in set(self.source.free_gens):
            h = u.components[c]
            if h.source != self.target.values[c] or \
                    h.target != other.target.values[c]:
                raise ValueError("composition mismatch")
            if not u.natural_from(c):
                raise ValueError(f"module map is not natural at a morphism "
                                 f"acting from {c!r}")
        return block_hom(self.evals, other.evals,
                         {(k, k): u.components[c]
                          for k, c in enumerate(self.source.free_gens)})

    def precompose_map(self, other: "CatHomGroup", v: ModuleMap) -> AbHom:
        """Hom(M,N) -> Hom(M',N), τ ↦ τ∘v, for a module map v: M' -> M."""
        if not (self._evaluates(other) and _same_marking(v.source, other.source)
                and _same_marking(v.target, self.source)):
            return self._generatorwise(other, lambda tau: tau.compose(v))
        # τ∘v differs from a natural map by τ applied to v's defect d, which
        # vanishes for every τ exactly when Σ_φ d_(k,φ)·N(φ) = 0 for each k
        for w, _, diff in v.defect():
            reduce = self.target.values[w].reduce_matrix
            if any(not reduce(m).is_zero()
                   for m in _through(self.source, self.target, w,
                                     diff).values()):
                raise ValueError("composite with the module map is not "
                                 "natural")
        # block (k', k) = Σ_φ a_(k,φ)·N(φ), a the value of v at generator k'
        values, gens = self.target.values, self.source.free_gens
        blocks = {}
        for k2, a in enumerate(_generator_images(v.source, v.components)):
            c2 = v.source.free_gens[k2]
            for k, m in _through(self.source, self.target, c2, a).items():
                blocks[(k2, k)] = AbHom(values[gens[k]], values[c2], m,
                                        check=False)
        return block_hom(self.evals, other.evals, blocks)

    def _evaluates(self, other):
        # both groups are evaluations at free generators
        return self.evals is not None and other.evals is not None

    def _generatorwise(self, other: "CatHomGroup", move) -> AbHom:
        # column j: coordinates in `other` of move(τ_j), τ_j the j-th
        # generator of this group
        n = self.group.ngens
        cols = [other.coords_of(move(self.to_module_map(
                    [1 if i == j else 0 for i in range(n)])))
                for j in range(n)]
        return AbHom(self.group, other.group,
                     IntMatrix.from_columns(cols, nrows=other.group.ngens))


def _same_marking(a: CatModule, b: CatModule):
    return a is b or (a.free_basis is not None and a.free_basis == b.free_basis)


def _through(free: CatModule, module: CatModule, w, vec):
    # vec in free(w), by summand of the evaluation: {k: Σ_φ vec_(k,φ)·N(φ)}
    # with N = module, i.e. how τ ↦ τ_w(vec) and y ↦ vec ⊗ y act on ⊕_k N(c_k)
    out = {}
    for (k, phi), x in zip(free.free_basis[w], vec):
        if x:
            term = module.actions[phi].matrix.scale(x)
            out[k] = out[k] + term if k in out else term
    return out


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
    epi = _free_map(free, module,
                    lambda i, phi: module.action_columns(phi)[slots[i]])
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
