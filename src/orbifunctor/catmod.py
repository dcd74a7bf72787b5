"""Modules over a finite category: functors into f.p. abelian groups.

Covariant and contravariant modules, natural transformations, free modules
with marked bases, tensor product over the category (a coequalizer), natural
transformation groups (an equalizer), objectwise kernels/cokernels with
induced actions, restriction and induction along a functor, free resolutions,
Tor, and the finite-product interchange map for finitely generated free
modules.

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
    HomologyData,
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
    tuple of base objects, one per generator) and `free_basis` (per object,
    the ordered tuple of basis labels (generator index, morphism)).
    """

    __slots__ = ("cat", "variance", "values", "actions", "free_gens", "free_basis")

    def __init__(self, cat, variance, values, actions,
                 free_gens=None, free_basis=None):
        if variance not in (COVARIANT, CONTRAVARIANT):
            raise ValueError(f"variance must be 'co' or 'contra', got {variance!r}")
        self.cat = cat
        self.variance = variance
        self.values = dict(values)
        self.actions = dict(actions)
        self.free_gens = free_gens
        self.free_basis = free_basis

    def value(self, obj) -> FpAbGroup:
        return self.values[obj]

    def action(self, f) -> AbHom:
        return self.actions[f]

    def is_free_marked(self):
        return self.free_basis is not None

    def total_rank(self):
        return sum(g.ngens for g in self.values.values())

    def __repr__(self):
        kind = "free " if self.is_free_marked() else ""
        return (f"CatModule({kind}{self.variance}, "
                f"{len(self.cat.objects)} objects)")


def _action_endpoints(module, f):
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
    """Natural transformation between same-base same-variance modules."""

    __slots__ = ("source", "target", "components")

    def __init__(self, source: CatModule, target: CatModule, components):
        if source.cat is not target.cat and source.cat != target.cat:
            raise ValueError("modules live over different categories")
        if source.variance != target.variance:
            raise ValueError("variance mismatch")
        self.source = source
        self.target = target
        self.components = dict(components)

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
    """Naturality check over every morphism; returns problems, [] when valid."""
    problems = []
    cat = mm.source.cat
    for c in cat.objects:
        comp = mm.components.get(c)
        if comp is None:
            problems.append(f"no component at {c!r}")
        elif comp.source != mm.source.values[c] or comp.target != mm.target.values[c]:
            problems.append(f"component at {c!r} has wrong endpoints")
    if problems:
        return problems
    for f in cat.morphisms:
        a, b = cat.dom[f], cat.cod[f]
        if mm.source.variance == COVARIANT:
            lhs = mm.target.actions[f].compose(mm.components[a])
            rhs = mm.components[b].compose(mm.source.actions[f])
        else:
            lhs = mm.components[a].compose(mm.source.actions[f])
            rhs = mm.target.actions[f].compose(mm.components[b])
        if lhs != rhs:
            problems.append(f"naturality fails at morphism {f!r}")
            return problems
    return problems


# ---------------------------------------------------------------------------
# Free modules
# ---------------------------------------------------------------------------


class FreeMarker:
    """Distinguished basis of a free module: base objects with multiplicity."""

    __slots__ = ("objects",)

    def __init__(self, objects):
        self.objects = tuple(objects)

    @property
    def generators(self):
        """Run-length view as (object, multiplicity) pairs."""
        out = []
        for c in self.objects:
            if out and out[-1][0] == c:
                out[-1] = (c, out[-1][1] + 1)
            else:
                out.append((c, 1))
        return [tuple(p) for p in out]

    def __len__(self):
        return len(self.objects)

    def __repr__(self):
        return f"FreeMarker({self.generators})"


def free_module(cat: FinCategory, gens, variance=CONTRAVARIANT):
    """(module, marker) for the free module on one generator per listed object.

    Contravariant: value at w is free on the disjoint union of mor(w, c_i),
    with morphisms acting by precomposition.  Covariant: mor(c_i, w) and
    postcomposition.  Basis order is generator index first, then the stable
    morphism order of the category.
    """
    gens = tuple(gens)
    objset = set(cat.objects)
    for c in gens:
        if c not in objset:
            raise ValueError(f"unknown object {c!r}")
    basis = {}
    for w in cat.objects:
        entries = []
        for i, c in enumerate(gens):
            if variance == CONTRAVARIANT:
                entries.extend((i, phi) for phi in cat.mor(w, c))
            else:
                entries.extend((i, phi) for phi in cat.mor(c, w))
        basis[w] = tuple(entries)
    values = {w: FpAbGroup.free(len(basis[w])) for w in cat.objects}
    index = {w: {lab: k for k, lab in enumerate(basis[w])} for w in cat.objects}
    actions = {}
    for f in cat.morphisms:
        a, b = cat.dom[f], cat.cod[f]
        if variance == CONTRAVARIANT:
            src_obj, tgt_obj = b, a
            move = lambda phi, f=f: cat.compose(f, phi)
        else:
            src_obj, tgt_obj = a, b
            move = lambda phi, f=f: cat.compose(phi, f)
        mat = IntMatrix.selection(
            len(basis[tgt_obj]),
            [index[tgt_obj][(i, move(phi))] for (i, phi) in basis[src_obj]])
        actions[f] = AbHom(values[src_obj], values[tgt_obj], mat, check=False)
    module = CatModule(cat, variance, values, actions,
                       free_gens=gens, free_basis=basis)
    return module, FreeMarker(gens)


def free_map_from_images(free: CatModule, target: CatModule,
                         images) -> ModuleMap:
    """The module map out of a marked free module sending generator i (sitting
    at base object c_i) to the given element of target(c_i)."""
    if not free.is_free_marked():
        raise ValueError("source carries no free marker")
    if len(images) != len(free.free_gens):
        raise ValueError("one image per generator required")
    return _free_map(free, target,
                     lambda i, phi: target.actions[phi].apply(images[i]))


def _free_map(free: CatModule, target: CatModule, image_column) -> ModuleMap:
    # image_column(i, phi): target coordinates of basis element (i, phi)
    components = {}
    for w in free.cat.objects:
        cols = [image_column(i, phi) for (i, phi) in free.free_basis[w]]
        mat = IntMatrix.from_columns(cols, nrows=target.values[w].ngens)
        components[w] = AbHom(free.values[w], target.values[w], mat, check=False)
    return ModuleMap(free, target, components)


# ---------------------------------------------------------------------------
# Kernels, cokernels, images of module maps
# ---------------------------------------------------------------------------


def module_kernel(mm: ModuleMap):
    """(kernel module, inclusion).  Objectwise kernels with induced actions."""
    cat = mm.source.cat
    data = {c: hom_kernel(mm.components[c]) for c in cat.objects}
    values = {c: data[c][0] for c in cat.objects}
    actions = {}
    for f in cat.morphisms:
        src_obj, tgt_obj = _action_endpoints(mm.source, f)
        inc_s = data[src_obj][2]
        grp_t, basis_t, _ = data[tgt_obj]
        moved = mm.source.actions[f].compose(inc_s)
        cols = [express_in_kernel(grp_t, basis_t, mm.source.values[tgt_obj], col)
                for col in moved.matrix.columns()]
        mat = IntMatrix.from_columns(cols, nrows=grp_t.ngens)
        actions[f] = AbHom(values[src_obj], values[tgt_obj], mat)
    kernel = CatModule(cat, mm.source.variance, values, actions)
    inclusion = ModuleMap(kernel, mm.source,
                          {c: data[c][2] for c in cat.objects})
    return kernel, inclusion


def module_cokernel(mm: ModuleMap):
    """(cokernel module, projection).  Objectwise cokernels, induced actions."""
    cat = mm.source.cat
    data = {c: hom_cokernel(mm.components[c]) for c in cat.objects}
    values = {c: data[c][0] for c in cat.objects}
    actions = {}
    for f in cat.morphisms:
        src_obj, tgt_obj = _action_endpoints(mm.target, f)
        # cokernels are presented on target-canonical generators, so the
        # action of the target module is the presentation-level map
        actions[f] = hom_from_presentation(values[src_obj], values[tgt_obj],
                                           mm.target.actions[f].matrix)
    coker = CatModule(cat, mm.target.variance, values, actions)
    projection = ModuleMap(mm.target, coker,
                           {c: data[c][1] for c in cat.objects})
    return coker, projection


def module_image(mm: ModuleMap):
    """(image module, mono into target, epi from source)."""
    cat = mm.source.cat
    data = {c: hom_image(mm.components[c]) for c in cat.objects}
    values = {c: data[c][0] for c in cat.objects}
    actions = {}
    for f in cat.morphisms:
        src_obj, tgt_obj = _action_endpoints(mm.source, f)
        # images are presented on source-canonical generators
        actions[f] = hom_from_presentation(values[src_obj], values[tgt_obj],
                                           mm.source.actions[f].matrix)
    image = CatModule(cat, mm.source.variance, values, actions)
    mono = ModuleMap(image, mm.target, {c: data[c][1] for c in cat.objects})
    epi = ModuleMap(mm.source, image, {c: data[c][2] for c in cat.objects})
    return image, mono, epi


KernelCokernel = namedtuple("KernelCokernel", ["kernel", "cokernel", "image"])


def map_kernel_cokernel(mm: ModuleMap) -> KernelCokernel:
    """Objectwise kernel, cokernel, and image modules, functoriality checked."""
    kernel, _ = module_kernel(mm)
    cokernel, _ = module_cokernel(mm)
    image, _, _ = module_image(mm)
    for mod in (kernel, cokernel, image):
        problems = validate_module(mod)
        if problems:
            raise AssertionError(f"induced module fails functoriality: "
                                 f"{problems[0]}")
    return KernelCokernel(kernel, cokernel, image)


# ---------------------------------------------------------------------------
# Tensor over the category (coequalizer)
# ---------------------------------------------------------------------------


class CatTensor:
    """M ⊗ over the base category ⊗ N for M contravariant, N covariant.

    Presented as the quotient of ⊕_c M(c) ⊗ N(c) by the relations
    (x·φ) ⊗ y  =  x ⊗ (φ·y), one block per non-identity morphism φ: c → d,
    x in M(d), y in N(c).
    """

    __slots__ = ("left", "right", "cat", "tensors", "part_index", "big",
                 "group", "projection")

    def __init__(self, left: CatModule, right: CatModule):
        if left.cat != right.cat:
            raise ValueError("modules live over different categories")
        if left.variance != CONTRAVARIANT or right.variance != COVARIANT:
            raise ValueError("tensor needs a contravariant left module and a "
                             "covariant right module")
        self.left = left
        self.right = right
        cat = self.cat = left.cat
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
        # coordinates of the big sum (unreduced)
        tb = self.tensors[c]
        return (self.big.inject(self.part_index[c]).matrix
                * (tb.group.to_can * pairs))

    def _accumulate(self, raw, c, part_vec, sign):
        off = self.big.offsets[self.part_index[c]]
        for k, v in enumerate(part_vec):
            raw[off + k] += sign * v

    def class_of_pure(self, c, x, y):
        """Class of the elementary tensor x ⊗ y sitting at object c."""
        raw = [0] * self.big.total_gens
        self._accumulate(raw, c, self.tensors[c].pure(x, y), 1)
        return self.projection.apply(self.big.group.to_canonical(raw))

    def pure_map(self, c, a) -> AbHom:
        """y ↦ class of e_a ⊗ y at object c, e_a the a-th generator of left(c)."""
        tb = self.tensors[c]
        pairs = IntMatrix(len(tb.entries), self.right.values[c].ngens,
                          nonzeros=[{b: 1} if x == a else {}
                                    for x, b, _ in tb.entries])
        return AbHom(self.right.values[c], self.group,
                     self.projection.matrix * self._pairs_to_big(c, pairs))

    def components(self, can_vec):
        """One representative of a class, as per-object tensor coordinates."""
        rep = self.group.representative(can_vec)   # big-group canonical coords
        out = {}
        for i, c in enumerate(self.cat.objects):
            out[c] = self.big.project(i).apply(rep)
        return out

    def induced(self, other: "CatTensor", left_map: ModuleMap | None,
                right_map: ModuleMap | None) -> AbHom:
        """The map of tensor groups induced by maps of both factors."""
        cat = self.cat
        blocks = {}
        for c in cat.objects:
            lm = (left_map.components[c] if left_map is not None
                  else AbHom.identity(self.left.values[c]))
            rm = (right_map.components[c] if right_map is not None
                  else AbHom.identity(self.right.values[c]))
            blocks[(other.part_index[c], self.part_index[c])] = \
                self.tensors[c].induced(other.tensors[c], lm, rm)
        # both groups are presented on the canonical coordinates of their sums
        big_map = block_hom(self.big, other.big, blocks)
        return hom_from_presentation(self.group, other.group, big_map.matrix)


def tensor_over_cat(left: CatModule, right: CatModule) -> FpAbGroup:
    """Canonical form of the tensor product over the base category."""
    return CatTensor(left, right).group


# ---------------------------------------------------------------------------
# Natural transformation groups (equalizer)
# ---------------------------------------------------------------------------


class CatHomGroup:
    """The group of natural transformations M => N (same variance).

    Computed as the kernel, inside ⊕_c Hom(M(c), N(c)), of the stacked
    naturality constraints over all non-identity morphisms.
    """

    __slots__ = ("source", "target", "cat", "bases", "big", "group",
                 "kernel_basis", "inclusion")

    def __init__(self, source: CatModule, target: CatModule):
        if source.cat != target.cat:
            raise ValueError("modules live over different categories")
        if source.variance != target.variance:
            raise ValueError("variance mismatch")
        self.source = source
        self.target = target
        cat = self.cat = source.cat
        self.bases = {c: HomBasis(source.values[c], target.values[c])
                      for c in cat.objects}
        self.big = DirectSum([self.bases[c].group for c in cat.objects])
        constraints = []      # (constraint hom from big.group, target basis)
        for f in cat.morphisms:
            if cat.is_identity(f):
                continue
            a, b = cat.dom[f], cat.cod[f]
            if source.variance == COVARIANT:
                # N(f)∘τ_a - τ_b∘M(f) : Hom(M(a), N(b))
                mixed = HomBasis(source.values[a], target.values[b])
                m1 = self.bases[a].postcompose(mixed, target.actions[f])
                m2 = self.bases[b].precompose(mixed, source.actions[f])
                ia, ib = cat.objects.index(a), cat.objects.index(b)
            else:
                # τ_a∘M(f) - N(f)∘τ_b : Hom(M(b), N(a))
                mixed = HomBasis(source.values[b], target.values[a])
                m1 = self.bases[a].precompose(mixed, source.actions[f])
                m2 = self.bases[b].postcompose(mixed, target.actions[f])
                ia, ib = cat.objects.index(a), cat.objects.index(b)
            part = m1.compose(self.big.project(ia)).add(
                m2.compose(self.big.project(ib)).negate())
            constraints.append(part)
        tgt_sum = DirectSum([p.target for p in constraints])
        delta = tgt_sum.hom_into(self.big.group, constraints)
        self.group, self.kernel_basis, self.inclusion = hom_kernel(delta)

    def to_module_map(self, can_vec) -> ModuleMap:
        v = self.inclusion.apply(can_vec)
        components = {}
        for i, c in enumerate(self.cat.objects):
            coords = self.big.project(i).apply(v)
            components[c] = self.bases[c].to_hom(coords)
        return ModuleMap(self.source, self.target, components)

    def coords_of(self, mm: ModuleMap):
        vec = self.big.assemble([self.bases[c].coords_of(mm.components[c])
                                 for c in self.cat.objects])
        return express_in_kernel(self.group, self.kernel_basis,
                                 self.big.group, vec)

    def postcompose_map(self, other: "CatHomGroup", u: ModuleMap) -> AbHom:
        """Hom(M,N) -> Hom(M,N'), τ ↦ u∘τ, for a module map u: N -> N'."""
        return self._objectwise_map(other, {
            c: self.bases[c].postcompose(other.bases[c], u.components[c])
            for c in self.cat.objects})

    def precompose_map(self, other: "CatHomGroup", v: ModuleMap) -> AbHom:
        """Hom(M,N) -> Hom(M',N), τ ↦ τ∘v, for a module map v: M' -> M."""
        return self._objectwise_map(other, {
            c: self.bases[c].precompose(other.bases[c], v.components[c])
            for c in self.cat.objects})

    def _objectwise_map(self, other: "CatHomGroup", maps) -> AbHom:
        # the map of transformation groups that acts on the component at
        # each object c by maps[c]
        blocks = {(i, i): maps[c] for i, c in enumerate(self.cat.objects)}
        moved = block_hom(self.big, other.big, blocks).compose(self.inclusion)
        cols = [express_in_kernel(other.group, other.kernel_basis,
                                  other.big.group, col)
                for col in moved.matrix.columns()]
        mat = IntMatrix.from_columns(cols, nrows=other.group.ngens)
        return AbHom(self.group, other.group, mat)


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


def _mor_free(func, d, variance):
    """Module c ↦ Z[mor_D(d, F c)] (covariant) or c ↦ Z[mor_D(F c, d)]
    (contravariant) over the functor's source, with its basis and index."""
    cat_c, cat_d = func.source, func.target
    co = variance == COVARIANT
    basis = {c: cat_d.mor(d, func.obj_map[c]) if co else cat_d.mor(func.obj_map[c], d)
             for c in cat_c.objects}
    values = {c: FpAbGroup.free(len(basis[c])) for c in cat_c.objects}
    index = {c: {m: k for k, m in enumerate(basis[c])} for c in cat_c.objects}
    actions = {}
    for f in cat_c.morphisms:
        # covariant: alpha ↦ alpha then F(f); contravariant: beta ↦ F(f) then beta
        a, b, g = cat_c.dom[f], cat_c.cod[f], func.mor_map[f]
        src, tgt = (a, b) if co else (b, a)
        moved = [cat_d.compose(m, g) if co else cat_d.compose(g, m) for m in basis[src]]
        actions[f] = AbHom(values[src], values[tgt],
                           IntMatrix.selection(len(basis[tgt]),
                                               [index[tgt][m] for m in moved]),
                           check=False)
    return CatModule(cat_c, variance, values, actions), basis, index


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
    helpers = {d: _mor_free(func, d, COVARIANT if contra else CONTRAVARIANT)
               for d in cat_d.objects}
    tens = {d: CatTensor(module, helpers[d][0]) if contra
            else CatTensor(helpers[d][0], module) for d in cat_d.objects}
    values = {d: tens[d].group for d in cat_d.objects}
    actions = {}
    for psi in cat_d.morphisms:
        d1, d2 = cat_d.dom[psi], cat_d.cod[psi]
        # contravariant: value(d2) -> value(d1), alpha ∈ mor(d2, Fc) ↦ psi
        # then alpha; covariant: value(d1) -> value(d2), beta ∈ mor(Fc, d1) ↦
        # beta then psi
        src_d, tgt_d = (d2, d1) if contra else (d1, d2)
        w_src, basis_src, _ = helpers[src_d]
        w_tgt, _, index_tgt = helpers[tgt_d]
        comps = {}
        for c in func.source.objects:
            moved = [cat_d.compose(psi, m) if contra else cat_d.compose(m, psi)
                     for m in basis_src[c]]
            mat = IntMatrix.selection(w_tgt.values[c].ngens,
                                      [index_tgt[c][m] for m in moved])
            comps[c] = AbHom(w_src.values[c], w_tgt.values[c], mat, check=False)
        mm = ModuleMap(w_src, w_tgt, comps)
        actions[psi] = (tens[src_d].induced(tens[tgt_d], None, mm) if contra
                        else tens[src_d].induced(tens[tgt_d], mm, None))
    return CatModule(cat_d, module.variance, values, actions)


# ---------------------------------------------------------------------------
# Generation, resolutions, Tor
# ---------------------------------------------------------------------------


def generating_cover(module: CatModule):
    """(free module, epi, marker): the objectwise-canonical-generator cover."""
    cat = module.cat
    gens = []
    slots = []      # generator i is canonical generator slots[i] of its value
    for c in cat.objects:
        for j in range(module.values[c].ngens):
            gens.append(c)
            slots.append(j)
    free, marker = free_module(cat, gens, module.variance)
    epi = _free_map(free, module,
                    lambda i, phi: module.actions[phi].matrix.column(slots[i]))
    return free, epi, marker


def is_finitely_generated(module: CatModule):
    """(verdict, marker witness).  Always true here: values are f.p. and the
    category is finite, so objectwise canonical generators give a finite free
    cover."""
    _, _, marker = generating_cover(module)
    return True, marker


Resolution = namedtuple("Resolution", ["modules", "maps", "augmentation",
                                       "markers"])


def free_resolution(module: CatModule, length: int) -> Resolution:
    """F_L -> ... -> F_0 -> M -> 0 with each F_i finitely generated free.

    maps[i] is the differential F_{i+1} -> F_i; exactness of the augmented
    complex is verified objectwise through degree L-1 and failure aborts.
    """
    if length < 0:
        raise ValueError("length must be >= 0")
    f0, eps, marker0 = generating_cover(module)
    modules = [f0]
    markers = [marker0]
    maps = []
    current = eps
    for _ in range(length):
        ker, inc = module_kernel(current)
        fi, epi, marker = generating_cover(ker)
        d = inc.compose(epi)
        modules.append(fi)
        markers.append(marker)
        maps.append(d)
        current = d
    for c in module.cat.objects:
        chain = [eps.components[c]] + [d.components[c] for d in maps]
        for i in range(len(chain) - 1):
            h = HomologyData(chain[i + 1], chain[i])
            if not h.group.is_trivial():
                raise AssertionError(
                    f"resolution not exact at step {i}, object {c!r}")
    return Resolution(tuple(modules), tuple(maps), eps, tuple(markers))


def tor(left: CatModule, right: CatModule, p: int) -> FpAbGroup:
    """Tor_p over the base category, resolving the contravariant argument."""
    if p < 0:
        raise ValueError("p must be >= 0")
    res = free_resolution(left, p + 1)
    tens = [CatTensor(f, right) for f in res.modules]
    diffs = [tens[i + 1].induced(tens[i], res.maps[i], None)
             for i in range(len(res.maps))]
    d_in = diffs[p]
    d_out = diffs[p - 1] if p >= 1 else None
    return HomologyData(d_in, d_out, space=tens[p].group).group


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
        if variance == COVARIANT:
            src_obj, tgt_obj = cat.dom[f], cat.cod[f]
        else:
            src_obj, tgt_obj = cat.cod[f], cat.dom[f]
        blocks = {(i, i): m.actions[f] for i, m in enumerate(modules)}
        actions[f] = block_hom(sums[src_obj], sums[tgt_obj], blocks)
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
