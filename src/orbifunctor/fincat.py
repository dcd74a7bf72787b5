"""Finite groups and finite small categories.

Provides the concrete categories everything else is parametrized by: orbit
categories of a finite group relative to a family of subgroups, their quotient
subgroup-conjugacy categories with the projection functor, transport groupoids
of finite group actions, and two truncated index categories ("chain" and
"grid").

Composition is written diagrammatically throughout: compose(f, g) means
"do f, then g" and needs cod(f) == dom(g).  Morphism labels are plain
hashable tuples, so categories can be compared and serialized directly.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import product

# group_analysis and the subgroup lattice walk every subset chain, and every
# group carries its full multiplication table; keep the exhaustive algorithms
# honest by refusing huge groups outright, before any table is built.
GROUP_ORDER_BOUND = 24
# The truncated index categories grow cubically in their size and their
# composition tables quadratically in that; refuse sizes past this outright.
CATEGORY_SIZE_BOUND = 24


class FinGroup:
    """Finite group given by a total multiplication table.

    Elements are arbitrary sortable hashables.  `mult(a, b)` is the group
    product a*b; for permutation groups built here, (p*q)(i) = p(q(i)).
    """

    __slots__ = ("elements", "table", "identity", "inv", "_subgroups",
                 "_positions")

    def __init__(self, elements, table, identity, inv):
        self.elements = tuple(elements)
        self.table = dict(table)
        self.identity = identity
        self.inv = dict(inv)
        self._subgroups = None
        self._positions = None

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_table(cls, elements, table):
        """Build and fully validate a group from a multiplication table."""
        elements = tuple(elements)
        if len(elements) > GROUP_ORDER_BOUND:
            raise ValueError(f"order {len(elements)} exceeds the bound "
                             f"{GROUP_ORDER_BOUND}")
        eset = set(elements)
        if len(eset) != len(elements):
            raise ValueError("duplicate elements")
        table = dict(table)
        for a, b in product(elements, repeat=2):
            if (a, b) not in table:
                raise ValueError(f"table missing product {a!r}*{b!r}")
            if table[(a, b)] not in eset:
                raise ValueError(f"product {a!r}*{b!r} leaves the element set")
        identity = None
        for e in elements:
            if all(table[(e, a)] == a and table[(a, e)] == a for a in elements):
                identity = e
                break
        if identity is None:
            raise ValueError("no identity element")
        inv = {}
        for a in elements:
            for b in elements:
                if table[(a, b)] == identity and table[(b, a)] == identity:
                    inv[a] = b
                    break
            else:
                raise ValueError(f"no inverse for {a!r}")
        for a, b, c in product(elements, repeat=3):
            if table[(table[(a, b)], c)] != table[(a, table[(b, c)])]:
                raise ValueError(f"associativity fails on ({a!r}, {b!r}, {c!r})")
        return cls(elements, table, identity, inv)

    @classmethod
    def trivial(cls):
        return cls.cyclic(1)

    @classmethod
    def cyclic(cls, n):
        if n < 1:
            raise ValueError("order must be >= 1")
        if n > GROUP_ORDER_BOUND:
            raise ValueError(f"order {n} exceeds the bound {GROUP_ORDER_BOUND}")
        els = list(range(n))
        table = {(a, b): (a + b) % n for a in els for b in els}
        inv = {a: (-a) % n for a in els}
        return cls(els, table, 0, inv)

    @classmethod
    def from_permutations(cls, perms):
        """Closure of the given permutation tuples under composition."""
        perms = [tuple(p) for p in perms]
        if not perms:
            raise ValueError("need at least one permutation")
        degree = len(perms[0])
        if any(len(p) != degree or sorted(p) != list(range(degree)) for p in perms):
            raise ValueError("not permutations of a common finite set")
        ident = tuple(range(degree))
        elements = {ident}
        frontier = [ident]
        while frontier:
            nxt = []
            for p in frontier:
                for q in perms:
                    r = tuple(q[p[i]] for i in range(degree))    # q after p
                    if r not in elements:
                        elements.add(r)
                        nxt.append(r)
                if len(elements) > GROUP_ORDER_BOUND:
                    raise ValueError(f"generated group has more than "
                                     f"{GROUP_ORDER_BOUND} elements")
            frontier = nxt
        els = sorted(elements)
        table = {(p, q): tuple(p[q[i]] for i in range(degree))
                 for p in els for q in els}
        inv = {}
        for p in els:
            ip = [0] * degree
            for i, v in enumerate(p):
                ip[v] = i
            inv[p] = tuple(ip)
        return cls(els, table, ident, inv)

    @classmethod
    def symmetric(cls, n):
        # n itself is bounded first: the generators alone take n^2 entries
        if not 1 <= n <= GROUP_ORDER_BOUND:
            raise ValueError(f"n must be in [1, {GROUP_ORDER_BOUND}]")
        if n == 1:
            return cls.from_permutations([(0,)])
        transpositions = []
        for i in range(n - 1):
            p = list(range(n))
            p[i], p[i + 1] = p[i + 1], p[i]
            transpositions.append(tuple(p))
        return cls.from_permutations(transpositions)

    @classmethod
    def dihedral(cls, n):
        """Symmetries of the regular n-gon acting on vertices 0..n-1."""
        if not 1 <= n <= GROUP_ORDER_BOUND:
            raise ValueError(f"n must be in [1, {GROUP_ORDER_BOUND}]")
        rot = tuple((i + 1) % n for i in range(n))
        ref = tuple((-i) % n for i in range(n))
        return cls.from_permutations([rot, ref])

    @classmethod
    def direct_product(cls, g1, g2):
        els = [(a, b) for a in g1.elements for b in g2.elements]
        table = {((a1, b1), (a2, b2)): (g1.mult(a1, a2), g2.mult(b1, b2))
                 for (a1, b1) in els for (a2, b2) in els}
        inv = {(a, b): (g1.inverse(a), g2.inverse(b)) for (a, b) in els}
        return cls(els, table, (g1.identity, g2.identity), inv)

    # -- basic operations --------------------------------------------------

    @property
    def order(self):
        return len(self.elements)

    def mult(self, a, b):
        return self.table[(a, b)]

    def inverse(self, a):
        return self.inv[a]

    def conjugate(self, g, h):
        """g^-1 h g."""
        return self.mult(self.mult(self.inverse(g), h), g)

    def conjugate_subgroup(self, g, subgroup):
        return frozenset(self.conjugate(g, h) for h in subgroup)

    def is_abelian(self):
        return all(self.mult(a, b) == self.mult(b, a)
                   for a in self.elements for b in self.elements)

    def is_subgroup(self, subset):
        subset = frozenset(subset)
        if self.identity not in subset:
            return False
        return all(self.mult(a, self.inverse(b)) in subset
                   for a in subset for b in subset)

    def subgroup_generated(self, gens):
        current = {self.identity}
        frontier = list(current)
        gens = list(gens)
        while frontier:
            nxt = []
            for a in frontier:
                for g in gens:
                    for b in (self.mult(a, g), self.mult(a, self.inverse(g))):
                        if b not in current:
                            current.add(b)
                            nxt.append(b)
            frontier = nxt
        return frozenset(current)

    def positions(self):
        """(elements, position, mult, inv) on element positions, built once:
        the elements in sorted order, the position of each, and the product
        and the inverse as lists of positions.  Positions order as their
        elements do, so a sorted tuple of positions is a sorted label."""
        if self._positions is None:
            els = sorted(self.elements)
            at = {g: i for i, g in enumerate(els)}
            table = self.table
            self._positions = (els, at,
                               [[at[table[(a, b)]] for b in els] for a in els],
                               [at[self.inv[a]] for a in els])
        return self._positions

    def all_subgroups(self):
        """Complete subgroup lattice, ordered by (size, sorted elements).

        On element positions: from the trivial subgroup on, each subgroup
        found is joined once with one element of each of its cosets outside
        it (<H, g> depends on gH only)."""
        if self._subgroups is not None:
            return self._subgroups
        if self.order > GROUP_ORDER_BOUND:
            raise ValueError(
                f"group of order {self.order} exceeds the exhaustive-enumeration "
                f"bound {GROUP_ORDER_BOUND}")
        els, at, mult, _ = self.positions()

        def closure(sub, gens):
            # sub closed under right multiplication by gens
            current, frontier = set(sub), list(sub)
            while frontier:
                nxt = []
                for a in frontier:
                    row = mult[a]
                    for g in gens:
                        b = row[g]
                        if b not in current:
                            current.add(b)
                            nxt.append(b)
                frontier = nxt
            return frozenset(current)

        trivial = frozenset([at[self.identity]])
        found = {trivial: ()}       # each subgroup -> elements generating it
        work = [trivial]
        while work:
            sub = work.pop()
            gens, seen = found[sub], set(sub)
            for g in range(len(els)):
                if g not in seen:
                    bigger = closure(sub, gens + (g,))
                    if bigger not in found:
                        found[bigger] = gens + (g,)
                        work.append(bigger)
                    seen.update(mult[g][h] for h in sub)
        self._subgroups = tuple(
            frozenset(els[i] for i in sub)
            for sub in sorted(found, key=lambda x: (len(x), sorted(x))))
        return self._subgroups

    def centralizer(self, subset):
        return frozenset(g for g in self.elements
                         if all(self.mult(g, h) == self.mult(h, g) for h in subset))

    def normalizer(self, subgroup):
        subgroup = frozenset(subgroup)
        return frozenset(g for g in self.elements
                         if self.conjugate_subgroup(g, subgroup) == subgroup)

    def quotient(self, normal_subgroup):
        """(quotient group, projection dict); requires a normal subgroup."""
        n_sub = frozenset(normal_subgroup)
        if not self.is_subgroup(n_sub):
            raise ValueError("not a subgroup")
        if any(self.conjugate_subgroup(g, n_sub) != n_sub for g in self.elements):
            raise ValueError("subgroup is not normal")
        proj = _coset_labels(self, n_sub)
        cosets = {c: min(c) for c in proj.values()}     # any representative
        els = sorted(cosets)
        table = {(c1, c2): proj[self.mult(cosets[c1], cosets[c2])]
                 for c1 in els for c2 in els}
        inv = {c: proj[self.inverse(cosets[c])] for c in els}
        return FinGroup(els, table, proj[self.identity], inv), proj


GroupAnalysis = namedtuple(
    "GroupAnalysis", ["subgroups", "conjugacy_classes", "centralizers", "normalizers"])


def group_analysis(group: FinGroup) -> GroupAnalysis:
    """Complete subgroup lattice with conjugacy classes, Z_G H and N_G H."""
    subs = group.all_subgroups()
    seen = set()
    classes = []
    for sub in subs:
        if sub not in seen:
            orbit = {group.conjugate_subgroup(g, sub) for g in group.elements}
            seen |= orbit
            classes.append(tuple(sorted(orbit, key=lambda s: sorted(s))))
    centralizers = {sub: group.centralizer(sub) for sub in subs}
    normalizers = {sub: group.normalizer(sub) for sub in subs}
    return GroupAnalysis(subs, tuple(classes), centralizers, normalizers)


class SubgroupFamily:
    """A set of subgroups closed under conjugation and under passing to
    subgroups."""

    __slots__ = ("group", "members", "_member_set", "_orbit_cat")

    def __init__(self, group: FinGroup, members):
        self.group = group
        members = {frozenset(m) for m in members}
        for m in members:
            if not group.is_subgroup(m):
                raise ValueError(f"not a subgroup: {sorted(m)}")
            for g in group.elements:
                if group.conjugate_subgroup(g, m) not in members:
                    raise ValueError(f"family not closed under conjugation at "
                                     f"{sorted(m)}")
        lattice = group.all_subgroups()
        for m in members:
            for sub in lattice:
                if sub <= m and sub not in members:
                    raise ValueError(f"family not closed under subgroups: "
                                     f"{sorted(sub)} <= {sorted(m)}")
        self.members = tuple(sorted(members, key=lambda s: (len(s), sorted(s))))
        self._member_set = frozenset(members)
        self._orbit_cat = None      # Or(G, family), built on first request

    @classmethod
    def all(cls, group):
        return cls(group, group.all_subgroups())

    @classmethod
    def trivial(cls, group):
        return cls(group, [frozenset([group.identity])])

    def __contains__(self, subgroup):
        return frozenset(subgroup) in self._member_set

    def __len__(self):
        return len(self.members)


def family_closure(group: FinGroup, seeds) -> SubgroupFamily:
    """Smallest family (conjugation- and subgroup-closed) containing the seeds."""
    seeds = [frozenset(s) for s in seeds]
    for s in seeds:
        if not group.is_subgroup(s):
            raise ValueError(f"seed is not a subgroup: {sorted(s)}")
    members = set()
    lattice = group.all_subgroups()
    for seed in seeds:
        for g in group.elements:
            conj = group.conjugate_subgroup(g, seed)
            for sub in lattice:
                if sub <= conj:
                    members.add(sub)
    return SubgroupFamily(group, members)


# ---------------------------------------------------------------------------
# Categories
# ---------------------------------------------------------------------------


class FinCategory:
    """A finite category: labeled objects/morphisms plus a composition table.

    table[(f, g)] is the composite "f then g"; it exists exactly when
    cod(f) == dom(g).  `standard` is (kind, truncation) for a category built
    by `standard_category`, and None otherwise.
    """

    __slots__ = ("objects", "morphisms", "dom", "cod", "table", "ids",
                 "mor_index", "_index", "standard")

    def __init__(self, objects, morphisms, dom, cod, table, ids):
        self.standard = None
        self.objects = tuple(objects)
        self.morphisms = tuple(morphisms)
        self.dom = dict(dom)
        self.cod = dict(cod)
        self.table = dict(table)
        self.ids = dict(ids)
        self.mor_index = {f: i for i, f in enumerate(self.morphisms)}
        if len(self.mor_index) != len(self.morphisms):
            raise ValueError("morphism labels are not distinct")
        # everything else indexes dom, cod and ids directly, so a missing
        # entry is refused here rather than met later as a KeyError
        objset = set(self.objects)
        index = {}      # the morphisms by (dom, cod), by dom and by cod
        for f in self.morphisms:
            a, b = self.dom.get(f), self.cod.get(f)
            if a not in objset or b not in objset:
                raise ValueError(f"morphism {f!r} has no dom/cod in the "
                                 f"object set")
            for key in (("hom", a, b), ("from", a), ("to", b)):
                index.setdefault(key, []).append(f)
        self._index = {key: tuple(fs) for key, fs in index.items()}
        for a in self.objects:
            if self.ids.get(a) not in self.mor_index:
                raise ValueError(f"object {a!r} has no identity morphism")

    def mor(self, a, b):
        """All morphisms a -> b, in stable declaration order."""
        return self._index.get(("hom", a, b), ())

    def identity(self, obj):
        return self.ids[obj]

    def is_identity(self, f):
        return self.ids.get(self.dom[f]) == f and self.dom[f] == self.cod[f]

    def compose(self, f, g):
        """The composite "f then g"."""
        try:
            return self.table[(f, g)]
        except KeyError:
            raise ValueError(f"morphisms not composable: {f!r} then {g!r}") from None

    def endomorphisms(self, obj):
        return self.mor(obj, obj)

    def mor_from(self, obj):
        """All morphisms out of obj, in declaration order."""
        return self._index.get(("from", obj), ())

    def mor_to(self, obj):
        """All morphisms into obj, in declaration order."""
        return self._index.get(("to", obj), ())

    def __eq__(self, other):
        return self is other or (
            isinstance(other, FinCategory)
            and self.objects == other.objects
            and self.morphisms == other.morphisms
            and self.dom == other.dom and self.cod == other.cod
            and self.table == other.table and self.ids == other.ids)

    def __hash__(self):
        return hash((self.objects, self.morphisms))

    def __repr__(self):
        return (f"FinCategory({len(self.objects)} objects, "
                f"{len(self.morphisms)} morphisms)")


def validate_category(cat: FinCategory) -> list:
    """Exhaustive axiom check; returns human-readable problems, [] if valid.

    Stops at the first associativity violation (the expensive phase) but
    reports all structural problems found before that.
    """
    problems = []
    # the constructor has checked that dom, cod and ids are complete
    for a in cat.objects:
        i = cat.ids[a]
        if cat.dom[i] != a or cat.cod[i] != a:
            problems.append(f"identity of {a!r} is not an endomorphism")
    if problems:
        return problems
    # a pair can be faulty only if it is composable or in the table: visit
    # those, in declaration order
    idx = cat.mor_index
    pairs = _composable(cat.morphisms, cat.dom, cat.cod) + [
        (f, g) for f, g in cat.table
        if f in idx and g in idx and cat.cod[f] != cat.dom[g]]
    pairs.sort(key=lambda fg: (idx[fg[0]], idx[fg[1]]))
    for f, g in pairs:
        if cat.cod[f] != cat.dom[g]:
            problems.append(f"table defined on non-composable {f!r}, {g!r}")
        elif (f, g) not in cat.table:
            problems.append(f"missing composite {f!r} then {g!r}")
        elif (h := cat.table[(f, g)]) not in idx:
            problems.append(f"composite {f!r} then {g!r} is not a morphism")
        elif cat.dom[h] != cat.dom[f] or cat.cod[h] != cat.cod[g]:
            problems.append(f"composite {f!r} then {g!r} has wrong dom/cod")
    if problems:
        return problems
    for f in cat.morphisms:
        if cat.table[(cat.ids[cat.dom[f]], f)] != f:
            problems.append(f"left identity fails at {f!r}")
        if cat.table[(f, cat.ids[cat.cod[f]])] != f:
            problems.append(f"right identity fails at {f!r}")
    if problems:
        return problems
    # associativity on positions, which hash faster than labels; the pairs
    # are now the composable ones, in declaration order
    then = {}       # position of f -> {position of g: position of f then g}
    for f, g in pairs:
        then.setdefault(idx[f], {})[idx[g]] = idx[cat.table[(f, g)]]
    for i, fi in then.items():
        for j, ij in fi.items():
            fij, fj = then[ij], then[j]
            for k, jk in fj.items():
                if fij[k] != fi[jk]:
                    f, g, h = (cat.morphisms[x] for x in (i, j, k))
                    problems.append(
                        f"associativity fails on triple ({f!r}, {g!r}, {h!r})")
                    return problems
    return problems


class CatFunctor:
    """Functor between finite categories as explicit object/morphism maps."""

    __slots__ = ("source", "target", "obj_map", "mor_map")

    def __init__(self, source, target, obj_map, mor_map):
        self.source = source
        self.target = target
        self.obj_map = dict(obj_map)
        self.mor_map = dict(mor_map)

    def on_morphism(self, f):
        return self.mor_map[f]


def validate_functor(func: CatFunctor) -> list:
    """Functor axiom check; returns problems, [] if valid."""
    problems = []
    src, tgt = func.source, func.target
    for a in src.objects:
        if func.obj_map.get(a) not in set(tgt.objects):
            problems.append(f"object {a!r} not mapped into the target")
    for f in src.morphisms:
        ff = func.mor_map.get(f)
        if ff not in tgt.mor_index:
            problems.append(f"morphism {f!r} not mapped into the target")
        elif (tgt.dom[ff] != func.obj_map[src.dom[f]]
              or tgt.cod[ff] != func.obj_map[src.cod[f]]):
            problems.append(f"morphism {f!r} breaks dom/cod")
    if problems:
        return problems
    for a in src.objects:
        if func.mor_map[src.ids[a]] != tgt.ids[func.obj_map[a]]:
            problems.append(f"identity of {a!r} not preserved")
    for (f, g), h in src.table.items():
        if tgt.compose(func.mor_map[f], func.mor_map[g]) != func.mor_map[h]:
            problems.append(f"composition not preserved on ({f!r}, {g!r})")
            return problems
    return problems


def pi0(cat: FinCategory):
    """Connected components of objects (morphisms taken as undirected edges)."""
    parent = {a: a for a in cat.objects}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for f in cat.morphisms:
        ra, rb = find(cat.dom[f]), find(cat.cod[f])
        if ra != rb:
            parent[ra] = rb
    comps = {}
    for a in cat.objects:
        comps.setdefault(find(a), []).append(a)
    return tuple(tuple(c) for c in
                 sorted(comps.values(), key=lambda c: str(c[0])))


# ---------------------------------------------------------------------------
# The specific categories
# ---------------------------------------------------------------------------


def _subgroup_label(subgroup):
    return tuple(sorted(subgroup))


def _coset_label(group, g, subgroup):
    return tuple(sorted(group.mult(g, k) for k in subgroup))


def _coset_labels(group, subgroup):
    """{g: label of gH} for every element g, one sort per coset; the cosets
    appear in the order of their first element."""
    labels = {}
    for g in group.elements:
        if g not in labels:
            lab = _coset_label(group, g, subgroup)
            labels.update(dict.fromkeys(lab, lab))
    return labels


def _composable(morphisms, dom, cod):
    """The composable pairs (f, g), f-major in the order of `morphisms`: g
    runs over the morphisms out of cod f only."""
    out = {}
    for g in morphisms:
        out.setdefault(dom[g], []).append(g)
    return [(f, g) for f in morphisms for g in out.get(cod[f], ())]


def orbit_category(group: FinGroup, family: SubgroupFamily) -> FinCategory:
    """Category of homogeneous spaces G/H for H in the family.

    Objects are subgroup labels; mor(G/H, G/K) is the set of cosets gK with
    g^-1 H g <= K, acting by xH |-> x(gK); composition multiplies coset
    representatives, the least elements of the cosets.  Built on element
    positions (`FinGroup.positions`), with morphisms in sorted order.  The
    family holds the category once built; a group other than the family's
    own gets a fresh build.
    """
    own = group is family.group
    if own and family._orbit_cat is not None:
        return family._orbit_cat
    els, at, mult, inv = group.positions()
    objects = [_subgroup_label(m) for m in family.members]
    subs = [sorted(at[h] for h in m) for m in family.members]
    masks = [sum(1 << h for h in sub) for sub in subs]
    cosets = []     # per object: the coset of each position, the least
    for sub in subs:    # element and the label of each coset
        of, least, labels = [None] * len(els), [], []
        for g in range(len(els)):
            if of[g] is None:
                coset = sorted(mult[g][h] for h in sub)
                for x in coset:
                    of[x] = len(least)
                least.append(g)
                labels.append(tuple(els[x] for x in coset))
        cosets.append((of, least, labels))
    conjugates = {}     # (object, r) -> r^-1 H r, as a mask of positions

    def conjugated(i, r):
        mask = conjugates.get((i, r))
        if mask is None:
            row = mult[inv[r]]
            mask = conjugates[(i, r)] = sum(1 << mult[row[h]][r]
                                            for h in subs[i])
        return mask
    # the morphisms (H, K, gK) in sorted order: by H, by K, then by coset,
    # the cosets of one K ordering as their least elements do
    order = sorted(range(len(objects)), key=objects.__getitem__)
    morphisms, ends, named, out = [], [], {}, {}
    for i in order:
        for k in order:
            _, least, labels = cosets[k]
            for c, r in enumerate(least):
                if conjugated(i, r) | masks[k] == masks[k]:
                    f = (objects[i], objects[k], labels[c])
                    morphisms.append(f)
                    ends.append((i, k, r))
                    named[(i, k, c)] = f
                    out.setdefault(i, []).append((f, k, r))
    dom = {f: objects[i] for f, (i, _, _) in zip(morphisms, ends)}
    cod = {f: objects[k] for f, (_, k, _) in zip(morphisms, ends)}
    ids = {o: named[(i, i, cosets[i][0][at[group.identity]])]
           for i, o in enumerate(objects)}
    # f: H -> K then g: K -> L is the coset of the product of their least
    # elements, f-major as `_composable` orders pairs
    table = {(f, g): named[(i, m, cosets[m][0][mult[r][s]])]
             for f, (i, k, r) in zip(morphisms, ends)
             for g, m, s in out.get(k, ())}
    cat = FinCategory(objects, morphisms, dom, cod, table, ids)
    if own:
        family._orbit_cat = cat
    return cat


SubCatData = namedtuple("SubCatData", ["sub", "projection", "orbit"])


def sub_category_and_projection(group: FinGroup,
                                family: SubgroupFamily) -> SubCatData:
    """The conjugation-homomorphism quotient of the orbit category.

    Morphisms H -> K are orbits of orbit-category morphisms under left
    multiplication by the centralizer Z_G H on cosets; equivalently,
    conjugation homomorphisms up to inner automorphisms of K.  Returns the
    quotient category, the projection functor, and the orbit category it
    quotients.
    """
    orb = orbit_category(group, family)
    labels = {o: _coset_labels(group, o) for o in orb.objects}
    centralizers = {o: group.centralizer(o) for o in orb.objects}
    # a class is named by its least coset, itself an orbit-category morphism
    # (its representative, the least element of the class, leads the label),
    # so composites of classes are the classes of composites
    mor_map = {f: (f[0], f[1], min(labels[f[1]][group.mult(z, min(f[2]))]
                                   for z in centralizers[f[0]]))
               for f in orb.morphisms}
    dom = {f: f[0] for f in dict.fromkeys(mor_map.values())}
    cod = {f: f[1] for f in dom}
    ids = {o: mor_map[orb.ids[o]] for o in orb.objects}
    morphisms = sorted(dom)
    table = {(f, g): mor_map[orb.table[(f, g)]]
             for f, g in _composable(morphisms, dom, cod)}
    sub = FinCategory(orb.objects, morphisms, dom, cod, table, ids)
    projection = CatFunctor(orb, sub, {o: o for o in orb.objects}, mor_map)
    return SubCatData(sub, projection, orb)


def coset_g_set(group: FinGroup, subgroup):
    """(elements, action) of the left G-set G/H: action[(g, xH)] = (gx)H."""
    labels = _coset_labels(group, frozenset(subgroup))
    elements = sorted(set(labels.values()))
    action = {(g, coset): labels[group.mult(g, min(coset))]
              for coset in elements for g in group.elements}
    return elements, action


def _generating_set(group: FinGroup):
    # greedy over the element order: each element outside the span so far
    gens, span = [], {group.identity}
    for g in group.elements:
        if g not in span:
            gens.append(g)
            span = group.subgroup_generated(gens)
    return gens


def transport_groupoid(group: FinGroup, elements, action) -> FinCategory:
    """Transport groupoid of a finite left G-set.

    Objects are the set elements; mor(s1, s2) = {g : g.s1 = s2}; the composite
    of (g: s1 -> s2) then (g': s2 -> s3) is g'g.
    """
    elements = tuple(elements)
    elset = set(elements)
    for s in elements:
        if action.get((group.identity, s)) != s:
            raise ValueError(f"identity does not fix {s!r}")
        for g in group.elements:
            if (g, s) not in action or action[(g, s)] not in elset:
                raise ValueError(f"action incomplete at ({g!r}, {s!r})")
    # the table is complete; g'·(g·s) = (g'g)·s holds for every g' once it
    # does for generators: from a and b, (ab)·(g·s) = a·(b·(g·s)) = (abg)·s
    gens = _generating_set(group)
    for s in elements:
        for g in group.elements:
            t = action[(g, s)]
            for g2 in gens:
                if action[(g2, t)] != action[(group.mult(g2, g), s)]:
                    raise ValueError(
                        f"action not compatible at ({g2!r}, {g!r}, {s!r})")
    morphisms = [(s, action[(g, s)], g)
                 for s in elements for g in group.elements]
    dom = {f: f[0] for f in morphisms}
    cod = {f: f[1] for f in morphisms}
    ids = {s: (s, s, group.identity) for s in elements}
    morphisms.sort()
    mult = group.table
    table = {(f, g): (f[0], g[1], mult[(g[2], f[2])])
             for f, g in _composable(morphisms, dom, cod)}
    return FinCategory(elements, morphisms, dom, cod, table, ids)


def one_object_category(group: FinGroup) -> FinCategory:
    """The one-object category with endomorphisms the group elements.

    Diagrammatic composition: compose(a, b) = b*a.
    """
    obj = "*"
    morphisms = tuple(group.elements)
    dom = {g: obj for g in morphisms}
    cod = dict(dom)
    table = {(a, b): group.mult(b, a) for a in morphisms for b in morphisms}
    return FinCategory([obj], morphisms, dom, cod, table, {obj: group.identity})


def standard_category(kind: str, truncation: int) -> FinCategory:
    """Truncated index categories on objects {0..K}.

    kind "chain": at most one morphism i -> j, present iff i <= j.
    kind "grid": mor(m, n) = {(i, j) : i, j >= 0, i + j = n - m}, composed
    componentwise.
    """
    if not 0 <= truncation <= CATEGORY_SIZE_BOUND:
        raise ValueError(f"truncation must be in [0, {CATEGORY_SIZE_BOUND}]")
    objects = list(range(truncation + 1))
    if kind == "chain":
        morphisms = [(i, j) for i in objects for j in objects if i <= j]
        dom = {f: f[0] for f in morphisms}
        cod = {f: f[1] for f in morphisms}
        table = {(f, g): (f[0], g[1])
                 for f, g in _composable(morphisms, dom, cod)}
        ids = {i: (i, i) for i in objects}
    elif kind == "grid":
        morphisms = []
        for m in objects:
            for n in objects:
                if n >= m:
                    morphisms.extend((m, n, (i, n - m - i)) for i in range(n - m + 1))
        dom = {f: f[0] for f in morphisms}
        cod = {f: f[1] for f in morphisms}
        table = {(f, g): (f[0], g[1], (f[2][0] + g[2][0], f[2][1] + g[2][1]))
                 for f, g in _composable(morphisms, dom, cod)}
        ids = {i: (i, i, (0, 0)) for i in objects}
    else:
        raise ValueError(f"unknown kind {kind!r} (expected 'chain' or 'grid')")
    cat = FinCategory(objects, morphisms, dom, cod, table, ids)
    cat.standard = (kind, truncation)
    return cat
