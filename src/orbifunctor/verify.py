"""Runnable verdicts: hypothesis checks, comparison verification, and probes.

The centerpiece bundles the data of the linear comparison statement into a
``TheoremInstance`` and answers two questions exactly: do the hypotheses
hold (degree support, coefficient vanishing, properness, smallness of
fixed-set quotients), and is the comparison map an isomorphism on homology
through the requested degree.  Alongside it live the structural checks and
the two counterexample probes, each phrased as a finite exact statement:
the subgroup-category factorization test, the graded interchange criterion
with its symbolic tail verdict, the torsion double-limit probe with its
diagonal witness, and the Borel-versus-quotient annihilation check.

Every verdict is reproducible from its inputs; nothing here samples."""

from __future__ import annotations

import warnings
from collections import namedtuple
from math import lcm

from .exact_abelian import (
    AbHom,
    DirectSum,
    FpAbGroup,
    IntMatrix,
    block_hom,
    hom_kernel_cokernel,
    is_isomorphism,
    solve_image_membership,
)
from .fincat import (
    FinCategory,
    FinGroup,
    SubgroupFamily,
    coset_g_set,
    orbit_category,
    pi0,
    sub_category_and_projection,
    transport_groupoid,
)
from .catmod import COVARIANT, CONTRAVARIANT, CatModule, ModuleMap, free_module
from .chainplex import (
    BiFunctorComplex,
    CatChainComplex,
    ChainMap,
    PlainChainComplex,
    cat_complex_concentrated,
    comparison_map_t,
    complex_concentrated,
    homology,
    induced_map_on_homology,
)
from .cellspaces import (
    GCWComplex,
    borel_and_quotient,
    borel_valid_through,
    cellular_chain_complex,
    centralizer_quotient_chains,
    classifying_model,
    fixed_point_chains,
    hexagon_s3,
    reflection_circle,
)

STRICT = "strict-fg"
ALMOST = "almost-fg"


# ---------------------------------------------------------------------------
# Theorem instances
# ---------------------------------------------------------------------------


class TheoremInstance:
    """The data of the linear comparison statement, bundled and validated.

    index_cat: the finite index category.  free_complex: a bounded
    degreewise free-marked contravariant complex over it.  group/family fix
    an orbit category; space is either equivariant cell data or directly a
    free-marked contravariant complex over that orbit category.
    coefficients: a bifunctor complex, contravariant in the index leg and
    covariant in the orbit leg.  top_degree bounds the support of
    free_complex; through_degree is how far conclusions are requested;
    vanishing_floor is the degree below which coefficient homology must
    vanish.  mode selects strict or almost finite-generation bookkeeping.
    """

    __slots__ = ("index_cat", "free_complex", "group", "family", "space",
                 "coefficients", "top_degree", "through_degree",
                 "vanishing_floor", "mode", "coeff_truncated", "orbit_cat")

    def __init__(self, index_cat: FinCategory, free_complex: CatChainComplex,
                 group: FinGroup, family: SubgroupFamily, space,
                 coefficients: BiFunctorComplex, top_degree: int,
                 through_degree: int, vanishing_floor: int = 0,
                 mode: str = STRICT, coeff_truncated: bool = False):
        if mode not in (STRICT, ALMOST):
            raise ValueError(f"unknown mode {mode!r}")
        if top_degree < 0:
            raise ValueError("top degree must be >= 0")
        if free_complex.base != index_cat:
            raise ValueError("free complex does not live over the index category")
        if free_complex.variance != CONTRAVARIANT:
            raise ValueError("free complex must be contravariant")
        if not free_complex.is_degreewise_free():
            raise ValueError("free complex must carry free markers")
        self.orbit_cat = orbit_category(group, family)
        if coefficients.index_base != index_cat:
            raise ValueError("coefficient index leg does not match the index category")
        if coefficients.coeff_base != self.orbit_cat:
            raise ValueError("coefficient orbit leg does not match Or(G, family)")
        if isinstance(space, GCWComplex):
            if space.group is not group and (space.group.elements != group.elements
                                             or space.group.table != group.table):
                raise ValueError("space belongs to a different group")
        elif isinstance(space, CatChainComplex):
            if space.base != self.orbit_cat or space.variance != CONTRAVARIANT:
                raise ValueError(
                    "space chains must be contravariant over Or(G, family)")
            if not space.is_degreewise_free():
                raise ValueError("space chains must carry free markers")
        else:
            raise ValueError("space must be cell data or a chain complex")
        # Both comparison totals end in degree (top of the space chains) +
        # (top of the coefficient window) - (bottom of the free complex);
        # homology above the next degree is zero by construction.
        space_hi = space.dimension if isinstance(space, GCWComplex) else space.hi
        last = space_hi + coefficients.hi - free_complex.lo + 1
        if not 0 <= through_degree <= last:
            raise ValueError(
                f"through degree {through_degree} is outside [0, {last}]: the "
                f"comparison totals end in degree {last - 1}")
        self.index_cat = index_cat
        self.free_complex = free_complex
        self.group = group
        self.family = family
        self.space = space
        self.coefficients = coefficients
        self.top_degree = top_degree
        self.through_degree = through_degree
        self.vanishing_floor = vanishing_floor
        self.mode = mode
        self.coeff_truncated = coeff_truncated

    def space_chains(self) -> CatChainComplex:
        if isinstance(self.space, GCWComplex):
            return fixed_point_chains(self.space, self.family)
        return self.space


# ---------------------------------------------------------------------------
# Hypothesis checking
# ---------------------------------------------------------------------------

Verdict = namedtuple("Verdict", ["passed", "witnesses", "note"])
HypothesisReport = namedtuple(
    "HypothesisReport", ["a", "b", "c", "d", "mode", "passed"])


def check_hypotheses(inst: TheoremInstance) -> HypothesisReport:
    """Four verdicts: degree support, coefficient vanishing, properness,
    and finite generation of the fixed-set quotient homology."""
    d, n, floor = inst.top_degree, inst.through_degree, inst.vanishing_floor

    support_witnesses = []
    for p in inst.free_complex.degrees():
        if 0 <= p <= d:
            continue
        mod = inst.free_complex.module(p)
        if mod.total_rank() > 0:
            support_witnesses.append(p)
    a = Verdict(not support_witnesses, tuple(support_witnesses),
                f"degree support must lie in [0, {d}]")

    e = inst.coefficients
    vanish_witnesses = []
    for i in e.index_base.objects:
        for j in e.coeff_base.objects:
            c = e.complex(i, j)
            for q in range(c.lo, min(floor, c.hi + 1)):
                hq = homology(c, q)
                if not hq.is_trivial():
                    vanish_witnesses.append((i, j, q, hq))
    note_b = f"coefficient homology must vanish below degree {floor}"
    if floor - 1 > e.hi:
        note_b += (f"; window ends at {e.hi}, vanishing in ({e.hi}, {floor}) "
                   "holds by construction of the window")
    b = Verdict(not vanish_witnesses, tuple(vanish_witnesses), note_b)

    orbit_types = len(inst.family)
    c_verdict = Verdict(True, (),
                        f"finite group: isotropy automatically finite; "
                        f"{orbit_types} orbit types in the family")

    d_witnesses = []
    annihilator = 1
    if isinstance(inst.space, GCWComplex):
        top_p = n + d - floor
        fam_of_space = inst.space.isotropy_family()
        for member in inst.family.members:
            label = tuple(sorted(member))
            if member not in fam_of_space:
                d_witnesses.append((label, None, "no fixed cells: zero complex"))
                continue
            cq = centralizer_quotient_chains(inst.space, label)
            for p in range(0, min(top_p, cq.hi) + 1):
                hp = homology(cq, p)
                d_witnesses.append((label, p, hp))
                if hp.torsion:
                    annihilator = lcm(annihilator, hp.exponent())
        note_d = (f"all values finitely presented, hence finitely generated; "
                  f"degrees checked up to {top_p}")
        if inst.mode == ALMOST:
            note_d += (f"; uniform torsion annihilator candidate {annihilator} "
                       "(strict and almost coincide at finite scale)")
    else:
        note_d = ("space given as chains, not cells: values are finitely "
                  "presented by construction, fixed-set quotients not sampled")
    dd = Verdict(True, tuple(d_witnesses), note_d)

    return HypothesisReport(a, b, c_verdict, dd, inst.mode,
                            a.passed and b.passed)


# ---------------------------------------------------------------------------
# Comparison verification
# ---------------------------------------------------------------------------

ISO = "isomorphism"
ALMOST_ISO = "almost-isomorphism"
NEITHER = "neither"

MapClass = namedtuple("MapClass", ["kind", "kernel", "cokernel", "annihilator"])
ComparisonReport = namedtuple(
    "ComparisonReport", ["per_degree", "all_iso", "passed", "mode"])


def classify_map(f: AbHom) -> MapClass:
    ker, coker, _ = hom_kernel_cokernel(f)
    if ker.is_trivial() and coker.is_trivial():
        return MapClass(ISO, ker, coker, 1)
    if ker.rank == 0 and coker.rank == 0:
        return MapClass(ALMOST_ISO, ker, coker,
                        lcm(ker.exponent(), coker.exponent()))
    return MapClass(NEITHER, ker, coker, None)


def verify_comparison(inst: TheoremInstance, mode=None) -> ComparisonReport:
    """Build both totals, the comparison chain map, and classify it on
    homology in every degree up to the requested one."""
    mode = mode or inst.mode
    if mode != inst.mode:
        warnings.warn(
            f"mixed modes: instance assumes {inst.mode}, conclusion requested "
            f"in {mode}; proceeding with the requested mode", stacklevel=2)
    if inst.coeff_truncated:
        reliable = inst.coefficients.hi - inst.top_degree - 1
        if inst.through_degree > reliable:
            raise ValueError(
                f"coefficient window is a truncation: homology in degree "
                f"{max(reliable + 1, 0)} and above is unreliable, but "
                f"conclusions through {inst.through_degree} were requested; "
                f"extend the window to degree "
                f"{inst.through_degree + inst.top_degree + 1}")
    chains = inst.space_chains()
    t = comparison_map_t(chains, inst.free_complex, inst.coefficients)
    per_degree = {}
    for p in range(inst.through_degree + 1):
        per_degree[p] = classify_map(induced_map_on_homology(t, p))
    all_iso = all(m.kind == ISO for m in per_degree.values())
    if mode == STRICT:
        passed = all_iso
    else:
        passed = all(m.kind in (ISO, ALMOST_ISO) for m in per_degree.values())
    return ComparisonReport(per_degree, all_iso, passed, mode)


# ---------------------------------------------------------------------------
# Subgroup-category factorization
# ---------------------------------------------------------------------------

FactorizationReport = namedtuple(
    "FactorizationReport", ["passed", "violations", "classes_checked"])


def sub_factorization_check(group: FinGroup, family: SubgroupFamily,
                            e: BiFunctorComplex) -> FactorizationReport:
    """Orbit-category morphisms with the same image in the subgroup category
    must induce the same maps on coefficient homology.

    This is the checkable shadow of the homotopy-functor hypothesis: a
    black-box complex cannot be asked whether it sends groupoid equivalences
    to homotopy equivalences, but equal conjugation classes forcing equal
    homology maps is necessary for it, and is decidable here.
    """
    data = sub_category_and_projection(group, family)
    if data.orbit != e.coeff_base:
        raise ValueError("coefficient leg does not match Or(G, family)")
    buckets = {}
    for f in data.orbit.morphisms:
        buckets.setdefault(data.projection.on_morphism(f), []).append(f)
    violations = []
    classes = 0
    for bucket in buckets.values():
        if len(bucket) < 2:
            continue
        classes += 1
        ref = bucket[0]
        for i in e.index_base.objects:
            base_maps = {q: induced_map_on_homology(e.coeff_action[(i, ref)], q)
                         for q in range(e.lo, e.hi + 1)}
            for other in bucket[1:]:
                for q in range(e.lo, e.hi + 1):
                    m2 = induced_map_on_homology(e.coeff_action[(i, other)], q)
                    if base_maps[q] != m2:
                        violations.append((i, ref, other, q))
    return FactorizationReport(not violations, tuple(violations), classes)


# ---------------------------------------------------------------------------
# Graded interchange criterion
# ---------------------------------------------------------------------------

TAIL_BOUNDED = "bounded-by"
TAIL_UNBOUNDED = "strictly-increasing-unbounded"


def _check_prefix(name, prefix):
    prefix = tuple(int(v) for v in prefix)
    if not prefix:
        raise ValueError(f"{name} prefix must be nonempty")
    if prefix[0] < 0 or any(x > y for x, y in zip(prefix, prefix[1:])):
        raise ValueError(f"{name} prefix must be monotone nondecreasing and >= 0")
    return prefix


def _check_tail(name, tail, prefix):
    if tail == TAIL_UNBOUNDED or tail == (TAIL_UNBOUNDED,):
        return (TAIL_UNBOUNDED, None)
    if (isinstance(tail, tuple) and len(tail) == 2 and tail[0] == TAIL_BOUNDED):
        bound = int(tail[1])
        if bound < prefix[-1]:
            raise ValueError(
                f"{name} tail bound {bound} is below the last prefix value "
                f"{prefix[-1]}")
        return (TAIL_BOUNDED, bound)
    raise ValueError(f"unrecognized {name} tail tag {tail!r}")


class GradedSeqSpec:
    """Two monotone degree sequences, a graded coefficient profile, and a
    fixed shift degree.

    Each sequence is a finite prefix plus a tail tag: ("bounded-by", B) or
    "strictly-increasing-unbounded".  The profile maps degrees to groups and
    is zero elsewhere; profile_floor asserts it vanishes strictly below that
    degree (an inconsistent profile is rejected).
    """

    __slots__ = ("m_prefix", "m_tail", "n_prefix", "n_tail",
                 "profile", "profile_floor", "degree")

    def __init__(self, m_prefix, m_tail, n_prefix, n_tail,
                 profile, profile_floor, degree):
        self.m_prefix = _check_prefix("m", m_prefix)
        self.m_tail = _check_tail("m", m_tail, self.m_prefix)
        self.n_prefix = _check_prefix("n", n_prefix)
        self.n_tail = _check_tail("n", n_tail, self.n_prefix)
        self.profile = {int(q): g for q, g in dict(profile).items()}
        self.profile_floor = int(profile_floor)
        self.degree = int(degree)
        for q, g in self.profile.items():
            if not g.is_trivial() and q < self.profile_floor:
                raise ValueError(
                    f"inconsistent tail tags: profile nonzero at {q}, below "
                    f"the floor {self.profile_floor}")

    def profile_at(self, q) -> FpAbGroup:
        return self.profile.get(q, FpAbGroup.zero())

    def support(self):
        return {q for q, g in self.profile.items() if not g.is_trivial()}

    def sequence_value(self, which, i):
        """The i-th term, extending past the prefix by the tail rule:
        bounded tails sit at their bound, unbounded tails climb by one."""
        prefix = self.m_prefix if which == "m" else self.n_prefix
        tag, bound = self.m_tail if which == "m" else self.n_tail
        if i < len(prefix):
            return prefix[i]
        if tag == TAIL_BOUNDED:
            return bound
        return prefix[-1] + (i - len(prefix) + 1)


InterchangeReport = namedtuple(
    "InterchangeReport",
    ["surjective_symbolic", "reason", "window", "injective", "window_iso",
     "source", "target"])


def _symbolic_surjectivity(spec: GradedSeqSpec):
    """Evaluate the tail quantifier: does some index cutoff make every
    shifted profile group vanish?  True/False when the tags decide it,
    None when unknown tail values could go either way."""
    support = spec.support()
    p = spec.degree
    m_tag, m_bound = spec.m_tail
    n_tag, n_bound = spec.n_tail
    if m_tag == TAIL_UNBOUNDED:
        if n_tag == TAIL_BOUNDED:
            return True, ("upper sequence diverges while the lower one is "
                          "bounded, so every shifted degree eventually drops "
                          "below the profile floor")
        return None, ("both sequences unbounded: tail values of the lower "
                      "sequence are unspecified, the quantifier is undecided")
    # bounded monotone upper sequence: eventually constant, value unknown
    # inside [last prefix, bound]
    verdicts = set()
    vm, bm = spec.m_prefix[-1], m_bound
    for m_inf in range(vm, bm + 1):
        certain = {nj - m_inf + p for nj in spec.n_prefix}
        if n_tag == TAIL_BOUNDED:
            vn, bn = spec.n_prefix[-1], n_bound
            if vn == bn:
                certain.add(vn - m_inf + p)
            possible = {v - m_inf + p for v in range(vn, bn + 1)}
            if certain & support:
                verdicts.add(False)
            elif not (possible & support):
                verdicts.add(True)
            else:
                verdicts.add(None)
        else:
            if certain & support:
                verdicts.add(False)
            elif any(s >= spec.n_prefix[-1] - m_inf + p for s in support):
                verdicts.add(None)
            else:
                verdicts.add(True)
    if verdicts == {True}:
        return True, "every admissible tail keeps the shifted profile at zero"
    if verdicts == {False}:
        return False, ("a recurring index pair hits a nonzero profile degree "
                       "for every admissible tail")
    return None, "the verdict depends on tail values the tags do not pin down"


def interchange_criterion(spec: GradedSeqSpec, window=(6, 6)) -> InterchangeReport:
    """Symbolic tail verdict plus an exact finite-window materialization.

    The window map reorders a finite sum of products into a product of sums;
    at any finite size the two agree up to permutation, so the map is an
    isomorphism and in particular injective.  The symbolic verdict concerns
    the infinite tails; when it says "not surjective" the finite window
    still reports an isomorphism, which is exactly the double-limit point.
    """
    top_i, top_j = window
    if top_i < 1 or top_j < 1:
        raise ValueError("window must contain at least one index pair")
    symbolic, reason = _symbolic_surjectivity(spec)
    slot = {}
    for i in range(top_i):
        for j in range(top_j):
            q = (spec.sequence_value("n", j) - spec.sequence_value("m", i)
                 + spec.degree)
            slot[(i, j)] = spec.profile_at(q)
    src_order = [(i, j) for i in range(top_i) for j in range(top_j)]
    tgt_order = [(i, j) for j in range(top_j) for i in range(top_i)]
    ds_src = DirectSum([slot[k] for k in src_order])
    ds_tgt = DirectSum([slot[k] for k in tgt_order])
    blocks = {}
    for jdx, key in enumerate(src_order):
        blocks[(tgt_order.index(key), jdx)] = AbHom.identity(slot[key])
    f = block_hom(ds_src, ds_tgt, blocks)
    ker, coker, _ = hom_kernel_cokernel(f)
    return InterchangeReport(symbolic, reason, window,
                             ker.is_trivial(),
                             ker.is_trivial() and coker.is_trivial(),
                             ds_src.group, ds_tgt.group)


# ---------------------------------------------------------------------------
# Torsion double-limit probe
# ---------------------------------------------------------------------------

TorProbeReport = namedtuple(
    "TorProbeReport",
    ["prime", "m_top", "n_top", "window_iso", "delta_order",
     "top_order_bound", "membership", "membership_boundary"])

_PROBE_BOUND = 16


def tor_interchange_probe(prime: int, m_top: int, n_top: int) -> TorProbeReport:
    """Finite shadow of the sum/product interchange failure for p-torsion.

    Materializes the (m, n)-graded family Z/p^min(m,n) for 2 <= m <= M and
    2 <= n <= N in both groupings and certifies the reorder map is an
    isomorphism at this finite size.  Then computes the diagonal witness:
    the element of the product of Z/p^n with a generator in every slot has
    order p^N, while anything assembled from the m <= M block has order at
    most p^min(M,N) in the top slot; membership of the witness in that
    block's image holds exactly when M >= N.
    """
    if prime < 2 or any(prime % k == 0 for k in range(2, prime)):
        raise ValueError(f"{prime} is not prime")
    if not (2 <= m_top <= _PROBE_BOUND and 2 <= n_top <= _PROBE_BOUND):
        raise ValueError(
            f"bounds exceeded: need 2 <= M, N <= {_PROBE_BOUND}")
    ms = range(2, m_top + 1)
    ns = range(2, n_top + 1)
    cyc = {(m, n): FpAbGroup.cyclic(prime ** min(m, n)) for m in ms for n in ns}
    src_order = [(m, n) for m in ms for n in ns]
    tgt_order = [(m, n) for n in ns for m in ms]
    ds_src = DirectSum([cyc[k] for k in src_order])
    ds_tgt = DirectSum([cyc[k] for k in tgt_order])
    blocks = {(tgt_order.index(k), jdx): AbHom.identity(cyc[k])
              for jdx, k in enumerate(src_order)}
    window_iso = is_isomorphism(block_hom(ds_src, ds_tgt, blocks))

    diagonal_parts = [FpAbGroup.cyclic(prime ** n) for n in ns]
    ds_diag = DirectSum(diagonal_parts)
    delta = ds_diag.assemble([[1]] * len(diagonal_parts))
    delta_order = ds_diag.group.order_of(delta)

    # the m <= M block maps into the diagonal product by the canonical
    # inclusions Z/p^min(m,n) -> Z/p^n (multiplication by p^(n - min))
    inc_blocks = {}
    for jdx, (m, n) in enumerate(src_order):
        i = n - 2
        factor = prime ** (n - min(m, n))
        inc_blocks[(i, jdx)] = AbHom(
            cyc[(m, n)], diagonal_parts[i],
            IntMatrix.from_columns([[factor]], nrows=1))
    phi = block_hom(ds_src, ds_diag, inc_blocks)
    preimage, _residue = solve_image_membership(phi, delta)
    membership = preimage is not None
    return TorProbeReport(prime, m_top, n_top, window_iso, delta_order,
                          prime ** min(m_top, n_top), membership,
                          membership == (m_top >= n_top))


# ---------------------------------------------------------------------------
# Borel vs quotient
# ---------------------------------------------------------------------------

BorelCheckReport = namedtuple(
    "BorelCheckReport", ["per_degree", "passed", "valid_through"])


def borel_vs_quotient_check(group: FinGroup, x: GCWComplex, truncation: int,
                            annihilators=None) -> BorelCheckReport:
    """Kernel and cokernel of homotopy-quotient onto strict-quotient
    homology, with per-degree annihilation verdicts.

    Default annihilator in degree p is |G|^p (1 in degree 0): torsion in the
    discrepancy comes from classifying-space homology of the isotropy
    groups, whose exponents divide powers of the group order.
    """
    valid = borel_valid_through(x, truncation)
    if annihilators:
        worst = max(annihilators)
        if worst > valid:
            raise ValueError(
                f"truncation too small: degree {worst} requested but only "
                f"degrees <= {valid} are reliable")
        degrees = sorted(annihilators)
    else:
        degrees = list(range(valid + 1))
    bq = borel_and_quotient(x, truncation)
    order = len(group.elements)
    per_degree = {}
    passed = True
    for p in degrees:
        ann = annihilators[p] if annihilators else (order ** p if p else 1)
        ker, coker, _ = hom_kernel_cokernel(
            induced_map_on_homology(bq.projection, p))
        ok = (ker.rank == 0 and coker.rank == 0
              and ann % ker.exponent() == 0 and ann % coker.exponent() == 0)
        passed = passed and ok
        per_degree[p] = (ker, coker, ann, ok)
    return BorelCheckReport(per_degree, passed, valid)


# ---------------------------------------------------------------------------
# Instance builders: the desk examples and the engineered defects
# ---------------------------------------------------------------------------


def transport_pi0_module(group: FinGroup, family: SubgroupFamily) -> CatModule:
    """Covariant module on the orbit category: free on the components of the
    transport groupoid of each coset space, with translation-induced maps.

    Coset spaces of a group are transitive, so every value is one copy of Z;
    the construction still walks the groupoids rather than hard-coding that.
    """
    cat = orbit_category(group, family)
    comp_index = {}
    values = {}
    for obj in cat.objects:
        elements, action = coset_g_set(group, frozenset(obj))
        gpd = transport_groupoid(group, elements, action)
        parts = pi0(gpd)
        index = {}
        for k, part in enumerate(parts):
            for coset in part:
                index[coset] = k
        comp_index[obj] = (len(parts), index, elements)
        values[obj] = FpAbGroup.free(len(parts))
    actions = {}
    for f in cat.morphisms:
        h_lab, k_lab, coset = f
        r = min(coset)
        nh, ih, cosets_h = comp_index[h_lab]
        nk, ik, _ = comp_index[k_lab]
        cols = [[0] * nk for _ in range(nh)]
        seen = [None] * nh
        for c in cosets_h:
            image = tuple(sorted(group.mult(group.mult(min(c), r), k)
                                 for k in frozenset(k_lab)))
            src, tgt = ih[c], ik[image]
            if seen[src] is None:
                seen[src] = tgt
                cols[src][tgt] = 1
            elif seen[src] != tgt:
                raise AssertionError("translation map not constant on a "
                                     "component; groupoid data inconsistent")
        actions[f] = AbHom(values[h_lab], values[k_lab],
                           IntMatrix.from_columns(cols, nrows=nk))
    return CatModule(cat, COVARIANT, values, actions)


def _desk_instance(group: FinGroup, space: GCWComplex,
                   window: int = 3) -> TheoremInstance:
    family = SubgroupFamily.all(group)
    model = classifying_model("RF", window)
    free_complex = cellular_chain_complex(model)
    index_cat = model.base
    coeff = BiFunctorComplex.constant_in_index(
        index_cat,
        cat_complex_concentrated(transport_pi0_module(group, family), 0))
    return TheoremInstance(index_cat, free_complex, group, family, space,
                           coeff, top_degree=model.dimension,
                           through_degree=model.dimension, vanishing_floor=0)


def instance_z2_reflection(window: int = 3) -> TheoremInstance:
    """Order-2 group acting on the circle by reflection, grid-model window."""
    x = reflection_circle()
    return _desk_instance(x.group, x, window)


def instance_s3_hexagon(window: int = 3) -> TheoremInstance:
    """Hexagon symmetries (a copy of the symmetric group on three letters)
    acting on the hexagon, all subgroups, grid-model window."""
    x = hexagon_s3()
    return _desk_instance(x.group, x, window)


def with_padded_degree(inst: TheoremInstance) -> TheoremInstance:
    """Engineered defect: a free cell one degree above the advertised top.

    The support check must fail with the offending degree as witness."""
    base = inst.free_complex
    extra_deg = inst.top_degree + 1
    modules = {p: base.module(p) for p in base.degrees()}
    diffs = {p: base.diff(p) for p in base.degrees() if p > base.lo}
    pad, _ = free_module(inst.index_cat, [inst.index_cat.objects[0]],
                         CONTRAVARIANT)
    modules[extra_deg] = pad
    diffs[extra_deg] = ModuleMap.zero(pad, modules.get(
        extra_deg - 1, base.module(extra_deg - 1)))
    padded = CatChainComplex(inst.index_cat, CONTRAVARIANT, base.lo,
                             extra_deg, modules, diffs)
    return TheoremInstance(inst.index_cat, padded, inst.group, inst.family,
                           inst.space, inst.coefficients, inst.top_degree,
                           inst.through_degree, inst.vanishing_floor,
                           inst.mode)


def with_inflated_floor(inst: TheoremInstance) -> TheoremInstance:
    """Engineered defect: claim coefficient homology vanishes one degree
    higher than it does.  The vanishing check must fail with a witness."""
    return TheoremInstance(inst.index_cat, inst.free_complex, inst.group,
                           inst.family, inst.space, inst.coefficients,
                           inst.top_degree, inst.through_degree,
                           inst.vanishing_floor + 1, inst.mode)


def twisted_coefficient_system(index_cat: FinCategory):
    """Engineered defect: a sign twist that no subgroup-category functor
    allows.

    Over the orbit category of the order-2 group with only the trivial
    subgroup, the two self-maps of the free orbit project to the same
    subgroup-category morphism, but this system sends one to +1 and the
    other to -1.  Returns (group, family, bifunctor)."""
    group = FinGroup.cyclic(2)
    family = SubgroupFamily.trivial(group)
    cat = orbit_category(group, family)
    z = FpAbGroup.free(1)
    complexes = {(i, j): complex_concentrated(z, 0) for i in index_cat.objects
                 for j in cat.objects}
    index_action = {}
    for phi in index_cat.morphisms:
        a, b = index_cat.dom[phi], index_cat.cod[phi]
        for j in cat.objects:
            index_action[(phi, j)] = ChainMap(
                complexes[(b, j)], complexes[(a, j)],
                {0: AbHom.identity(z)}, check=False)
    coeff_action = {}
    for i in index_cat.objects:
        for psi in cat.morphisms:
            sign = 1 if cat.is_identity(psi) else -1
            comp = AbHom.identity(z) if sign == 1 else AbHom.identity(z).negate()
            coeff_action[(i, psi)] = ChainMap(
                complexes[(i, cat.dom[psi])], complexes[(i, cat.cod[psi])],
                {0: comp}, check=False)
    e = BiFunctorComplex(index_cat, cat, complexes, index_action, coeff_action)
    return group, family, e
