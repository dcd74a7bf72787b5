"""Release gate: the numbered acceptance criteria, one scoreboard line each.

Every criterion below re-runs its check at the advertised scale with a fixed
seed and a wall-clock budget where one is stated.  The conftest hook prints
one PASS/FAIL line per criterion after the run, so a red criterion is visible
without digging through tracebacks.  All arithmetic is exact; there are no
tolerances to tune.
"""

import functools
import math
import random
import time

from orbifunctor.exact_abelian import (
    FpAbGroup,
    IntMatrix,
    hom_group,
    smith_normal_form,
    tensor_group,
)
from orbifunctor.fincat import (
    FinGroup,
    SubgroupFamily,
    family_closure,
    group_analysis,
    one_object_category,
    orbit_category,
    standard_category,
    sub_category_and_projection,
)
from orbifunctor.catmod import (
    constant_module,
    finite_product_interchange,
    free_module,
    hom_into_module,
    hom_over_cat,
    product_module,
    tensor_over_cat,
)
from orbifunctor.chainplex import homology
from orbifunctor.cellspaces import (
    GCWComplex,
    bredon_homology,
    classifying_model,
    contractibility_check,
    fixed_point_chains,
    free_orbit_points,
    point_space,
    reflection_circle,
)
from orbifunctor.verify import (
    check_hypotheses,
    instance_s3_hexagon,
    instance_z2_reflection,
    borel_vs_quotient_check,
    interchange_criterion,
    sub_factorization_check,
    tor_interchange_probe,
    twisted_coefficient_system,
    verify_comparison,
    with_inflated_floor,
    with_padded_degree,
    GradedSeqSpec,
    ISO,
)

RESULTS = []


def criterion(num, name):
    """Record a scoreboard line whether the body passes or raises."""
    def deco(fn):
        @functools.wraps(fn)
        def wrapper():
            try:
                detail = fn() or ""
            except BaseException as err:
                RESULTS.append((num, name, False, str(err).splitlines()[0][:140]))
                raise
            RESULTS.append((num, name, True, detail))
        return wrapper
    return deco


def det_bareiss(m):
    """Independent exact determinant (fraction-free elimination), so the
    unimodularity check does not lean on the code under test."""
    n = m.nrows
    a = [list(r) for r in m.rows]
    sign, prev = 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k]:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


@criterion(1, "smith decomposition on 1000 random matrices")
def test_criterion_01_smith_suite():
    rng = random.Random(8231)
    t0 = time.perf_counter()
    for _ in range(1000):
        m, n = rng.randint(1, 8), rng.randint(1, 8)
        a = IntMatrix(m, n, [[rng.randint(-20, 20) for _ in range(n)]
                             for _ in range(m)])
        dec = smith_normal_form(a)
        assert dec.u * a * dec.v == dec.s
        assert abs(det_bareiss(dec.u)) == 1
        assert abs(det_bareiss(dec.v)) == 1
        ds = dec.divisors
        assert all(d > 0 for d in ds)
        assert all(ds[i + 1] % ds[i] == 0 for i in range(len(ds) - 1))
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0, f"budget 5s exceeded: {elapsed:.2f}s"
    return f"{elapsed:.2f}s"


@criterion(2, "cyclic hom and tensor both collapse to the gcd")
def test_criterion_02_cyclic_identities():
    for a in range(2, 13):
        for b in range(2, 13):
            expected = FpAbGroup.cyclic(math.gcd(a, b))
            assert hom_group(FpAbGroup.cyclic(a), FpAbGroup.cyclic(b)) == expected
            assert tensor_group(FpAbGroup.cyclic(a), FpAbGroup.cyclic(b)) == expected
    return "121 pairs, exhaustive"


def _small_category_pool():
    c2, c3, c4 = FinGroup.cyclic(2), FinGroup.cyclic(3), FinGroup.cyclic(4)
    s3 = FinGroup.symmetric(3)
    # trivial subgroup plus the three conjugate reflections: exactly four
    # objects, and the quotiented morphisms are still nontrivial
    reflections = family_closure(
        s3, [h for h in group_analysis(s3).subgroups if len(h) == 2])
    return [standard_category("chain", 0),
            standard_category("chain", 3),
            standard_category("grid", 2),
            orbit_category(c2, SubgroupFamily.all(c2)),
            orbit_category(c3, SubgroupFamily.all(c3)),
            orbit_category(c4, SubgroupFamily.all(c4)),
            sub_category_and_projection(s3, reflections).sub,
            one_object_category(c3)]


def _random_group(rng):
    torsion, t = [], 1
    for _ in range(rng.randint(0, 2)):
        t *= rng.randint(2, 6)
        torsion.append(t)
    return FpAbGroup.from_invariants(rng.randint(0, 2), torsion)


def _random_module(rng, cat, variance):
    kind = rng.randint(0, 3)
    if kind == 0:
        return constant_module(cat, _random_group(rng), variance)
    if kind in (1, 2):
        gens = [rng.choice(cat.objects) for _ in range(rng.randint(1, 2))]
        return free_module(cat, gens, variance)
    return product_module([
        constant_module(cat, _random_group(rng), variance),
        free_module(cat, [rng.choice(cat.objects)], variance)]).module


@criterion(3, "representable evaluation and tensor-hom currying, 200 draws")
def test_criterion_03_representables_and_adjunction():
    cats = _small_category_pool()
    assert all(len(cat.objects) <= 4 for cat in cats)
    rng = random.Random(3117)
    t0 = time.perf_counter()
    for _ in range(200):
        cat = rng.choice(cats)
        c = rng.choice(cat.objects)
        variance = rng.choice(("co", "contra"))
        m = _random_module(rng, cat, variance)
        rep = free_module(cat, [c], variance)
        # maps out of a one-generator free module are the value at the
        # generating object
        assert hom_over_cat(rep, m) == m.values[c]
        # tensoring against that free module also evaluates there
        if variance == "co":
            probe = free_module(cat, [c], "contra")
            assert tensor_over_cat(probe, m) == m.values[c]
            left = _random_module(rng, cat, "contra")
            right = m
        else:
            probe = free_module(cat, [c], "co")
            assert tensor_over_cat(m, probe) == m.values[c]
            left = m
            right = constant_module(cat, _random_group(rng), "co")
        if right.variance != "co" or any(
                g.ngens > 6 for g in right.values.values()):
            right = constant_module(cat, _random_group(rng), "co")
        a = _random_group(rng)
        curried = hom_over_cat(left, hom_into_module(right, a))
        assert hom_group(tensor_over_cat(left, right), a) == curried
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0, f"budget 30s exceeded: {elapsed:.2f}s"
    return f"200 instances, {elapsed:.2f}s"


@criterion(4, "product interchange over the subgroup category of S_3")
def test_criterion_04_product_interchange():
    s3 = FinGroup.symmetric(3)
    sub = sub_category_and_projection(s3, SubgroupFamily.all(s3)).sub
    rng = random.Random(441)
    pool = [constant_module(sub, FpAbGroup.free(1), "co"),
            constant_module(sub, FpAbGroup.cyclic(4), "co"),
            constant_module(sub, FpAbGroup.from_invariants(1, (6,)), "co")]
    pool += [free_module(sub, [c], "co") for c in sub.objects]
    for _ in range(100):
        gens = [rng.choice(sub.objects) for _ in range(rng.randint(1, 3))]
        free = free_module(sub, gens, "contra")
        family = [rng.choice(pool) for _ in range(rng.randint(1, 4))]
        _, verdict = finite_product_interchange(free, family)
        assert verdict is True
    return "100 free modules, families of up to 4"


@criterion(5, "desk comparison instances over Z/2 and S_3")
def test_criterion_05_desk_instances():
    t0 = time.perf_counter()
    inst = instance_z2_reflection()
    assert inst.free_complex.degrees() == range(0, 3)
    assert check_hypotheses(inst).passed
    rep = verify_comparison(inst)
    assert sorted(rep.per_degree) == [0, 1, 2]
    assert all(cls.kind == ISO for cls in rep.per_degree.values())
    first = time.perf_counter() - t0
    assert first < 60.0, f"budget 60s exceeded: {first:.2f}s"

    hexagon = instance_s3_hexagon()
    assert check_hypotheses(hexagon).passed
    hex_rep = verify_comparison(hexagon)
    assert hex_rep.all_iso and hex_rep.passed
    second = time.perf_counter() - t0 - first
    return f"Z/2 {first:.2f}s, S_3 {second:.2f}s"


@criterion(6, "three engineered defects each caught with a witness")
def test_criterion_06_defect_sensitivity():
    clean = instance_z2_reflection()
    assert check_hypotheses(clean).passed

    padded = check_hypotheses(with_padded_degree(clean))
    assert not padded.a.passed
    assert padded.a.witnesses == (3,)

    inflated = check_hypotheses(with_inflated_floor(clean))
    assert not inflated.b.passed
    assert inflated.b.witnesses
    assert all(q == 0 and not grp.is_trivial()
               for _, _, q, grp in inflated.b.witnesses)

    group, family, twisted = twisted_coefficient_system(clean.index_cat)
    factor = sub_factorization_check(group, family, twisted)
    assert not factor.passed
    assert factor.violations
    return "support, vanishing, factorization"


@criterion(7, "sequence race verdicts and finite-window injectivity")
def test_criterion_07_sequence_races():
    unbounded = "strictly-increasing-unbounded"
    surjective = GradedSeqSpec(
        (0, 1), unbounded, (0, 2), ("bounded-by", 5),
        {0: FpAbGroup.free(1), 3: FpAbGroup.cyclic(2)}, 0, 1)
    blocked = GradedSeqSpec(
        (2, 2), ("bounded-by", 2), (0, 1, 3), unbounded,
        {2: FpAbGroup.cyclic(4)}, 0, 1)
    undecided = GradedSeqSpec(
        (0,), unbounded, (0,), unbounded,
        {5: FpAbGroup.cyclic(3)}, 2, 0)
    assert interchange_criterion(surjective).surjective_symbolic is True
    assert interchange_criterion(blocked).surjective_symbolic is False
    assert interchange_criterion(undecided).surjective_symbolic is None
    for spec in (surjective, blocked, undecided):
        for i in range(1, 7):
            for j in range(1, 7):
                assert interchange_criterion(spec, (i, j)).injective
    return "3 verdicts, 108 windows"


@criterion(8, "diagonal torsion probe orders and block membership")
def test_criterion_08_tor_probe():
    for n in range(2, 9):
        rep = tor_interchange_probe(2, 8, n)
        assert rep.window_iso
        assert rep.delta_order == 2 ** n
    for m in range(2, 9):
        for n in range(2, 9):
            rep = tor_interchange_probe(2, m, n)
            assert rep.membership == (m >= n)
    return "orders 2^N for N <= 8, membership iff M >= N"


@criterion(9, "homotopy-quotient projection kernels on point and free orbits")
def test_criterion_09_borel_vs_quotient():
    g = FinGroup.cyclic(2)
    rep = borel_vs_quotient_check(
        g, point_space(g), 6, annihilators={0: 1, 1: 2, 2: 1, 3: 2, 4: 1})
    assert rep.passed
    for p in range(5):
        ker, coker, ann, ok = rep.per_degree[p]
        assert coker.is_trivial() and ok
        if p % 2:
            assert ker == FpAbGroup.cyclic(2) and ann == 2
        else:
            assert ker.is_trivial()

    free = borel_vs_quotient_check(g, free_orbit_points(g), 6)
    assert free.passed
    assert all(ker.is_trivial() and coker.is_trivial()
               for ker, coker, _, _ in free.per_degree.values())
    return "Z/2 kernels in odd degrees, free action clean"


@criterion(10, "classifying models contractible in their valid windows")
def test_criterion_10_classifying_models():
    t0 = time.perf_counter()
    n_model = classifying_model("N", 6)
    assert contractibility_check(n_model, n_model.truncation_valid).passed
    rf = classifying_model("RF", 4)
    assert rf.dimension == 2
    assert contractibility_check(rf, rf.truncation_valid).passed
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0, f"budget 10s exceeded: {elapsed:.2f}s"
    return f"{elapsed:.2f}s"


@criterion(11, "coefficient homology oracles on point, circle, trivial group")
def test_criterion_11_bredon_oracles():
    # a point only sees the value at the one-point orbit
    g = FinGroup.cyclic(2)
    or2 = orbit_category(g, SubgroupFamily.all(g))
    m = free_module(or2, [(0,)], "co")
    assert m.values[(0,)] == FpAbGroup.free(2)
    assert bredon_homology(point_space(g), m, 0) == m.values[(0, 1)]
    fives = constant_module(or2, FpAbGroup.cyclic(5), "co")
    assert bredon_homology(point_space(g), fives, 0) == FpAbGroup.cyclic(5)

    # over the trivial group the theory collapses to ordinary cellular
    # homology of the underlying space
    triv = FinGroup.trivial()
    lab = (triv.identity,)
    circle = GCWComplex(triv, {0: (lab,), 1: (lab,)})
    fam = SubgroupFamily.all(triv)
    coeffs = constant_module(orbit_category(triv, fam), FpAbGroup.free(1), "co")
    ordinary = fixed_point_chains(circle, fam).evaluate_at(lab)
    for p in (0, 1):
        assert bredon_homology(circle, coeffs, p) == homology(ordinary, p)
        assert bredon_homology(circle, coeffs, p) == FpAbGroup.free(1)

    # reflection circle with constant Z sees the quotient interval
    refl = reflection_circle()
    or_full = orbit_category(g, SubgroupFamily.all(g))
    const = constant_module(or_full, FpAbGroup.free(1), "co")
    assert bredon_homology(refl, const, 0) == FpAbGroup.free(1)
    assert bredon_homology(refl, const, 1).is_trivial()
    return "point, trivial-group circle, reflection circle"
