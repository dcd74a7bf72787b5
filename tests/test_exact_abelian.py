"""Tests for the exact integer linear algebra layer.

Oracle values in this file were computed by hand (small Smith forms, structure
theory of cyclic groups) before the implementation existed; they are frozen
here on purpose.
"""

import doctest
from math import gcd, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import orbifunctor.exact_abelian as ea
from orbifunctor.exact_abelian import (
    AbHom,
    DirectSum,
    FpAbGroup,
    HomBasis,
    IntMatrix,
    LatticeBasis,
    TensorBasis,
    cokernel_presentation,
    format_group,
    hom_cokernel,
    hom_from_presentation,
    hom_group,
    hom_image,
    hom_kernel,
    hom_kernel_cokernel,
    is_isomorphism,
    kernel_basis,
    smith_normal_form,
    solve,
    solve_image_membership,
    solve_mod,
    tensor_group,
)
from orbifunctor.verify import ALMOST_ISO, ISO, NEITHER, classify_map
from samplers import ab_homs, ab_homs_with_basis, fp_groups, int_matrices, square_matrices


def column(*entries):
    """A one-column matrix."""
    return IntMatrix.from_columns([list(entries)], nrows=len(entries))


def test_module_doctests():
    assert doctest.testmod(ea).failed == 0


# -- matrices ---------------------------------------------------------------


def test_matrix_basics():
    a = IntMatrix.from_rows([[1, 2], [3, 4]])
    assert a[1, 0] == 3
    assert a.column(1) == [2, 4]
    assert (a * IntMatrix.identity(2)) == a
    assert a.transpose().rows == ((1, 3), (2, 4))
    assert a.apply([1, 1]) == [3, 7]
    assert a.det() == -2
    assert IntMatrix.identity(3).det() == 1
    assert IntMatrix.from_rows([[2, 4], [1, 2]]).det() == 0


def test_empty_matrices():
    z = IntMatrix.zeros(0, 3)
    assert z.nrows == 0 and z.ncols == 3
    assert (z * IntMatrix.identity(3)).ncols == 3
    assert IntMatrix.zeros(2, 0).hstack(IntMatrix.identity(2)).ncols == 2
    assert IntMatrix(0, 0, []).det() == 1


def test_matrix_shape_errors():
    with pytest.raises(ValueError):
        IntMatrix(2, 2, [[1, 2]])
    with pytest.raises(ValueError):
        IntMatrix.from_rows([[1], [2]]) * IntMatrix.from_rows([[1], [2]])


# -- Smith normal form ------------------------------------------------------


def test_snf_oracle_2x2():
    a = IntMatrix.from_rows([[2, 4], [6, 8]])
    dec = smith_normal_form(a)
    assert dec.divisors == (2, 4)
    assert dec.u * a * dec.v == dec.s
    assert abs(dec.u.det()) == 1 and abs(dec.v.det()) == 1


def test_snf_divisors_include_ones():
    a = IntMatrix.from_rows([[1, 0], [0, 6]])
    assert smith_normal_form(a).divisors == (1, 6)


def test_snf_zero_and_empty():
    assert smith_normal_form(IntMatrix.zeros(3, 2)).divisors == ()
    assert smith_normal_form(IntMatrix.zeros(0, 4)).divisors == ()
    assert smith_normal_form(IntMatrix.zeros(4, 0)).divisors == ()


def test_snf_coprime_merge():
    # diag(2, 3) has invariant factors (1, 6), not (2, 3)
    a = IntMatrix.diagonal([2, 3])
    assert smith_normal_form(a).divisors == (1, 6)


@settings(max_examples=150, deadline=None)
@given(int_matrices())
def test_snf_properties(a):
    dec = smith_normal_form(a)
    assert dec.u * a * dec.v == dec.s
    assert abs(dec.u.det()) == 1
    assert abs(dec.v.det()) == 1
    divisors = dec.divisors
    assert all(d > 0 for d in divisors)
    for d1, d2 in zip(divisors, divisors[1:]):
        assert d2 % d1 == 0
    # S is diagonal with exactly the divisors then zeros
    for i in range(a.nrows):
        for j in range(a.ncols):
            expect = divisors[i] if i == j and i < len(divisors) else 0
            assert dec.s[i, j] == expect


@settings(max_examples=100, deadline=None)
@given(square_matrices())
def test_snf_determinant_product(a):
    d = a.det()
    divisors = smith_normal_form(a).divisors
    if d == 0:
        assert len(divisors) < a.nrows
    else:
        assert prod(divisors) == abs(d)


# -- kernels and solving ----------------------------------------------------


def test_kernel_oracle():
    a = IntMatrix.from_rows([[2, 4], [1, 2]])
    k = kernel_basis(a)
    assert k.ncols == 1
    col = k.column(0)
    assert sorted(abs(x) for x in col) == [1, 2]
    assert (a * k).is_zero()


def test_kernel_full_and_empty():
    assert kernel_basis(IntMatrix.zeros(0, 3)).ncols == 3
    assert kernel_basis(IntMatrix.identity(3)).ncols == 0


@settings(max_examples=150, deadline=None)
@given(int_matrices())
def test_kernel_properties(a):
    k = kernel_basis(a)
    assert (a * k).is_zero()
    rank = len(smith_normal_form(a).divisors)
    assert rank + k.ncols == a.ncols
    if k.ncols:
        # columns independent: their own Smith form has full rank, no torsion
        kd = smith_normal_form(k).divisors
        assert len(kd) == k.ncols


def test_solve_oracle():
    a = IntMatrix.diagonal([2, 3])
    assert solve(a, [4, 9]) == [2, 3]
    assert solve(a, [1, 0]) is None
    assert solve(IntMatrix.from_rows([[2, 4], [1, 2]]), [0, 1]) is None


@settings(max_examples=150, deadline=None)
@given(int_matrices(), st.data())
def test_solve_recovers_members(a, data):
    x = [data.draw(st.integers(-9, 9)) for _ in range(a.ncols)]
    b = a.apply(x)
    got = solve(a, b)
    assert got is not None
    assert a.apply(got) == b


def test_solve_mod_oracle():
    a = IntMatrix.from_rows([[2]])
    assert solve_mod(a, [2], [4]) is not None
    x = solve_mod(a, [2], [4])
    assert (2 * x[0] - 2) % 4 == 0
    assert solve_mod(a, [1], [4]) is None
    # free coordinate: modulus 0 means exact
    assert solve_mod(a, [1], [0]) is None
    assert solve_mod(a, [6], [0]) == [3]


def test_lattice_basis():
    lat = LatticeBasis(IntMatrix.diagonal([2, 3]))
    assert lat.coordinates(column(4, 9)) == column(2, 3)
    assert lat.coordinates(column(1, 1)) is None
    # every column of a matrix at once; one outsider refuses the whole
    both = IntMatrix.from_columns([[4, 9], [-2, 0], [0, 0]])
    assert lat.coordinates(both) == IntMatrix.from_columns(
        [[2, 3], [-1, 0], [0, 0]])
    assert lat.coordinates(both.hstack(column(1, 1))) is None
    assert lat.coordinates(IntMatrix.zeros(2, 0)) == IntMatrix.zeros(2, 0)
    # dependent columns are refused on construction, before any solve
    with pytest.raises(ValueError, match="independent"):
        LatticeBasis(IntMatrix.from_columns([[1, 2], [2, 4]]))


# -- groups -----------------------------------------------------------------


def test_group_construction_and_display():
    assert format_group(FpAbGroup.zero()) == "0"
    assert format_group(FpAbGroup.free(1)) == "Z"
    assert format_group(FpAbGroup.from_invariants(2, [2, 4])) == "Z^2 ⊕ Z/2 ⊕ Z/4"
    assert FpAbGroup.cyclic(0) == FpAbGroup.free(1)
    assert FpAbGroup.cyclic(1) == FpAbGroup.zero()
    with pytest.raises(ValueError):
        FpAbGroup.from_invariants(0, [3, 4])
    with pytest.raises(ValueError):
        FpAbGroup.from_invariants(0, [1])


def test_invariant_factor_below_two_is_a_value_error():
    # checked before the divisor chain, whose test would divide by zero
    for torsion in ([0, 0], [0, 4], [1, 1], [-2, 4]):
        with pytest.raises(ValueError, match=">= 2"):
            FpAbGroup(0, torsion)


def test_group_scalars():
    g = FpAbGroup.from_invariants(1, [2, 6])
    assert g.ngens == 3
    assert g.moduli() == (0, 2, 6)
    assert g.order() is None
    assert g.exponent() == 6
    h = FpAbGroup.from_invariants(0, [2, 6])
    assert h.order() == 12
    assert (g.rank, g.exponent()) == (1, 6)
    assert (h.rank, h.exponent()) == (0, 6)


def test_reduce_matrix_returns_the_matrix_of_a_free_group():
    # a torsion-free group reduces nothing, so it hands back mat itself
    mat = IntMatrix.from_rows([[7, -3], [0, 12]])
    assert FpAbGroup.free(2).reduce_matrix(mat) is mat
    with pytest.raises(ValueError, match="row count"):
        FpAbGroup.free(3).reduce_matrix(mat)
    reduced = FpAbGroup.from_invariants(1, [4]).reduce_matrix(mat)
    assert reduced.rows == ((7, -3), (0, 0))


def test_element_orders():
    g = FpAbGroup.from_invariants(0, [4])
    assert g.order_of([2]) == 2
    assert g.order_of([1]) == 4
    assert g.order_of([0]) == 1
    assert FpAbGroup.free(1).order_of([1]) is None


def test_cokernel_oracles():
    assert cokernel_presentation(IntMatrix.diagonal([2, 3])) == FpAbGroup.cyclic(6)
    a = IntMatrix.from_rows([[2, 4], [6, 8]])
    assert cokernel_presentation(a) == FpAbGroup.from_invariants(0, [2, 4])
    assert cokernel_presentation(IntMatrix.zeros(2, 0)) == FpAbGroup.free(2)
    assert cokernel_presentation(IntMatrix.from_columns([[5]])) == FpAbGroup.cyclic(5)


def test_cokernel_witnesses_invert():
    a = IntMatrix.from_rows([[2, 4], [6, 8], [0, 5]])
    g = cokernel_presentation(a)
    assert g.to_can * g.reps == IntMatrix.identity(g.ngens)


@settings(max_examples=120, deadline=None)
@given(int_matrices(max_rows=5, max_cols=5))
def test_cokernel_witness_properties(a):
    g = cokernel_presentation(a)
    assert g.to_can * g.reps == IntMatrix.identity(g.ngens)
    # every relation column dies in canonical coordinates
    for j in range(a.ncols):
        assert not any(g.to_canonical(a.column(j)))
    # round trip: canonical -> representative -> canonical
    for j in range(g.ngens):
        e = [1 if i == j else 0 for i in range(g.ngens)]
        assert g.to_canonical(g.representative(e)) == e


@settings(max_examples=80, deadline=None)
@given(square_matrices(max_n=4, entries=st.integers(-6, 6)))
def test_cokernel_order_is_det(a):
    d = a.det()
    g = cokernel_presentation(a)
    if d == 0:
        assert g.rank > 0
    else:
        assert g.order() == abs(d)


# -- homomorphisms ----------------------------------------------------------


def test_hom_validation():
    src = FpAbGroup.cyclic(4)
    tgt = FpAbGroup.free(1)
    with pytest.raises(ValueError):
        AbHom(src, tgt, IntMatrix.from_rows([[1]]))
    # Z/4 -> Z/2 by 1 is fine
    AbHom(src, FpAbGroup.cyclic(2), IntMatrix.from_rows([[1]]))


def test_hom_compose_apply():
    g = FpAbGroup.cyclic(4)
    doubling = AbHom(g, g, IntMatrix.from_rows([[2]]))
    assert doubling.apply([3]) == [2]
    assert doubling.compose(doubling).matrix == IntMatrix.zeros(1, 1)
    assert AbHom.identity(g).compose(doubling) == doubling


def test_hom_from_presentation():
    g = cokernel_presentation(   # Z/6 on two generators
        IntMatrix.from_columns([[2, 0], [0, 3]]))
    assert g == FpAbGroup.cyclic(6)
    f = hom_from_presentation(g, g, IntMatrix.identity(2))
    assert f == AbHom.identity(g)


def test_kernel_cokernel_oracle_mult2_on_z4():
    g = FpAbGroup.cyclic(4)
    f = AbHom(g, g, IntMatrix.from_rows([[2]]))
    ker, coker = hom_kernel_cokernel(f)
    image, _, _ = hom_image(f)
    assert ker == FpAbGroup.cyclic(2)
    assert coker == FpAbGroup.cyclic(2)
    assert image == FpAbGroup.cyclic(2)


def test_kernel_inclusion_composes_to_zero():
    g = FpAbGroup.cyclic(4)
    f = AbHom(g, g, IntMatrix.from_rows([[2]]))
    ker, basis, inc = hom_kernel(f)
    assert f.compose(inc).is_zero()
    assert inc.apply([1]) == [2]     # the kernel of doubling on Z/4 is {0, 2}


def test_image_factorization_oracle():
    src = FpAbGroup.free(2)
    tgt = FpAbGroup.free(1)
    f = AbHom(src, tgt, IntMatrix.from_rows([[2, 4]]))
    image, mono, epi = hom_image(f)
    assert image == FpAbGroup.free(1)
    assert mono.compose(epi) == f
    km, _, _ = hom_kernel(mono)
    assert km.is_trivial()


def test_almost_isomorphism_oracle():
    src = DirectSum([FpAbGroup.free(1), FpAbGroup.cyclic(4)]).group
    assert src == FpAbGroup.from_invariants(1, [4])
    f = AbHom(src, FpAbGroup.free(1), IntMatrix.from_rows([[6, 0]]))
    verdict = classify_map(f)
    assert verdict.kind == ALMOST_ISO
    assert verdict.kernel.exponent() == 4
    assert verdict.cokernel.exponent() == 6
    g = AbHom(FpAbGroup.free(1), FpAbGroup.free(2),
              IntMatrix.from_rows([[1], [0]]))
    assert classify_map(g).kind == NEITHER


def test_is_isomorphism():
    g = FpAbGroup.free(2)
    f = AbHom(g, g, IntMatrix.from_rows([[1, 1], [0, 1]]))
    assert is_isomorphism(f)
    assert not is_isomorphism(AbHom(g, g, IntMatrix.diagonal([1, 2])))


@st.composite
def monomial_homs(draw):
    """A homomorphism with at most one entry per row: a unit-monomial
    isomorphism (generators permuted within each order, each sent to a unit
    multiple), or a near miss: a non-unit entry, a target whose orders
    differ, or two rows on one column.  Every entry is the least valid
    multiple for its two orders, times the drawn unit."""
    src = draw(fp_groups(max_rank=3, max_factors=3))
    n, miss = src.ngens, draw(st.sampled_from(
        ["none", "entry", "moduli", "column"]))
    tgt = src
    if miss == "moduli":
        rank, torsion, t = draw(st.integers(0, n)), [], 1
        for _ in range(n - rank):
            t *= draw(st.integers(2, 4))
            torsion.append(t)
        tgt = FpAbGroup.from_invariants(rank, torsion)
    sm, tm = src.moduli(), tgt.moduli()
    col_of = list(range(n))
    for m in set(sm):
        at = [j for j in range(n) if sm[j] == m]
        for i, j in zip(at, draw(st.permutations(at))):
            col_of[i] = j
    if miss == "column" and n >= 2:
        i, k = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2,
                             unique=True))
        col_of[i] = col_of[k]
    rows = []
    for i, j in enumerate(col_of):
        s, t = sm[j], tm[i]
        unit = draw(st.sampled_from(
            [u for u in range(1, max(t, 2)) if gcd(u, t) == 1]))
        unit *= draw(st.sampled_from([1, -1]))
        least = (1 if s == 0 else 0) if t == 0 else t // gcd(s, t)
        rows.append({j: least * unit} if least else {})
    if miss == "entry" and n:
        i = draw(st.integers(0, n - 1))
        factor = draw(st.sampled_from([0, 2, 3, 4]))
        rows[i] = {j: x * factor for j, x in rows[i].items() if x * factor}
    return AbHom(src, tgt, IntMatrix(n, n, nonzeros=rows))


@settings(max_examples=300, deadline=None)
@given(st.one_of(monomial_homs(), ab_homs(),
                 fp_groups().flatmap(lambda g: ab_homs(g, g))))
def test_is_isomorphism_agrees_with_kernel_and_cokernel(f):
    ker, coker = hom_kernel_cokernel(f)
    assert is_isomorphism(f) == (ker.is_trivial() and coker.is_trivial())


def test_unit_monomial_isomorphism_runs_no_reduction(monkeypatch):
    # Z^2 ⊕ Z/4 ⊕ Z/4 with both pairs swapped, entries -1, 1, 3, 1; and the
    # map between trivial groups
    g = FpAbGroup.from_invariants(2, [4, 4])
    swap = AbHom(g, g, IntMatrix.from_rows(
        [[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 3], [0, 0, 1, 0]]))
    calls = []
    real = ea.hom_kernel_cokernel
    monkeypatch.setattr(ea, "hom_kernel_cokernel",
                        lambda f: calls.append(f) or real(f))
    zero = FpAbGroup.zero()
    assert is_isomorphism(swap) and is_isomorphism(AbHom.identity(zero))
    assert calls == []
    # a unit between generators of different orders is no proof: Z/4 -> Z/2
    # by 1 is onto but not injective; nor are units on every row of a
    # matrix that is not square: the diagonal Z -> Z^2.  Both are decided by
    # the reduction
    assert not is_isomorphism(AbHom(FpAbGroup.cyclic(4), FpAbGroup.cyclic(2),
                                    IntMatrix.from_rows([[1]])))
    assert not is_isomorphism(AbHom(FpAbGroup.free(1), FpAbGroup.free(2),
                                    IntMatrix.from_rows([[1], [1]])))
    assert len(calls) == 2


def test_solve_image_membership_oracle():
    z = FpAbGroup.free(1)
    f = AbHom(z, z, IntMatrix.from_rows([[6]]))
    x, residue = solve_image_membership(f, [12])
    assert residue is None and f.apply(x) == [12]
    x, residue = solve_image_membership(f, [4])
    assert x is None and any(residue)


@settings(max_examples=100, deadline=None)
@given(ab_homs())
def test_exactness_orders(f):
    ker, coker = hom_kernel_cokernel(f)
    image, _, _ = hom_image(f)
    so = f.source.order()
    to = f.target.order()
    if so is not None:
        assert ker.order() * image.order() == so
    if to is not None:
        assert to % image.order() == 0
        assert coker.order() == to // image.order()


@settings(max_examples=100, deadline=None)
@given(ab_homs())
def test_kernel_image_maps(f):
    ker, basis, inc = hom_kernel(f)
    assert f.compose(inc).is_zero()
    image, mono, epi = hom_image(f)
    assert mono.compose(epi) == f
    km, _, _ = hom_kernel(mono)
    assert km.is_trivial()
    coker, proj = hom_cokernel(f)
    assert proj.compose(f).is_zero()


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_almost_iso_composite_bound(data):
    a = data.draw(fp_groups())
    b = data.draw(fp_groups())
    c = data.draw(fp_groups())
    f = data.draw(ab_homs(source=a, target=b))
    g = data.draw(ab_homs(source=b, target=c))
    # kernel and cokernel of rank 0: an isomorphism or almost-isomorphism
    almost = (ISO, ALMOST_ISO)
    fv, gv = classify_map(f), classify_map(g)
    if fv.kind in almost and gv.kind in almost:
        hv = classify_map(g.compose(f))
        assert hv.kind in almost
        assert (fv.kernel.exponent() * gv.kernel.exponent()) \
            % hv.kernel.exponent() == 0
        assert (fv.cokernel.exponent() * gv.cokernel.exponent()) \
            % hv.cokernel.exponent() == 0


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_membership_certificates(data):
    f = data.draw(ab_homs())
    y = [data.draw(st.integers(-6, 6)) for _ in range(f.target.ngens)]
    x, residue = solve_image_membership(f, y)
    if x is not None:
        assert residue is None
        assert f.apply(x) == f.target.reduce(y)
    else:
        assert any(residue)


# -- homology of a composable pair ------------------------------------------


def test_quotient_group():
    g = FpAbGroup.free(1)
    q, proj = ea.quotient_group(g, [[2]])
    assert q == FpAbGroup.cyclic(2)
    assert proj.apply([2]) == [0]
    assert proj.apply([3]) == [1]


def test_homology_data_oracles():
    z = FpAbGroup.free(1)
    double = AbHom(z, z, IntMatrix.from_rows([[2]]))
    ident = AbHom.identity(z)
    zero_out = AbHom.zero(z, z)
    # Z --2--> Z --> 0 : cokernel Z/2
    h = ea.HomologyData(double, None, space=z)
    assert h.group == FpAbGroup.cyclic(2)
    assert ea.express_in_kernel(h, column(2)) == column(0)
    assert ea.express_in_kernel(h, column(3)) == column(1)
    assert (h.inclusion.matrix * column(1))[0, 0] % 2 == 1
    # 0 --> Z --0--> Z : kernel Z
    h = ea.HomologyData(None, zero_out, space=z)
    assert h.group == z
    # Z --1--> Z --0--> Z : exact
    h = ea.HomologyData(ident, zero_out)
    assert h.group.is_trivial()
    # Z --2--> Z --2--> Z/4? use Z/4 target: ker(x->2x mod 4) = {0,2}, im(2) = {0,2}
    z4 = FpAbGroup.cyclic(4)
    into = AbHom(z, z4, IntMatrix.from_rows([[2]]))
    out = AbHom(z4, z4, IntMatrix.from_rows([[2]]))
    h = ea.HomologyData(into, out)
    assert h.group.is_trivial()


def test_homology_data_rejects_nonzero_composite():
    z = FpAbGroup.free(1)
    ident = AbHom.identity(z)
    with pytest.raises(ValueError):
        ea.HomologyData(ident, ident)


def test_express_in_kernel():
    z4 = FpAbGroup.cyclic(4)
    double = AbHom(z4, z4, IntMatrix.from_rows([[2]]))
    sub = hom_kernel(double)
    ker, _, inc = sub
    coords = ea.express_in_kernel(sub, column(2))
    assert inc.apply(coords.column(0)) == [2]
    with pytest.raises(ValueError):
        ea.express_in_kernel(sub, column(1))


# -- hom and tensor groups --------------------------------------------------


def test_hom_group_oracles():
    z = FpAbGroup.free(1)
    assert hom_group(FpAbGroup.cyclic(4), FpAbGroup.cyclic(6)) == FpAbGroup.cyclic(2)
    assert hom_group(FpAbGroup.cyclic(2), z) == FpAbGroup.zero()
    assert hom_group(z, FpAbGroup.cyclic(12)) == FpAbGroup.cyclic(12)
    assert hom_group(z, z) == z
    b = FpAbGroup.from_invariants(1, [2, 6])
    # Hom(Z/3, Z ⊕ Z/2 ⊕ Z/6) = 3-torsion of the target = Z/3
    assert hom_group(FpAbGroup.cyclic(3), b) == FpAbGroup.cyclic(3)


def test_hom_basis_generator():
    hb = HomBasis(FpAbGroup.cyclic(4), FpAbGroup.cyclic(6))
    assert hb.group == FpAbGroup.cyclic(2)
    gen = hb.to_hom([1])
    assert gen.matrix == IntMatrix.from_rows([[3]])
    assert hb.coords_of(gen) == [1]


@settings(max_examples=80, deadline=None)
@given(ab_homs_with_basis())
def test_hom_basis_round_trip(hb_f):
    hb, f = hb_f
    assert hb.to_hom(hb.coords_of(f)) == f


@settings(max_examples=50, deadline=None)
@given(st.data())
def test_hom_basis_postcompose_is_functorial(data):
    a = data.draw(fp_groups(max_rank=1, max_factors=1))
    b = data.draw(fp_groups(max_rank=1, max_factors=1))
    c = data.draw(fp_groups(max_rank=1, max_factors=1))
    psi = data.draw(ab_homs(source=b, target=c))
    hb_ab = HomBasis(a, b)
    hb_ac = HomBasis(a, c)
    post = hb_ab.postcompose(hb_ac, psi)
    for j in range(hb_ab.group.ngens):
        e = [1 if i == j else 0 for i in range(hb_ab.group.ngens)]
        assert hb_ac.to_hom(post.apply(e)) == psi.compose(hb_ab.to_hom(e))


def test_tensor_group_oracles():
    z = FpAbGroup.free(1)
    assert tensor_group(FpAbGroup.cyclic(4), FpAbGroup.cyclic(6)) == FpAbGroup.cyclic(2)
    assert tensor_group(FpAbGroup.cyclic(2), FpAbGroup.cyclic(3)) == FpAbGroup.zero()
    assert tensor_group(z, FpAbGroup.cyclic(5)) == FpAbGroup.cyclic(5)
    assert tensor_group(FpAbGroup.free(2), FpAbGroup.free(3)) == FpAbGroup.free(6)
    a = FpAbGroup.from_invariants(1, [2])
    # (Z ⊕ Z/2) ⊗ (Z ⊕ Z/2) = Z ⊕ Z/2 ⊕ Z/2 ⊕ Z/2
    assert tensor_group(a, a) == FpAbGroup.from_invariants(1, [2, 2, 2])


def test_tensor_pure_bilinear():
    tb = TensorBasis(FpAbGroup.cyclic(4), FpAbGroup.cyclic(6))
    two = tb.pure([1], [1])
    assert tb.group.order_of(two) == 2
    assert tb.pure([2], [1]) == tb.group.to_canonical(
        [2 * x for x in tb.group.representative(two)])


@settings(max_examples=50, deadline=None)
@given(st.data())
def test_tensor_induced_functorial(data):
    a = data.draw(fp_groups(max_rank=1, max_factors=1))
    b = data.draw(fp_groups(max_rank=1, max_factors=1))
    a2 = data.draw(fp_groups(max_rank=1, max_factors=1))
    b2 = data.draw(fp_groups(max_rank=1, max_factors=1))
    f = data.draw(ab_homs(source=a, target=a2))
    g = data.draw(ab_homs(source=b, target=b2))
    tb = TensorBasis(a, b)
    tb2 = TensorBasis(a2, b2)
    ind = tb.induced(tb2, f, g)
    for xa in range(a.ngens):
        for xb in range(b.ngens):
            x = [1 if i == xa else 0 for i in range(a.ngens)]
            y = [1 if i == xb else 0 for i in range(b.ngens)]
            lhs = ind.apply(tb.pure(x, y))
            rhs = tb2.pure(f.apply(x), g.apply(y))
            assert lhs == rhs


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 20), st.integers(2, 20))
def test_hom_tensor_cyclic_structure(a, b):
    g = gcd(a, b)
    expect = FpAbGroup.cyclic(g)
    assert hom_group(FpAbGroup.cyclic(a), FpAbGroup.cyclic(b)) == expect
    assert tensor_group(FpAbGroup.cyclic(a), FpAbGroup.cyclic(b)) == expect


# -- direct sums ------------------------------------------------------------


def test_direct_sum_oracle():
    ds = DirectSum([FpAbGroup.cyclic(2), FpAbGroup.cyclic(3)])
    assert ds.group == FpAbGroup.cyclic(6)
    prj0, prj1 = ds.project(0), ds.project(1)
    x = ds.group.to_canonical(ds.embed(0, [1]))
    assert prj0.apply(x) == [1] and prj1.apply(x) == [0]
    assert ds.assemble([[1], [2]]) == ds.group.to_canonical(
        [a + b for a, b in zip(ds.embed(0, [1]), ds.embed(1, [2]))])


@settings(max_examples=60, deadline=None)
@given(st.lists(fp_groups(max_rank=1, max_factors=1), min_size=0, max_size=3))
def test_direct_sum_properties(parts):
    ds = DirectSum(parts)
    assert ds.group.rank == sum(p.rank for p in parts)
    orders = [p.order() for p in parts]
    if all(o is not None for o in orders):
        assert ds.group.order() == prod(orders, start=1)
    for i, p in enumerate(parts):
        for e in range(p.ngens):
            unit = [int(k == e) for k in range(p.ngens)]
            x = ds.group.to_canonical(ds.embed(i, unit))
            for j, q in enumerate(parts):
                assert ds.project(j).apply(x) == \
                    (p.reduce(unit) if j == i else [0] * q.ngens)


# -- the sparse core against dense and unit-vector references ---------------
#
# The references below are the dense mat-vec loop and the unit-vector column
# builder that the sparse core replaced; they are kept here on purpose.


def dense_apply(m, vec):
    return [sum(a * x for a, x in zip(row, vec)) for row in m.rows]


def dense_product(a, b):
    return [[sum(a.rows[i][k] * b.rows[k][j] for k in range(a.ncols))
             for j in range(b.ncols)] for i in range(a.nrows)]


def unit_columns(n, image, nrows):
    """The matrix whose column j is image(e_j), e_j the j-th unit vector."""
    cols = [image([1 if i == j else 0 for i in range(n)]) for j in range(n)]
    return IntMatrix.from_columns(cols, nrows=nrows)


small = st.integers(-9, 9)
mostly_zero = st.one_of(st.just(0), st.just(0), small)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_sparse_apply_and_product_match_dense(data):
    a = data.draw(int_matrices(max_rows=5, max_cols=5, entries=mostly_zero))
    vec = data.draw(st.lists(small, min_size=a.ncols, max_size=a.ncols))
    assert a.apply(vec) == dense_apply(a, vec)
    b = data.draw(int_matrices(min_rows=a.ncols, max_rows=a.ncols,
                               max_cols=5, entries=mostly_zero))
    assert a * b == IntMatrix(a.nrows, b.ncols, dense_product(a, b))
    assert (a * b).rows == tuple(map(tuple, dense_product(a, b)))


@pytest.mark.parametrize("m, n", [(0, 3), (3, 0), (0, 0), (2, 3)])
def test_sparse_core_on_empty_and_zero_shapes(m, n):
    z = IntMatrix.zeros(m, n)
    assert z.apply([5] * n) == dense_apply(z, [5] * n) == [0] * m
    assert z * IntMatrix.identity(n) == z == IntMatrix.identity(m) * z
    assert (z * IntMatrix.zeros(n, 2)).rows == ((0, 0),) * m
    assert z.rows == ((0,) * n,) * m
    assert z == IntMatrix(m, n, [[0] * n for _ in range(m)])


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_selection_matches_the_transposed_construction(data):
    # the rows are filled directly; the construction they replace built the
    # matrix of unit rows and transposed it
    nrows = data.draw(st.integers(0, 6))
    positions = data.draw(st.lists(st.integers(0, nrows - 1), max_size=7)
                          if nrows else st.just([]))
    old = IntMatrix(len(positions), nrows,
                    nonzeros=[{i: 1} for i in positions]).transpose()
    new = IntMatrix.selection(nrows, positions)
    assert (new.nrows, new.ncols) == (nrows, len(positions))
    assert new == old and new.rows == old.rows
    assert IntMatrix.selection(nrows, iter(positions)) == old


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(0, 12) | st.just(0), max_size=8))
def test_relation_columns_match_the_transposed_construction(moduli):
    # the rows are written directly; the construction they replace built one
    # unit row per nonzero modulus and transposed it
    old = IntMatrix(len(moduli) - moduli.count(0), len(moduli),
                    nonzeros=[{k: t} for k, t in enumerate(moduli) if t]
                    ).transpose()
    new = ea._relation_columns(moduli)
    assert new == old and new.rows == old.rows
    assert ea._relation_columns(iter(moduli)) == old
    assert ea._relation_columns([]) == IntMatrix.zeros(0, 0)


def test_identity_witnesses_are_implicit():
    for g in (FpAbGroup.free(4), FpAbGroup.from_invariants(1, [2, 4]),
              cokernel_presentation(IntMatrix.zeros(3, 0)),
              cokernel_presentation(IntMatrix.diagonal([2, 4]))):
        one = IntMatrix.identity(g.ngens)
        assert g.to_can is one and g.reps is one
        assert g.pres_gens == g.ngens
    # apply of the shared identity returns the vector as it came
    assert IntMatrix.identity(3).apply((4, -1, 7)) == [4, -1, 7]
    with pytest.raises(ValueError, match="vector length"):
        FpAbGroup.free(2).representative([1, 2, 3])


def fresh(m):
    """A copy of m that is never the shared identity instance."""
    return IntMatrix(m.nrows, m.ncols, nonzeros=[dict(nz) for nz in m.nonzeros])


def explicit_copy(g):
    """The same group, its witnesses carried as fresh matrices, so that an
    identity witness goes through the products the shared one skips."""
    ex = FpAbGroup(g.rank, g.torsion, to_can=fresh(g.to_can), reps=fresh(g.reps))
    assert not ex.to_can.is_identity() and not ex.reps.is_identity()
    return ex


@settings(max_examples=100, deadline=None)
@given(int_matrices(max_rows=4, max_cols=4, entries=mostly_zero), st.data())
def test_implicit_witnesses_match_explicit(a, data):
    g = cokernel_presentation(a)
    ex = explicit_copy(g)
    assert g == ex and hash(g) == hash(ex) and ex.to_can == g.to_can
    pres = data.draw(st.lists(small, min_size=a.nrows, max_size=a.nrows))
    assert g.to_canonical(pres) == ex.to_canonical(pres)
    can = data.draw(st.lists(small, min_size=g.ngens, max_size=g.ngens))
    assert g.representative(can) == ex.representative(can)


@settings(max_examples=80, deadline=None)
@given(fp_groups(), fp_groups(), st.data())
def test_implicit_witness_homs_match_explicit(src, tgt, data):
    f = data.draw(ab_homs(source=src, target=tgt))
    ex_src, ex_tgt = explicit_copy(src), explicit_copy(tgt)
    assert src.reps is IntMatrix.identity(src.ngens)
    assert tgt.to_can is IntMatrix.identity(tgt.ngens)
    assert (hom_from_presentation(src, tgt, f.matrix)
            == hom_from_presentation(ex_src, ex_tgt, f.matrix) == f)


@settings(max_examples=60, deadline=None)
@given(st.lists(fp_groups(max_rank=1, max_factors=2), min_size=0, max_size=3))
def test_direct_sum_maps_cached_and_match_fresh(parts):
    ds, fresh = DirectSum(parts), DirectSum(parts)
    for i, p in enumerate(parts):
        assert ds.project(i) is ds.project(i)
        assert ds.project(i) == fresh.project(i)
        lo = ds.offsets[i]
        project = IntMatrix.from_rows(ds.group.reps.rows[lo:lo + p.ngens],
                                      ncols=ds.group.ngens)
        assert ds.project(i) == AbHom(ds.group, p, project)


@settings(max_examples=60, deadline=None)
@given(fp_groups(), fp_groups(), fp_groups(), st.data())
def test_hom_basis_products_match_unit_vector_reference(a, b, c, data):
    psi = data.draw(ab_homs(source=b, target=c))
    hab, hac = HomBasis(a, b), HomBasis(a, c)
    post = unit_columns(hab.group.ngens,
                        lambda e: hac.coords_of(psi.compose(hab.to_hom(e))),
                        hac.group.ngens)
    assert hab.postcompose(hac, psi) == AbHom(hab.group, hac.group, post)
    chi = data.draw(ab_homs(source=c, target=a))
    hcb = HomBasis(c, b)
    pre = unit_columns(hab.group.ngens,
                       lambda e: hcb.coords_of(hab.to_hom(e).compose(chi)),
                       hcb.group.ngens)
    assert hab.precompose(hcb, chi) == AbHom(hab.group, hcb.group, pre)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_tensor_induced_matches_unit_vector_reference(data):
    a, b = data.draw(fp_groups()), data.draw(fp_groups())
    f = data.draw(ab_homs(source=a))
    g = data.draw(ab_homs(source=b))
    tb, tb2 = TensorBasis(a, b), TensorBasis(f.target, g.target)

    def image(e):
        out = [0] * len(tb2.entries)
        for coeff, (x, y, _) in zip(tb.group.representative(e), tb.entries):
            for x2, fx in enumerate(f.matrix.column(x)):
                for y2, gy in enumerate(g.matrix.column(y)):
                    k = tb2.index.get((x2, y2))
                    if k is not None:
                        out[k] += coeff * fx * gy
        return tb2.group.to_canonical(out)

    ref = unit_columns(tb.group.ngens, image, tb2.group.ngens)
    assert tb.induced(tb2, f, g) == AbHom(tb.group, tb2.group, ref)


# -- kernel coordinates from the kernel lattice's own reduction -------------
#
# The reference is the route express_in_kernel took before it reused the
# lattice hom_kernel reduces: one full solve against the kernel basis
# stacked with the source's torsion relations.  It is kept here on purpose.


def express_in_kernel_reference(kernel_group, basis, source, vec):
    x = solve(basis.hstack(ea._torsion_columns(source)), source.reduce(vec))
    if x is None:
        raise ValueError("element does not lie in the kernel subgroup")
    return kernel_group.to_canonical(x[: basis.ncols])


def dense_solve_reduced(st_, b):
    """The dense dot-product loop the sparse _solve_reduced replaced."""
    c = [sum(q * x for q, x in zip(row, b) if q) for row in st_.u]
    y = []
    for k in range(st_.rank):
        q, r = divmod(c[k], st_.s[k][k])
        if r:
            return None
        y.append(q)
    if any(c[st_.rank:]):
        return None
    return [sum(row[k] * y[k] for k in range(st_.rank) if y[k]) for row in st_.v]


with_torsion = fp_groups().filter(lambda g: g.torsion)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_express_in_kernel_matches_stacked_solve(data):
    # maps with torsion in the source, the target, both or neither
    f = data.draw(ab_homs(source=data.draw(st.one_of(fp_groups(), with_torsion)),
                          target=data.draw(st.one_of(fp_groups(), with_torsion))))
    sub = hom_kernel(f)
    ker, _, inc = sub
    src = f.source

    def solved(cols):
        return ea.express_in_kernel(sub, IntMatrix.from_columns(
            cols, nrows=src.ngens))

    def reference(vec):
        return express_in_kernel_reference(ker, sub.matrix, src, vec)

    # kernel members, each shifted by a random multiple of the source
    # relations; none at all is a zero-column matrix
    ks = data.draw(st.lists(st.lists(small, min_size=ker.ngens,
                                     max_size=ker.ngens), max_size=3))
    members = [[x + data.draw(small) * m
                for x, m in zip(inc.apply(k), src.moduli())] for k in ks]
    got = solved(members)
    assert (got.nrows, got.ncols) == (ker.ngens, len(ks))
    assert got.columns() == [reference(v) for v in members] \
        == [ker.reduce(k) for k in ks]
    # arbitrary elements among the members: both routes agree column by
    # column, or the matrix is refused and the reference refuses a column
    vecs = data.draw(st.lists(st.lists(small, min_size=src.ngens,
                                       max_size=src.ngens), max_size=3))
    cols = members + vecs
    if any(any(f.apply(v)) for v in vecs):
        with pytest.raises(ValueError):
            solved(cols)
        with pytest.raises(ValueError):
            for v in vecs:
                reference(v)
    else:
        assert solved(cols).columns() == [reference(v) for v in cols]


def test_express_in_kernel_on_a_trivial_kernel():
    z = FpAbGroup.free(1)
    sub = hom_kernel(AbHom(z, FpAbGroup.from_invariants(1, [4]),
                           IntMatrix.from_rows([[2], [1]])))
    assert sub.group.is_trivial() and sub.matrix.ncols == 0
    assert ea.express_in_kernel(sub, column(0)) == IntMatrix.zeros(0, 1)
    assert ea.express_in_kernel(sub, IntMatrix.zeros(1, 0)) == \
        IntMatrix.zeros(0, 0)
    with pytest.raises(ValueError):
        ea.express_in_kernel(sub, column(4))
    with pytest.raises(ValueError):
        express_in_kernel_reference(sub.group, sub.matrix, z, [4])


@settings(max_examples=200, deadline=None)
@given(int_matrices(max_rows=5, max_cols=5, entries=mostly_zero), st.data())
def test_sparse_solve_reduced_matches_dense(a, data):
    st_ = ea._SnfState(a, need_u=True, need_uinv=False, need_v=True).diagonalize()

    def as_column(vec):
        return None if vec is None else column(*vec)
    x = data.draw(st.lists(mostly_zero, min_size=a.ncols, max_size=a.ncols))
    member = a.apply(x)
    got = ea._solve_reduced(st_, column(*member))
    assert got == as_column(dense_solve_reduced(st_, member))
    assert got is not None and a.apply(got.column(0)) == member
    # an arbitrary right-hand side is most often inconsistent
    b = data.draw(st.lists(mostly_zero, min_size=a.nrows, max_size=a.nrows))
    got_b = ea._solve_reduced(st_, column(*b))
    assert got_b == as_column(dense_solve_reduced(st_, b))
    assert got_b is None or a.apply(got_b.column(0)) == b
    # both at once: the columns solved together, or refused together
    both = ea._solve_reduced(st_, column(*member).hstack(column(*b)))
    assert both == (None if got_b is None else got.hstack(got_b))


def test_sparse_solve_reduced_refuses_inconsistent_systems():
    a = IntMatrix.from_rows([[2, 0], [0, 0]])
    st_ = ea._SnfState(a, need_u=True, need_uinv=False, need_v=True).diagonalize()
    for b in ([1, 0], [0, 1], [2, 3]):
        assert ea._solve_reduced(st_, column(*b)) is None
        assert dense_solve_reduced(st_, b) is None
    assert ea._solve_reduced(st_, column(4, 0)) == \
        column(*dense_solve_reduced(st_, [4, 0]))


def count_smith_reductions(monkeypatch):
    calls = []
    original = ea._SnfState.diagonalize

    def counting(self):
        calls.append((self.m, self.n))
        return original(self)
    monkeypatch.setattr(ea._SnfState, "diagonalize", counting)
    return calls


def test_homology_classes_run_no_further_smith_reduction(monkeypatch):
    # Z --(2,2,0)--> Z^3 --(1,-1,0)--> Z: H = Z/2 ⊕ Z
    z, z3 = FpAbGroup.free(1), FpAbGroup.free(3)
    d_in = AbHom(z, z3, IntMatrix.from_rows([[2], [2], [0]]))
    d_out = AbHom(z3, z, IntMatrix.from_rows([[1, -1, 0]]))
    calls = count_smith_reductions(monkeypatch)
    h = ea.HomologyData(d_in, d_out)
    assert h.group == FpAbGroup.from_invariants(1, [2])
    built = len(calls)
    cycles = IntMatrix.from_columns([[a, a, b] for a in range(-6, 7)
                                     for b in range(-3, 4)])
    classes = set(map(tuple, ea.express_in_kernel(h, cycles).columns()))
    assert len(calls) == built
    assert len(classes) == 2 * 7      # a mod 2, and b itself
    with pytest.raises(ValueError):
        ea.express_in_kernel(h, column(1, 0, 0))
    assert len(calls) == built


def test_homology_with_torsion_runs_three_smith_reductions(monkeypatch):
    # Z --(3,2)--> Z ⊕ Z/4 --0--> Z: H = Z/12.  The cycles' kernel basis,
    # the lattice reduction, and one presentation of the space's relation
    # with the boundary: three reductions
    z, space = FpAbGroup.free(1), FpAbGroup.from_invariants(1, [4])
    d_in = AbHom(z, space, IntMatrix.from_rows([[3], [2]]))
    calls = count_smith_reductions(monkeypatch)
    h = ea.HomologyData(d_in, AbHom.zero(space, z))
    assert h.group == FpAbGroup.cyclic(12)
    assert len(calls) == 3
    # the classes of a whole matrix run no further reduction
    grid = IntMatrix.from_columns([[x, y] for x in range(12) for y in range(4)])
    classes = ea.express_in_kernel(h, grid)
    assert len(calls) == 3
    assert len(set(map(tuple, classes.columns()))) == 12
    assert ea.express_in_kernel(h, column(3, 2)) == column(0)
    assert h.group.order_of(ea.express_in_kernel(h, column(1, 0)).column(0)) \
        == 6
    # representatives: the inclusion's columns map back to their classes
    assert ea.express_in_kernel(h, h.inclusion.matrix) == \
        IntMatrix.identity(h.group.ngens)
    # a map with trivial kernel runs its kernel basis reduction only: with
    # no relation to place, the lattice waits for its first solve, and no
    # presentation is built
    del calls[:]
    assert hom_kernel(AbHom(z, z, IntMatrix.from_rows([[2]]))).group \
        .is_trivial()
    assert len(calls) == 1
    # a free kernel reduces its lattice on the first solve, and once
    del calls[:]
    z3 = FpAbGroup.free(3)
    k = hom_kernel(AbHom(z3, z, IntMatrix.from_rows([[1, -1, 0]])))
    assert k.group == FpAbGroup.free(2) and len(calls) == 1
    moved = k.matrix * IntMatrix.from_columns([[1, 0], [3, -2]])
    assert ea.express_in_kernel(k, moved) == \
        IntMatrix.from_columns([[1, 0], [3, -2]])
    assert ea.express_in_kernel(k, k.inclusion.matrix) == \
        IntMatrix.identity(2)
    assert len(calls) == 2
    with pytest.raises(ValueError):
        ea.express_in_kernel(k, column(1, 0, 0))


def test_hom_coordinates_run_no_further_smith_reduction(monkeypatch):
    from orbifunctor.catmod import CatHomGroup, ModuleMap, free_module
    from orbifunctor.fincat import FinGroup, SubgroupFamily, orbit_category
    g = FinGroup.cyclic(2)
    cat = orbit_category(g, SubgroupFamily.all(g))
    mod = free_module(cat, list(cat.objects), "contra")
    hg = CatHomGroup(mod, mod)
    other = CatHomGroup(mod, mod)
    ident = ModuleMap.identity(mod)
    triple = ident.add(ident).add(ident)
    calls = count_smith_reductions(monkeypatch)
    for j in range(hg.group.ngens):
        e = [1 if i == j else 0 for i in range(hg.group.ngens)]
        assert hg.coords_of(hg.to_module_map(e)) == e
    moved = hg.postcompose_map(other, triple)
    assert moved.apply(hg.coords_of(ident)) == other.coords_of(triple)
    assert hg.precompose_map(other, triple) == moved
    assert calls == []


# -- an independent Smith oracle -------------------------------------------


@settings(max_examples=150, deadline=None)
@given(int_matrices())
def test_smith_and_cokernel_match_sympy(a):
    pytest.importorskip("sympy")
    from sympy import ZZ, Matrix
    from sympy.matrices.normalforms import invariant_factors
    flat = [x for row in a.rows for x in row]
    factors = invariant_factors(Matrix(a.nrows, a.ncols, flat), domain=ZZ)
    nonzero = [int(d) for d in factors if d != 0]
    assert list(smith_normal_form(a).divisors) == nonzero
    g = cokernel_presentation(a)
    assert g.rank == a.nrows - len(nonzero)
    assert list(g.torsion) == [d for d in nonzero if d > 1]
