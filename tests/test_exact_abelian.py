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
    group_invariants,
    hom_cokernel,
    hom_from_presentation,
    hom_group,
    hom_image,
    hom_kernel,
    hom_kernel_cokernel,
    is_almost_isomorphism,
    is_isomorphism,
    kernel_basis,
    presented_group,
    smith_normal_form,
    solve,
    solve_image_membership,
    solve_mod,
    tensor_group,
)
from samplers import ab_homs, ab_homs_with_basis, fp_groups, int_matrices, square_matrices


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
    assert lat.coordinates([4, 9]) == [2, 3]
    assert lat.coordinates([1, 1]) is None


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


def test_group_scalars():
    g = FpAbGroup.from_invariants(1, [2, 6])
    assert g.ngens == 3
    assert g.moduli() == (0, 2, 6)
    assert g.order() is None
    assert g.exponent() == 6
    h = FpAbGroup.from_invariants(0, [2, 6])
    assert h.order() == 12
    assert group_invariants(g) == (1, 6, False)
    assert group_invariants(h) == (0, 6, True)


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
    assert presented_group(1, [[5]]) == FpAbGroup.cyclic(5)


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
    g = presented_group(2, [[2, 0], [0, 3]])   # Z/6 on two generators
    assert g == FpAbGroup.cyclic(6)
    f = hom_from_presentation(g, g, IntMatrix.identity(2))
    assert f == AbHom.identity(g)


def test_kernel_cokernel_oracle_mult2_on_z4():
    g = FpAbGroup.cyclic(4)
    f = AbHom(g, g, IntMatrix.from_rows([[2]]))
    ker, coker, image = hom_kernel_cokernel(f)
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
    verdict, ker_exp, coker_exp = is_almost_isomorphism(f)
    assert verdict is True
    assert ker_exp == 4
    assert coker_exp == 6
    g = AbHom(FpAbGroup.free(1), FpAbGroup.free(2),
              IntMatrix.from_rows([[1], [0]]))
    assert is_almost_isomorphism(g)[0] is False


def test_is_isomorphism():
    g = FpAbGroup.free(2)
    f = AbHom(g, g, IntMatrix.from_rows([[1, 1], [0, 1]]))
    assert is_isomorphism(f)
    assert not is_isomorphism(AbHom(g, g, IntMatrix.diagonal([1, 2])))


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
    ker, coker, image = hom_kernel_cokernel(f)
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
    fv, fk, fc = is_almost_isomorphism(f)
    gv, gk, gc = is_almost_isomorphism(g)
    if fv and gv:
        hv, hk, hc = is_almost_isomorphism(g.compose(f))
        assert hv
        assert (fk * gk) % hk == 0
        assert (fc * gc) % hc == 0


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
    assert h.class_of([2]) == [0]
    assert h.class_of([3]) == [1]
    assert h.representative([1])[0] % 2 == 1
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
    ker, basis, inc = hom_kernel(double)
    coords = ea.express_in_kernel(ker, basis, z4, [2])
    assert inc.apply(coords) == [2]
    with pytest.raises(ValueError):
        ea.express_in_kernel(ker, basis, z4, [1])


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
    inj0, prj0 = ds.inject(0), ds.project(0)
    inj1, prj1 = ds.inject(1), ds.project(1)
    assert prj0.compose(inj0) == AbHom.identity(ds.parts[0])
    assert prj1.compose(inj0).is_zero()
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
        assert ds.project(i).compose(ds.inject(i)) == AbHom.identity(p)
        for j in range(len(parts)):
            if j != i:
                assert ds.project(j).compose(ds.inject(i)).is_zero()


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


def test_identity_witnesses_are_implicit():
    for g in (FpAbGroup.free(4), FpAbGroup.from_invariants(1, [2, 4]),
              cokernel_presentation(IntMatrix.zeros(3, 0)),
              cokernel_presentation(IntMatrix.diagonal([2, 4]))):
        assert g._to_can is None and g._reps is None
        assert g.to_can == g.reps == IntMatrix.identity(g.ngens)


def explicit_copy(g):
    """The same group, carrying its witnesses as explicit matrices."""
    return FpAbGroup(g.rank, g.torsion, to_can=g.to_can, reps=g.reps)


@settings(max_examples=100, deadline=None)
@given(int_matrices(max_rows=4, max_cols=4, entries=mostly_zero), st.data())
def test_implicit_witnesses_match_explicit(a, data):
    g = cokernel_presentation(a)
    ex = explicit_copy(g)
    assert g == ex and hash(g) == hash(ex) and ex._to_can is not None
    pres = data.draw(st.lists(small, min_size=a.nrows, max_size=a.nrows))
    assert g.to_canonical(pres) == ex.to_canonical(pres)
    can = data.draw(st.lists(small, min_size=g.ngens, max_size=g.ngens))
    assert g.representative(can) == ex.representative(can)


@settings(max_examples=80, deadline=None)
@given(fp_groups(), fp_groups(), st.data())
def test_implicit_witness_homs_match_explicit(src, tgt, data):
    f = data.draw(ab_homs(source=src, target=tgt))
    ex_src, ex_tgt = explicit_copy(src), explicit_copy(tgt)
    assert src._reps is None and tgt._to_can is None
    assert (hom_from_presentation(src, tgt, f.matrix)
            == hom_from_presentation(ex_src, ex_tgt, f.matrix) == f)


@settings(max_examples=60, deadline=None)
@given(st.lists(fp_groups(max_rank=1, max_factors=2), min_size=0, max_size=3))
def test_direct_sum_maps_cached_and_match_fresh(parts):
    ds, fresh = DirectSum(parts), DirectSum(parts)
    for i, p in enumerate(parts):
        assert ds.inject(i) is ds.inject(i) and ds.project(i) is ds.project(i)
        assert ds.inject(i) == fresh.inject(i)
        assert ds.project(i) == fresh.project(i)
        inject = unit_columns(p.ngens,
                              lambda e: ds.group.to_canonical(ds.embed(i, e)),
                              ds.group.ngens)
        assert ds.inject(i) == AbHom(p, ds.group, inject)
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
