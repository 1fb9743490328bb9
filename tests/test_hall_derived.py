from fractions import Fraction

import pytest

from hallalg.catalog import catalog_build
from hallalg.derived import DerivedClass
from hallalg.errors import OutOfUniverseError
from hallalg.hall import (
    HallContext,
    derived_aut_order,
    derived_hall_number,
    hall_number_classical,
    multiply,
)
from hallalg.quivers import a_n_quiver


def euler_vector(x, cat):
    """Alternating-sum dimension vector of a derived class; additive in
    triangles."""
    out = [0] * cat.quiver.vertex_count
    for d, i in x.entries:
        for v, dim in enumerate(cat.dims(i)):
            out[v] += -dim if d % 2 else dim
    return tuple(out)


@pytest.fixture(scope="module")
def a2_cat():
    return catalog_build(a_n_quiver(2), 2, (1, 1))


@pytest.fixture(scope="module")
def dctx(a2_cat):
    return HallContext("derived", a2_cat, window=(-1, 1))


@pytest.fixture(scope="module")
def cctx(a2_cat):
    return HallContext("classical", a2_cat)


def idx_of(cat, dims, indec=None):
    for e in cat.entries:
        if e.dims == dims and (indec is None or e.indecomposable == indec):
            return e.index
    raise AssertionError(f"no class {dims}")


@pytest.fixture(scope="module")
def a1_dctx():
    cat = catalog_build(a_n_quiver(1), 2, (2,))
    return HallContext("derived", cat, window=(-1, 1))


def test_basis_size(dctx):
    # one optional nonzero class per degree in the window
    assert len(dctx.basis_keys()) == 5**3


def test_identity_cone_case(dctx, a2_cat):
    m = DerivedClass.from_module(idx_of(a2_cat, (1, 1), indec=True))
    assert derived_hall_number(dctx, m, DerivedClass.zero(), m) == 1


def test_shifted_unit_example(a1_dctx):
    cat = a1_dctx.catalog
    v1 = next(e.index for e in cat.entries if e.dims == (1,))
    x = DerivedClass.from_module(v1)
    z = DerivedClass.zero()
    y = x.shift(1)
    assert derived_hall_number(a1_dctx, x, y, z) == 1


def test_derived_aut_of_module_stalks(dctx, a2_cat):
    for e in a2_cat.entries:
        x = (
            DerivedClass.zero()
            if e.rep.is_zero()
            else DerivedClass.from_module(e.index)
        )
        assert derived_aut_order(dctx, x) == a2_cat.aut_order(e.index)


def test_derived_aut_of_mixed_object(dctx, a2_cat):
    # S_1 (+) S_2[1]: triangular self-maps with an Ext^1 off-diagonal part
    s1 = idx_of(a2_cat, (1, 0))
    s2 = idx_of(a2_cat, (0, 1))
    x = DerivedClass(((-1, s2), (0, s1)))
    assert derived_aut_order(dctx, x) == 2


def test_stalk_agreement_with_classical(dctx, cctx, a2_cat):
    cat = a2_cat
    for x in range(len(cat)):
        for y in range(len(cat)):
            dims = tuple(a + b for a, b in zip(cat.dims(x), cat.dims(y)))
            if any(d > b for d, b in zip(dims, cat.bound)):
                continue
            for z in range(len(cat)):
                classical = hall_number_classical(cctx, x, y, z)
                derived = derived_hall_number(
                    dctx,
                    DerivedClass.from_module(x) if cat.dims(x) != (0, 0) else DerivedClass.zero(),
                    DerivedClass.from_module(y) if cat.dims(y) != (0, 0) else DerivedClass.zero(),
                    DerivedClass.from_module(z) if cat.dims(z) != (0, 0) else DerivedClass.zero(),
                )
                assert derived == Fraction(classical), (x, y, z)


def test_unit_laws_derived(dctx):
    chi0 = dctx.chi(dctx.zero_key())
    for key in dctx.basis_keys():
        a = dctx.chi(key)
        assert multiply(chi0, a) == a
        assert multiply(a, chi0) == a


def test_module_times_shifted_module(dctx, a2_cat):
    # chi_M * chi_M[1] contains 1/|Aut M| chi_0 (the cone-of-identity term)
    s1 = idx_of(a2_cat, (1, 0))
    x = dctx.chi(DerivedClass.from_module(s1))
    y = dctx.chi(DerivedClass.from_module(s1).shift(1))
    got = multiply(x, y)
    assert got(DerivedClass.zero()) == Fraction(1, 1)  # Aut(S_1) = 1 at p=2
    # the split class is there too
    split = DerivedClass(((-1, s1), (0, s1)))
    assert got(split) > 0


@pytest.fixture(scope="module")
def a1_dctx_p3():
    # bound 1 keeps Hom spaces small; 3^d class enumerations grow fast
    cat = catalog_build(a_n_quiver(1), 3, (1,))
    return HallContext("derived", cat, window=(-1, 1))


def test_asymmetric_shifted_products_p3(a1_dctx_p3):
    # odd characteristic exercises every sign convention (-d in cones,
    # (-1)^k in shifts) that p = 2 cannot see; hand-computed with
    # M = V_1 over F_3, |Aut M| = 2:
    #   chi_M * chi_M[1] = 1/2 chi_0 + 1/3 chi_(M (+) M[1])
    #   chi_M[1] * chi_M = chi_(M (+) M[1])
    ctx = a1_dctx_p3
    cat = ctx.catalog
    v1 = next(e.index for e in cat.entries if e.dims == (1,))
    m = DerivedClass.from_module(v1)
    m1 = m.shift(1)
    split = DerivedClass(((-1, v1), (0, v1)))
    got = multiply(ctx.chi(m), ctx.chi(m1))
    assert got.values == {
        DerivedClass.zero(): Fraction(1, 2),
        split: Fraction(1, 3),
    }
    got = multiply(ctx.chi(m1), ctx.chi(m))
    assert got.values == {split: Fraction(1)}


def test_derived_suite_p3(a1_dctx_p3):
    from hallalg.verify import verify_suite

    report = verify_suite(a1_dctx_p3, checks=("unit", "assoc", "stalk", "orbit"))
    for name, check in report["checks"].items():
        assert check["status"] == "pass", (name, check["failures"][:2])
        assert check["cases"] > 0


def test_a2_derived_p3_smoke():
    cat = catalog_build(a_n_quiver(2), 3, (1, 1))
    ctx = HallContext("derived", cat, window=(-1, 1))
    from hallalg.verify import verify_suite

    report = verify_suite(ctx, checks=("unit", "stalk"))
    for name, check in report["checks"].items():
        assert check["status"] == "pass", (name, check["failures"][:2])


def test_asymmetric_shifted_products_a1(a1_dctx):
    # hand-computed: with M = V_1 over F_2,
    #   chi_M[1] * chi_M = chi_(M (+) M[1])           (only the zero map
    #       M[-1] -> M[1]; its cone is the split sum; all Ext factors 1)
    #   chi_M * chi_M[1] = chi_0 + 1/2 chi_(M (+) M[1])
    #       (cone of the identity component gives chi_0 with |Aut M| = 1;
    #        the split term carries |Ext^-1(M, M (+) M[1])| = 2 inverted)
    cat = a1_dctx.catalog
    v1 = next(e.index for e in cat.entries if e.dims == (1,))
    m = DerivedClass.from_module(v1)
    m1 = m.shift(1)
    split = DerivedClass(((-1, v1), (0, v1)))
    got = multiply(a1_dctx.chi(m1), a1_dctx.chi(m))
    assert got.values == {split: Fraction(1)}
    got = multiply(a1_dctx.chi(m), a1_dctx.chi(m1))
    assert got.values == {DerivedClass.zero(): Fraction(1), split: Fraction(1, 2)}


def test_out_of_universe_raises(dctx, a2_cat):
    s1 = idx_of(a2_cat, (1, 0))
    x = dctx.chi(DerivedClass.from_module(s1))
    with pytest.raises(OutOfUniverseError):
        multiply(x, x)  # S_1 * S_1 needs dims (2,0): outside bound (1,1)


def test_derived_numbers_are_nonnegative_rationals(dctx, a2_cat):
    s1 = idx_of(a2_cat, (1, 0))
    s2 = idx_of(a2_cat, (0, 1))
    keys = [
        DerivedClass.zero(),
        DerivedClass.from_module(s1),
        DerivedClass.from_module(s2).shift(1),
        DerivedClass(((-1, s2), (0, s1))),
    ]
    for x in keys:
        for y in keys:
            if not dctx.keys_in_bound((x, y)):
                continue
            for z, g in multiply(dctx.chi(x), dctx.chi(y)).values.items():
                assert g > 0


def test_euler_grading_of_derived_products(dctx, a2_cat):
    # the alternating-sum dimension vector is additive on every product term
    s1 = idx_of(a2_cat, (1, 0))
    s2 = idx_of(a2_cat, (0, 1))
    keys = [
        DerivedClass.from_module(s1),
        DerivedClass.from_module(s2),
        DerivedClass.from_module(s2).shift(1),
        DerivedClass(((-1, s1), (1, s2))),
    ]
    for x in keys:
        for y in keys:
            if not dctx.keys_in_bound((x, y)):
                continue
            ex = euler_vector(x, a2_cat)
            ey = euler_vector(y, a2_cat)
            expected = tuple(a + b for a, b in zip(ex, ey))
            for z in multiply(dctx.chi(x), dctx.chi(y)).values:
                assert euler_vector(z, a2_cat) == expected


def test_associativity_sample_derived(dctx, a2_cat):
    s1 = idx_of(a2_cat, (1, 0))
    s2 = idx_of(a2_cat, (0, 1))
    p1 = idx_of(a2_cat, (1, 1), indec=True)
    triples = [
        (DerivedClass.from_module(s1), DerivedClass.from_module(s2),
         DerivedClass.from_module(s2).shift(1)),
        (DerivedClass.from_module(s2).shift(-1), DerivedClass.from_module(s1),
         DerivedClass.from_module(s2).shift(1)),
        (DerivedClass.from_module(s1).shift(1), DerivedClass.from_module(s2),
         DerivedClass.from_module(p1).shift(-1)),
    ]
    for kx, ky, kz in triples:
        assert dctx.keys_in_bound((kx, ky, kz))
        a, b, c = dctx.chi(kx), dctx.chi(ky), dctx.chi(kz)
        assert multiply(multiply(a, b), c) == multiply(a, multiply(b, c))
