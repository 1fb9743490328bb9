from fractions import Fraction

import pytest

from hallalg.catalog import catalog_build
from hallalg.errors import OutOfUniverseError
from hallalg.fq import gaussian_binomial
from hallalg.hall import (
    HallContext,
    count_exact_sequences,
    hall_number_classical,
    multiply,
)
from hallalg.quivers import a_n_quiver


@pytest.fixture(scope="module")
def a1_ctx():
    cat = catalog_build(a_n_quiver(1), 2, (3,))
    return HallContext("classical", cat)


@pytest.fixture(scope="module")
def a2_ctx():
    cat = catalog_build(a_n_quiver(2), 2, (2, 2))
    return HallContext("classical", cat)


def idx_of(cat, dims, indec=None):
    for e in cat.entries:
        if e.dims == dims and (indec is None or e.indecomposable == indec):
            return e.index
    raise AssertionError(f"no class {dims}")


def test_unit_hall_numbers(a1_ctx):
    cat = a1_ctx.catalog
    zero = cat.zero_index
    for z in range(len(cat)):
        for y in range(len(cat)):
            expected = 1 if z == y else 0
            assert hall_number_classical(a1_ctx, zero, y, z) == expected


def test_gaussian_binomial_hall_number(a1_ctx):
    cat = a1_ctx.catalog
    v1 = idx_of(cat, (1,))
    v2 = idx_of(cat, (2,))
    assert hall_number_classical(a1_ctx, v1, v1, v2) == 3 == gaussian_binomial(2, 1, 2)


def test_a2_extension_hall_numbers(a2_ctx):
    cat = a2_ctx.catalog
    s1 = idx_of(cat, (1, 0))
    s2 = idx_of(cat, (0, 1))
    p1 = idx_of(cat, (1, 1), indec=True)
    assert hall_number_classical(a2_ctx, s2, s1, p1) == 1
    assert hall_number_classical(a2_ctx, s1, s2, p1) == 0


def test_count_exact_sequences_zero_triple(a1_ctx):
    zero = a1_ctx.catalog.zero_index
    assert count_exact_sequences(a1_ctx, zero, zero, zero) == 1


def test_count_exact_sequences_a1(a1_ctx):
    cat = a1_ctx.catalog
    v1 = idx_of(cat, (1,))
    v2 = idx_of(cat, (2,))
    assert count_exact_sequences(a1_ctx, v1, v1, v2) == 3


def test_count_exact_sequences_a2(a2_ctx):
    cat = a2_ctx.catalog
    s1 = idx_of(cat, (1, 0))
    s2 = idx_of(cat, (0, 1))
    p1 = idx_of(cat, (1, 1), indec=True)
    assert count_exact_sequences(a2_ctx, s2, s1, p1) == 1


def test_riedtmann_factor_exhaustive_a2(a2_ctx):
    cat = a2_ctx.catalog
    for x in range(len(cat)):
        for y in range(len(cat)):
            dims = tuple(a + b for a, b in zip(cat.dims(x), cat.dims(y)))
            for z in cat.classes_with_dims(dims):
                lhs = count_exact_sequences(a2_ctx, x, y, z)
                g = hall_number_classical(a2_ctx, x, y, z)
                assert lhs == g * cat.aut_order(x) * cat.aut_order(y)


def test_multiply_unit(a2_ctx):
    cat = a2_ctx.catalog
    chi0 = a2_ctx.chi(cat.zero_index)
    for k in range(len(cat)):
        a = a2_ctx.chi(k)
        assert multiply(chi0, a) == a
        assert multiply(a, chi0) == a


def test_multiply_s2_s1(a2_ctx):
    cat = a2_ctx.catalog
    s1 = idx_of(cat, (1, 0))
    s2 = idx_of(cat, (0, 1))
    p1 = idx_of(cat, (1, 1), indec=True)
    split = idx_of(cat, (1, 1), indec=False)
    got = multiply(a2_ctx.chi(s2), a2_ctx.chi(s1))
    assert got.values == {split: Fraction(1), p1: Fraction(1)}
    got = multiply(a2_ctx.chi(s1), a2_ctx.chi(s2))
    assert got.values == {split: Fraction(1)}


def test_multiply_out_of_bound_raises(a1_ctx):
    cat = a1_ctx.catalog
    v2 = idx_of(cat, (2,))
    with pytest.raises(OutOfUniverseError):
        multiply(a1_ctx.chi(v2), a1_ctx.chi(v2))


def test_grading_invariant(a2_ctx):
    cat = a2_ctx.catalog
    for x in range(len(cat)):
        for y in range(len(cat)):
            if not a2_ctx.keys_in_bound((x, y)):
                continue
            for z, g in multiply(a2_ctx.chi(x), a2_ctx.chi(y)).values.items():
                assert g > 0
                assert cat.dims(z) == tuple(
                    a + b for a, b in zip(cat.dims(x), cat.dims(y))
                )


def test_associativity_exhaustive_a1(a1_ctx):
    keys = a1_ctx.basis_keys()
    for x in keys:
        for y in keys:
            for z in keys:
                if not a1_ctx.keys_in_bound((x, y, z)):
                    continue
                a, b, c = a1_ctx.chi(x), a1_ctx.chi(y), a1_ctx.chi(z)
                assert multiply(multiply(a, b), c) == multiply(a, multiply(b, c))


def test_gaussian_binomials_all_n_k():
    for p in (2, 3):
        cat = catalog_build(a_n_quiver(1), p, (4,))
        ctx = HallContext("classical", cat)
        by_dim = {cat.dims(i)[0]: i for i in range(len(cat))}
        for n in range(5):
            for k in range(n + 1):
                got = hall_number_classical(
                    ctx, by_dim[k], by_dim[n - k], by_dim[n]
                )
                assert got == gaussian_binomial(n, k, p)
