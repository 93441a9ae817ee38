import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from curvlab import jets
from curvlab.errors import (
    DerivativeExhaustedError,
    EvaluationDomainError,
    UnsupportedOrderError,
)


def test_seed_reproduces_coordinates():
    xs = jets.seed([0.3, -1.2, 0.7], 3)
    assert [x.value for x in xs] == [0.3, -1.2, 0.7]
    for i, x in enumerate(xs):
        grad = np.zeros(3)
        grad[i] = 1.0
        np.testing.assert_allclose(x.gradient, grad)
        # all coefficients beyond the first-order one vanish
        assert x.coeff((2, 0, 0)) == 0.0


def test_polynomial_coefficients_exact():
    # f = (x1 + 2 x2)^2 x1 = x1^3 + 4 x1^2 x2 + 4 x1 x2^2
    x1, x2 = jets.seed([0.0, 0.0], 3)
    f = (x1 + 2 * x2) ** 2 * x1
    assert f.coeff((3, 0)) == 1.0
    assert f.coeff((2, 1)) == 4.0
    assert f.coeff((1, 2)) == 4.0
    assert f.coeff((0, 3)) == 0.0
    # derivative() multiplies the coefficient by alpha!
    assert f.derivative((2, 1)) == pytest.approx(8.0)


def test_product_rule_against_factored_form():
    x1, x2 = jets.seed([0.4, -0.3], 3)
    lhs = ((x1 * x2 + 1) * (x1 - x2)).coeffs
    expanded = x1**2 * x2 - x1 * x2**2 + x1 - x2
    np.testing.assert_allclose(lhs, expanded.coeffs, atol=1e-15)


def test_division_roundtrip():
    x1, x2 = jets.seed([0.2, 0.5], 3)
    f = 1 + x1**2 + jets.sin(x2)
    g = 2 + jets.cos(x1 * x2)
    np.testing.assert_allclose(((f / g) * g).coeffs, f.coeffs, atol=1e-14)


def test_reciprocal_and_negative_power_agree():
    (x,) = jets.seed([0.7], 3)
    f = 2 + x**2
    np.testing.assert_allclose((1 / f).coeffs, (f ** (-1)).coeffs, atol=1e-15)


def test_pythagorean_identity_exact_in_coefficients():
    x1, x2 = jets.seed([1.1, -0.4], 3)
    u = x1 * x2 + x1
    out = jets.sin(u) ** 2 + jets.cos(u) ** 2
    expect = np.zeros_like(out.coeffs)
    expect[0] = 1.0
    np.testing.assert_allclose(out.coeffs, expect, atol=1e-15)


def test_exp_log_sqrt_consistency():
    (x,) = jets.seed([0.9], 3)
    f = 1.5 + x**2
    np.testing.assert_allclose(jets.exp(jets.log(f)).coeffs, f.coeffs, atol=1e-13)
    np.testing.assert_allclose((jets.sqrt(f) ** 2).coeffs, f.coeffs, atol=1e-13)
    np.testing.assert_allclose((f**0.5).coeffs, jets.sqrt(f).coeffs, atol=1e-13)


def test_half_integer_power_derivatives():
    (x,) = jets.seed([2.0], 3)
    f = x**1.5
    assert f.value == pytest.approx(2.0**1.5)
    assert f.derivative((1,)) == pytest.approx(1.5 * 2.0**0.5)
    assert f.derivative((2,)) == pytest.approx(1.5 * 0.5 * 2.0 ** (-0.5))


def test_integer_power_matches_repeated_multiplication(monkeypatch):
    x1, x2 = jets.seed([0.3, 0.8], 2)
    f = x1 + 2 * x2
    np.testing.assert_allclose((f**3).coeffs, (f * f * f).coeffs, atol=1e-14)

    # binary powering costs floor(log2 k) + popcount(k) - 1 products, plus
    # the reciprocal's own for k < 0; dyadic coefficients keep every product
    # exact, so the result must match repeated multiplication bit for bit
    y1, y2 = jets.seed([0.5, 0.25], 2)
    f = y1 + 2 * y2
    calls = []
    counted = jets.jet_mul
    monkeypatch.setattr(jets, "jet_mul", lambda *a: calls.append(1) or counted(*a))
    recip = jets.Jet(2, 2, jets.reciprocal_coeffs(f.coeffs, f._ctx))
    recip_products = len(calls)
    for k in (*range(9), -3):
        calls.clear()
        power = f**k
        m = abs(k)
        expected_products = m.bit_length() + bin(m).count("1") - 2 if m else 0
        if k < 0:
            expected_products += recip_products
        assert len(calls) == expected_products, k
        expected = jets.constant(1.0, 2, 2)
        for _ in range(m):
            expected = expected * (f if k >= 0 else recip)
        assert np.array_equal(power.coeffs, expected.coeffs), k


def test_directional_matches_gradient():
    x1, x2, x3 = jets.seed([0.1, 0.2, 0.3], 2)
    f = jets.exp(x1) * jets.sin(x2) + x3**2
    v = np.array([0.5, -1.0, 2.0])
    assert f.directional(v) == pytest.approx(float(v @ f.gradient))


def test_partial_lowers_order():
    x1, x2 = jets.seed([0.5, -0.5], 3)
    f = x1**2 * x2
    fx = f.partial(0)
    assert fx.order == 2
    assert fx.value == pytest.approx(2 * 0.5 * -0.5)
    assert fx.derivative((1, 0)) == pytest.approx(2 * -0.5)
    assert f.partial(0).partial(1).value == pytest.approx(2 * 0.5)


def test_truncate_is_prefix():
    x1, x2 = jets.seed([0.4, 0.6], 3)
    f = jets.exp(x1 * x2)
    t = f.truncate(1)
    assert t.order == 1
    np.testing.assert_allclose(t.coeffs, f.coeffs[: t.coeffs.size])


def test_order_and_domain_errors():
    with pytest.raises(UnsupportedOrderError):
        jets.seed([0.0], 4)
    (x,) = jets.seed([0.0], 2)
    with pytest.raises(EvaluationDomainError):
        jets.log(x)
    with pytest.raises(EvaluationDomainError):
        jets.sqrt(x - 1)
    with pytest.raises(EvaluationDomainError):
        1 / x
    with pytest.raises(EvaluationDomainError):
        x ** (-2)
    # series coefficients that leave the float range
    for func, value in [
        (jets.exp, 1000.0),  # exp overflows
        (jets.log, 1e-200),  # v**k underflows to 0
        (jets.log, 1e200),  # v**k overflows
        (lambda a: 1 / a, 1e-200),  # v**(q - k) overflows
        (jets.sqrt, 1e-300),
    ]:
        (z,) = jets.seed([value], 3)
        with pytest.raises(EvaluationDomainError, match="float range"):
            func(z)
    (y,) = jets.seed([0.3], 0)
    with pytest.raises(DerivativeExhaustedError):
        y.gradient
    with pytest.raises(DerivativeExhaustedError):
        y.partial(0)


def test_non_half_integer_power_rejected():
    (x,) = jets.seed([1.2], 2)
    with pytest.raises(ValueError):
        x**0.3


def test_coerce_rejects_foreign_types():
    (x,) = jets.seed([1.0], 2)
    with pytest.raises(TypeError):
        x + "nope"
    ys = jets.seed([1.0], 1)
    with pytest.raises(ValueError):
        x + ys[0]  # mismatched order


@given(
    st.lists(st.integers(-4, 4), min_size=6, max_size=6),
    st.lists(st.integers(-4, 4), min_size=6, max_size=6),
)
def test_addition_is_coefficientwise(ca, cb):
    # polynomials with integer coefficients evaluate exactly in floats
    x1, x2 = jets.seed([1.0, -2.0], 3)

    def poly(c):
        return (
            c[0] + c[1] * x1 + c[2] * x2 + c[3] * x1 * x2 + c[4] * x1**2 + c[5] * x2**3
        )

    np.testing.assert_array_equal(
        (poly(ca) + poly(cb)).coeffs,
        poly([a + b for a, b in zip(ca, cb)]).coeffs,
    )


@given(st.floats(-1.5, 1.5), st.floats(-1.5, 1.5))
def test_chain_rule_first_order(a, b):
    x1, x2 = jets.seed([a, b], 1)
    f = jets.sin(x1) * jets.exp(x2)
    np.testing.assert_allclose(
        f.gradient,
        [math.cos(a) * math.exp(b), math.sin(a) * math.exp(b)],
        atol=1e-12,
    )


def test_constant_jet():
    c = jets.constant(4.25, dim=3, order=2)
    assert c.value == 4.25
    np.testing.assert_array_equal(c.gradient, np.zeros(3))


def test_todict_ordering_degree_then_lex():
    (x1, x2) = jets.seed([1.0, 2.0], 2)
    keys = list((x1 + x2).todict().keys())
    degrees = [sum(k) for k in keys]
    assert degrees == sorted(degrees)
    assert keys[0] == (0, 0)
    # within a degree block, multi-indices are lexicographically sorted
    block1 = [k for k in keys if sum(k) == 1]
    assert block1 == sorted(block1)
