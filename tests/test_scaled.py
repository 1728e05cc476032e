"""ScaledValue arithmetic against plain complex arithmetic."""
import cmath
import math

import pytest

from pcfzeros.scaled import ScaledValue


def close(sv, w, tol=1e-14):
    z = sv.to_complex()
    return abs(z - w) <= tol * max(1.0, abs(w))


def test_make_normalizes_mantissa():
    sv = ScaledValue.make(3e200 + 4e200j, 0.0)
    assert 0.5 <= abs(sv.mantissa) <= 2.0
    assert close(ScaledValue.make(3.0 + 4.0j, 0.0), 3.0 + 4.0j)


def test_from_complex_and_to_complex_roundtrip():
    for w in (1.5 - 2.5j, -1e-8j, 42.0):
        assert close(ScaledValue.make(w), w)


def test_zero_handling():
    z = ScaledValue.make(0.0)
    assert z.is_zero
    assert z.to_complex() == 0.0
    assert (z + ScaledValue.make(2.0)).to_complex() == 2.0


def test_arithmetic_matches_complex():
    a = ScaledValue.make(1.3 - 0.7j, 2.0)
    b = ScaledValue.make(-0.4 + 2.1j, -1.0)
    wa = a.to_complex()
    wb = b.to_complex()
    assert close(a + b, wa + wb)
    assert close(a - b, wa - wb)
    assert close(a * b, wa * wb)
    assert close(a / b, wa / wb)
    assert close(a * 3.5, wa * 3.5)
    assert close(-a, -wa)
    assert close(a.conjugate(), wa.conjugate())


def test_huge_exponent_products_do_not_overflow():
    big = ScaledValue.make(1.0 + 1.0j, 4000.0)
    prod = big * big
    assert math.isfinite(abs(prod.mantissa))
    assert abs(prod.exponent + math.log(abs(prod.mantissa)) - (
        8000.0 + math.log(2.0))) < 1e-9
    # ratio of two huge values is an ordinary number
    other = ScaledValue.make(2.0, 7999.0)
    assert close(prod / other, (1.0 + 1.0j) ** 2 * math.e / 2.0)


def test_log_abs():
    sv = ScaledValue.make(2.0 + 0.0j, 10.0)
    assert abs(sv.log_abs() - (10.0 + math.log(2.0))) < 1e-14


def test_addition_rebases_to_larger_exponent():
    a = ScaledValue.make(1.0, 100.0)
    b = ScaledValue.make(1.0, 0.0)
    s = a + b
    # the small term is below double precision relative to the large one
    assert abs(s.log_abs() - 100.0) < 1e-13


def test_divide_by_zero_raises():
    with pytest.raises(ZeroDivisionError):
        ScaledValue.make(1.0) / ScaledValue.make(0.0)


def test_exp_consistency_with_cmath():
    # mantissa * exp(exponent) reproduces moderate values exactly enough
    sv = ScaledValue.make(1.0 - 2.0j, 3.0)
    assert close(sv, (1.0 - 2.0j) * cmath.exp(3.0))


def test_fields_are_read_only():
    sv = ScaledValue.make(1.0 - 2.0j, 3.0)
    with pytest.raises(AttributeError):
        sv.mantissa = 1.0 + 0j
    with pytest.raises(AttributeError):
        sv.exponent = 0.0
    assert repr(ScaledValue(1j, 2.0)) == (
        "ScaledValue(mantissa=1j, exponent=2.0)")
