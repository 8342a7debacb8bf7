"""The series value formatter :func:`nvmag.io._value_text` against
``b"%.12g" % v``, one value at a time and block by block.

Values in scientific notation take a vectorized fast path; every other
value goes through ``%``.  Which path a value takes may depend on the
last bit of ``np.log10``, which differs between numpy's SIMD targets;
the bytes must not."""

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from nvmag import io as _io

HEALTH = [HealthCheck.data_too_large, HealthCheck.too_slow,
          HealthCheck.filter_too_much]


def _bits(sign, exponent, fraction):
    """The double of a sign bit, a biased exponent and 52 fraction bits."""
    return float(np.array((sign << 63) | (exponent << 52) | fraction,
                          np.uint64).view(np.float64))


def _neighbours(v, steps=2):
    """``v`` and the doubles up to ``steps`` ulps either side of it."""
    out, up, down = [v], v, v
    for _ in range(steps):
        up, down = math.nextafter(up, math.inf), math.nextafter(down,
                                                                -math.inf)
        out += [up, down]
    return out


SIGNS = st.sampled_from([1.0, -1.0])
#: every finite double, subnormals and signed zeros included
FINITE = st.floats(allow_nan=False, allow_infinity=False)
SUBNORMAL = st.builds(_bits, st.integers(0, 1), st.just(0),
                      st.integers(0, 2 ** 52 - 1))
#: 1e-323 .. 1e308 and their neighbours, three-digit exponents among them
POWERS_OF_TEN = st.builds(
    lambda k, step, sign: sign * _neighbours(float(f"1e{k}"))[step],
    st.integers(-323, 308), st.integers(0, 4), SIGNS)
#: around 1e-4 and 1e12, where %.12g switches between notations, and
#: around the last doubles that round to them at 12 digits
SWITCHES = st.builds(
    lambda edge, step, sign: sign * _neighbours(edge, 8)[step],
    st.sampled_from([1e-4, 9.999999999995e-5, 1e12, 999999999999.5]),
    st.integers(0, 16), SIGNS)
#: 13-digit decimals ending in 5, which %.12g rounds half to even on the
#: exact double, and their neighbours
NEAR_TIES = st.builds(
    lambda digits, exponent, step, sign: sign * _neighbours(
        float(f"{digits // 10 ** 11}.{digits % 10 ** 11:011d}5e{exponent}")
    )[step],
    st.integers(10 ** 11, 10 ** 12 - 1), st.integers(-330, 308),
    st.integers(0, 4), SIGNS)
NOT_FINITE = st.sampled_from([math.nan, -math.nan, math.inf, -math.inf])
ANY = st.one_of(FINITE, SUBNORMAL, POWERS_OF_TEN, SWITCHES, NEAR_TIES,
                NOT_FINITE)


def _scientific(v):
    return not 1e-4 <= abs(v) < 1e12


#: values in scientific notation, which the fast path may take
SCIENTIFIC = ANY.filter(_scientific)
#: the scaling run's values: near 1e-7, in scientific notation
SERIES = st.builds(lambda x: x * 1e-7, st.floats(-8.0, 8.0)) \
    .filter(_scientific)


def texts(values):
    """The rows of :func:`_value_text`, NULs deleted."""
    rows = _io._value_text(np.asarray(values, np.float64))
    assert rows.shape == (len(values), _io._VALUE_WIDTH)
    assert rows.dtype == np.uint8
    return [row.tobytes().replace(b"\0", b"") for row in rows]


def want(values):
    return [b"%.12g\n" % v for v in np.asarray(values, np.float64).tolist()]


@settings(max_examples=2000, deadline=None, suppress_health_check=HEALTH)
@given(v=ANY)
def test_one_value_equals_percent_format(v):
    # a block of one: the fast path wherever the value is in scientific
    # notation with a decimal exponent in -11..33 and no tie, % otherwise
    assert texts([v]) == want([v])


@settings(max_examples=100, deadline=None, suppress_health_check=HEALTH)
@given(values=hnp.arrays(np.float64, st.integers(1, 64),
                         elements=st.one_of(SCIENTIFIC, SERIES)))
def test_scientific_block_equals_percent_format(values):
    # the fast path with the values it leaves to %, in their rows
    assert texts(values) == want(values)


@settings(max_examples=100, deadline=None, suppress_health_check=HEALTH)
@given(values=hnp.arrays(np.float64, st.integers(1, 64), elements=ANY))
def test_any_block_equals_percent_format(values):
    # values in fixed notation go to % one by one, beside the fast path
    assert texts(values) == want(values)


def _edge_values():
    """Powers of ten, the notation switches and near-ties with their
    neighbours, and series-like values."""
    rng = np.random.default_rng(29)
    values = [v for k in range(-323, 309)
              for v in _neighbours(float(f"1e{k}"))]
    values += [v for edge in (9.999999999995e-5, 999999999999.5, 1e12)
               for v in _neighbours(edge, 8)]
    for digits, exponent in zip(rng.integers(10 ** 11, 10 ** 12, 2000),
                                rng.integers(-12, 34, 2000)):
        values += _neighbours(float(f"{digits // 10 ** 11}."
                                    f"{digits % 10 ** 11:011d}5e{exponent}"))
    values = np.concatenate([values, rng.standard_normal(4096) * 1e-7])
    return np.concatenate([values, -values, [0.0, -0.0, math.nan,
                                            math.inf, -math.inf]])


@pytest.mark.parametrize("toward", [-math.inf, math.inf])
def test_log10_one_ulp_off_changes_no_byte(toward, monkeypatch):
    # numpy's log10 may differ by an ulp between SIMD targets: that may
    # send a value to %, never change its bytes
    values = _edge_values()
    real_log10 = np.log10
    calls = []

    def log10(x):
        calls.append(len(x))
        return np.nextafter(real_log10(x), toward)

    monkeypatch.setattr(np, "log10", log10)
    assert texts(values) == want(values)
    assert calls == [len(values)]  # the fast path ran, with this log10
