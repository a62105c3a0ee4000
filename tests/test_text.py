"""The report's float writer ``_text.json_floats`` and ``to_json`` against
json's own encoder."""
import json
import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from harmconv import GridSpec, UnivalencyReport
from harmconv import _text


def texts(x):
    """json_floats of x, one string a value."""
    return [row.tobytes().replace(b"\0", b"").decode("ascii")
            for row in _text.json_floats(x)]


@pytest.fixture
def fallbacks(monkeypatch):
    """The entries json_floats leaves to json's encoder."""
    seen = []

    def dumps(v):
        seen.append(v)
        return json.dumps(v)

    monkeypatch.setattr(_text, "json", SimpleNamespace(dumps=dumps))
    return seen


def decimal(mantissa, e):
    return float(f"{mantissa}e{e}")


# values the writer leaves to json: zero, subnormal and non-finite values;
# |x| outside [1e-6, 1e13); a power of two (2^40 has 13 digits); 12 digits
# or fewer; a tie between two roundings that both read back, to 17 digits
# (1 + 2^-17 = 1.00000762939453125) and to 16 (...697.1875); and doubles
# beside four midpoints of two doubles that lie within 1e-9 of a last digit
# from a 16-digit decimal (both doubles for the first two)
SLOW = [0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, -1e-310,
        9.99999999999999e-7, 1e13, -1.2345678901234567e14, 2.0 ** 40,
        -0.5, 123456789012.0, 0.1, -1.5, 1 + 2 ** -17, 9143273076697.1875,
        0.10001178122473629, 0.1000117812247363, -1.0000269706351539,
        1.000026970635154, 1.0039971387667489e-05, 1000.0000464311059]


@pytest.mark.parametrize("v", SLOW)
def test_leaves_the_boundary_cases_to_json(v, fallbacks):
    assert texts(np.array([v])) == [json.dumps(v)]
    assert len(fallbacks) == 1


@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize("e", range(-6, 13))
def test_every_layout_goes_the_vectorised_way(e, sign, fallbacks):
    # 13 to 17 digits at each exponent: e-notation below 1e-4, "0.000ddd"
    # up to 1e-1, and from 1 up to 13 digits before the point ("x.0")
    x = sign * np.array([decimal(m, e) for m in (
        "1.2345678901234567", "9.876543210987654", "1.000000000001",
        "7.0000000000003", "5.00000000000002", "3.1415926535897")])
    assert texts(x) == [json.dumps(float(v)) for v in x]
    assert fallbacks == []


def test_writes_json_of_1e5_doubles(fallbacks):
    rng = np.random.default_rng(23)

    def signs(n):
        return rng.choice((-1.0, 1.0), n)

    wide = signs(40000) * 10 ** rng.uniform(-7, 14, 40000)
    # decimals of 12 to 16 digits at exponents -6..12, and their neighbours
    digits = np.repeat(np.arange(12, 17), 4000)
    dec = (rng.integers(10 ** (digits - 1), 10 ** digits)
           * 10.0 ** (rng.integers(-6, 13, digits.size) - digits + 1))
    near = signs(3 * dec.size) * np.concatenate(
        (dec, np.nextafter(dec, 0), np.nextafter(dec, math.inf)))
    p = 10.0 ** np.arange(-8, 16)
    powers = np.concatenate((p, np.nextafter(p, 0), np.nextafter(p, math.inf)))
    special = [0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, -5e-324,
               2.2250738585072014e-308, 1e-310, -1.7976931348623157e308]
    x = np.concatenate((wide, near, powers, -powers, special))
    assert texts(x) == [json.dumps(float(v)) for v in x]
    # with this seed 8,395 of the 100,154 go to json: 3,811 outside
    # [1e-6, 1e13), 4,494 of 12 digits or fewer and 90 others
    assert len(fallbacks) < 0.1 * len(x)


REPORT_GRID = GridSpec((0.5, 0.9), 4)


@pytest.mark.parametrize("modulus", [2, True, None, "x", [1.5, 2.5],
                                     {"a": 1.5}, (1.5,)])
def test_a_modulus_that_is_not_a_float_writes_as_json(modulus):
    rep = UnivalencyReport(1.5, None, [(0.5 + 0.5j, modulus), (0.25j, 1.5)],
                           REPORT_GRID, [])
    assert rep.to_json() == json.dumps(rep.to_dict(), indent=2,
                                       sort_keys=True)


@settings(max_examples=100, deadline=None, database=None)
@given(st.lists(st.tuples(st.complex_numbers(), st.floats()), max_size=30))
def test_any_float_violations_write_as_the_indenting_encoder(violations):
    rep = UnivalencyReport(1.5, None, violations, REPORT_GRID, [])
    assert rep.to_json() == json.dumps(rep.to_dict(), indent=2,
                                       sort_keys=True)
