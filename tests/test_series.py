import math

import numpy as np
import pytest

from harmconv import (ParameterError, TruncatedSeries, eval_g, eval_h,
                      hadamard, make_mapping, series_derivative, series_div,
                      series_eval, shear_series, taylor_of_mapping)


def geom(N):
    """z/(1-z) truncated: the convolution identity element."""
    c = np.ones(N + 1, dtype=complex)
    c[0] = 0
    return TruncatedSeries(c)


def test_f0_low_order_coefficients():
    h, g = taylor_of_mapping(make_mapping("F0"), 4)
    assert np.allclose(h.coeffs, [0, 1, 1.5, 2, 2.5])
    assert np.allclose(g.coeffs, [0, 0, -0.5, -1, -1.5])


def test_fa_low_order_coefficients():
    a = 0.3
    h, g = taylor_of_mapping(make_mapping("Fa", a=a), 2)
    assert np.allclose(h.coeffs, [0, 1, (1 + a) / 2])
    assert g.coeffs[1] == pytest.approx(a)


def test_normalization_coefficients():
    for spec in (make_mapping("F0"), make_mapping("Fa", a=-0.4),
                 make_mapping("F1", theta=0.7),
                 make_mapping("Fn", n=4, theta=math.pi),
                 make_mapping("Fn", n=3, theta=0.9)):
        h, g = taylor_of_mapping(spec, 12)
        assert h.coeffs[0] == 0 and g.coeffs[0] == 0
        assert h.coeffs[1] == 1


def test_hadamard_identity_zero_commutative():
    h, g = taylor_of_mapping(make_mapping("Fa", a=0.6), 30)
    assert np.array_equal(hadamard(h, geom(30)).coeffs, h.coeffs)
    zero = TruncatedSeries(np.zeros(31))
    assert not np.any(hadamard(h, zero).coeffs)
    assert np.array_equal(hadamard(h, g).coeffs, hadamard(g, h).coeffs)


def test_hadamard_order_mismatch():
    with pytest.raises(ParameterError):
        hadamard(geom(10), geom(11))


def test_series_eval_geometric():
    assert series_eval(geom(50), 0.5) == pytest.approx(1.0, abs=1e-12)


def test_series_derivative():
    d = series_derivative(TruncatedSeries([0, 1, 1, 1]))
    assert np.allclose(d.coeffs, [1, 2, 3])


def test_series_div_self_is_one():
    s = TruncatedSeries([2.0, -1.0, 0.5, 0.25])
    q = series_div(s, s)
    assert np.allclose(q.coeffs, [1, 0, 0, 0], atol=1e-15)


def test_series_div_rejects_zero_leading():
    with pytest.raises(ZeroDivisionError):
        series_div(geom(5), geom(5))


def test_series_div_reconstructs():
    rng = np.random.default_rng(3)
    num = TruncatedSeries(rng.normal(size=20) + 1j * rng.normal(size=20))
    den_c = rng.normal(size=20) + 1j * rng.normal(size=20)
    den_c[0] = 1.5
    den = TruncatedSeries(den_c)
    q = series_div(num, den)
    # multiply back truncated
    back = np.zeros(20, dtype=complex)
    for k in range(20):
        back[k] = np.dot(q.coeffs[:k + 1], den.coeffs[k::-1])
    assert np.max(np.abs(back - num.coeffs)) < 1e-10


def test_shear_recovers_f0():
    N = 40
    omega = TruncatedSeries(np.concatenate([[0, -1], np.zeros(N - 1)]))
    h, g = shear_series(geom(N), omega)
    # closed form: h_k = (k+1)/2 and g_k = -(k-1)/2 for k >= 1
    k = np.arange(1, N + 1)
    assert h.coeffs[0] == 0 and g.coeffs[0] == 0
    assert np.max(np.abs(h.coeffs[1:] - (k + 1) / 2)) < 1e-12
    assert np.max(np.abs(g.coeffs[1:] + (k - 1) / 2)) < 1e-12


def test_shear_recovers_fa():
    N = 60
    a = 0.45
    phi = TruncatedSeries((1 + a) * geom(N).coeffs)
    # omega = (z+a)/(1+az) expanded
    omega_c = np.zeros(N + 1, dtype=complex)
    omega_c[0] = a
    for k in range(1, N + 1):
        omega_c[k] = (1 - a * a) * (-a) ** (k - 1)
    h, g = shear_series(phi, TruncatedSeries(omega_c))
    # closed form: (1+a)/2 +- (1-a)/(2k) for odd k, (1+a)/2 for even k
    k = np.arange(1, N + 1)
    odd = np.where(k % 2, (1 - a) / (2 * k), 0.0)
    assert h.coeffs[0] == 0 and g.coeffs[0] == 0
    assert np.max(np.abs(h.coeffs[1:] - ((1 + a) / 2 + odd))) < 1e-12
    assert np.max(np.abs(g.coeffs[1:] - ((1 + a) / 2 - odd))) < 1e-12


def test_shear_zero_dilatation():
    N = 15
    h, g = shear_series(geom(N), TruncatedSeries(np.zeros(N + 1)))
    assert np.array_equal(h.coeffs, geom(N).coeffs)
    assert not np.any(g.coeffs)


def test_shear_identities():
    rng = np.random.default_rng(5)
    N = 30
    phi_c = rng.normal(size=N + 1) + 1j * rng.normal(size=N + 1)
    phi_c[0] = 0
    omega_c = 0.1 * (rng.normal(size=N + 1) + 1j * rng.normal(size=N + 1))
    omega_c[0] = 0.4
    phi = TruncatedSeries(phi_c)
    omega = TruncatedSeries(omega_c)
    h, g = shear_series(phi, omega)
    assert np.max(np.abs(h.coeffs + g.coeffs - phi.coeffs)) < 1e-13
    lhs = series_derivative(g).coeffs
    hp = series_derivative(h)
    rhs = np.zeros(N, dtype=complex)
    for k in range(N):
        rhs[k] = np.dot(omega.coeffs[:k + 1], hp.coeffs[k::-1])
    assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_shear_degenerate_omega():
    N = 8
    with pytest.raises(ParameterError):
        shear_series(geom(N), TruncatedSeries(np.concatenate([[-1.0], np.zeros(N)])))
    with pytest.raises(ParameterError):
        shear_series(geom(N), TruncatedSeries(np.concatenate([[1.5], np.zeros(N)])))


def test_taylor_matches_closed_forms():
    # the series exists to check the evaluators; make sure it actually does
    rng = np.random.default_rng(6)
    z = 0.7 * np.sqrt(rng.uniform(size=30)) * np.exp(
        2j * math.pi * rng.uniform(size=30))
    for spec in (make_mapping("F0"), make_mapping("Fa", a=0.25),
                 make_mapping("Fa", a=-0.9),
                 make_mapping("F1", theta=-1.1),
                 make_mapping("F1", theta=math.pi - 5e-13),
                 make_mapping("Fn", n=6, theta=math.pi),
                 make_mapping("Fn", n=4, theta=2.0),
                 make_mapping("Fn", n=3, theta=math.pi - 1e-9)):
        h, g = taylor_of_mapping(spec, 256)
        dh = np.abs(series_eval(h, z) - eval_h(spec, z))
        dg = np.abs(series_eval(g, z) - eval_g(spec, z))
        assert max(dh.max(), dg.max()) < 1e-10, spec
