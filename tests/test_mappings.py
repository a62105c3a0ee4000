import math
import tracemalloc

import numpy as np
import pytest

from harmconv import (DomainError, MappingSpec, ParameterError,
                      SingularityError, dilatation, eval_f, eval_g,
                      eval_g_prime, eval_h, eval_h_prime, make_mapping,
                      series_derivative, series_eval, singular_points,
                      taylor_of_mapping)
from harmconv.mappings import _atanh_rest, term_table
from harmconv.special import _log

RNG = np.random.default_rng(21)


def _disk_sample(count, radius):
    r = radius * np.sqrt(RNG.uniform(size=count))
    t = 2 * math.pi * RNG.uniform(size=count)
    return r * np.exp(1j * t)


def all_specs():
    return [
        make_mapping("F0"),
        make_mapping("Fa", a=0.5),
        make_mapping("Fa", a=-0.7),
        make_mapping("F1", theta=0.0),
        make_mapping("F1", theta=math.pi / 6),
        make_mapping("F1", theta=-2 * math.pi / 3),
        make_mapping("Fn", n=1, theta=math.pi),
        make_mapping("Fn", n=2, theta=math.pi),
        make_mapping("Fn", n=5, theta=math.pi),
        make_mapping("Fn", n=3, theta=math.pi / 4),
        make_mapping("Fn", n=7, theta=-math.pi / 2),
    ]


class TestMakeMapping:
    def test_valid_fa(self):
        spec = make_mapping("Fa", a=0.5)
        assert spec.family == "Fa" and spec.a == 0.5

    def test_fa_boundary_rejected(self):
        with pytest.raises(ParameterError):
            make_mapping("Fa", a=1.0)
        with pytest.raises(ParameterError):
            make_mapping("Fa", a=-1.0)

    def test_f1_at_pi_redirects(self):
        with pytest.raises(ParameterError, match="n=1"):
            make_mapping("F1", theta=math.pi)

    def test_fn_needs_positive_n(self):
        with pytest.raises(ParameterError):
            make_mapping("Fn", n=0, theta=math.pi)

    def test_unknown_family(self):
        with pytest.raises(ParameterError):
            make_mapping("F9")

    @pytest.mark.parametrize("family,params", [
        ("F1", dict(theta=0.3 + 2 * math.pi)),
        ("Fn", dict(theta=-1.0 - 4 * math.pi, n=3)),
        ("F1", dict(theta=0.3, n=5, a=0.2)),
        ("F0", dict(a=0.5, theta=1.0, n=2)),
        ("Fa", dict(a=0.2, theta=0.3, n=5)),
    ], ids=["f1-theta-plus-2pi", "fn-theta-minus-4pi", "f1-extra-params",
            "f0-extra-params", "fa-extra-params"])
    def test_spec_equals_make_mapping(self, family, params):
        # one construction path: theta is reduced and the parameters the
        # family does not take are dropped, so both share one term table
        spec, made = MappingSpec(family, **params), make_mapping(family, **params)
        assert spec == made and hash(spec) == hash(made)
        assert term_table(spec) is term_table(made)


def test_h0_hand_value():
    # (0.5 - 0.125)/0.25
    assert eval_h(make_mapping("F0"), 0.5) == pytest.approx(1.5)


def test_normalization_all_families():
    for spec in all_specs():
        assert eval_h(spec, 0) == 0
        assert eval_g(spec, 0) == 0
        assert eval_h_prime(spec, 0) == pytest.approx(1.0, abs=1e-14)


def test_g_prime_at_origin():
    for a in (-0.6, 0.0, 0.8):
        assert eval_g_prime(make_mapping("Fa", a=a), 0) == pytest.approx(a)
    assert eval_g_prime(make_mapping("F1", theta=0.4), 0) == 0


def test_fn_h_against_quadrature():
    quad = pytest.importorskip("scipy.integrate").quad
    spec = make_mapping("Fn", n=3, theta=math.pi)
    val = quad(lambda t: 1 / ((1 - t ** 3) * (1 - t) ** 2), 0, 0.3)[0]
    assert eval_h(spec, 0.3) == pytest.approx(val, abs=1e-10)


def test_fn_general_h_against_quadrature():
    integ = pytest.importorskip("scipy.integrate")
    th = math.pi / 5
    spec = make_mapping("Fn", n=4, theta=th)
    u = np.exp(1j * th)

    def hp(t):
        return 1 / ((1 + u * t ** 4) * (1 - t) ** 2)

    re = integ.quad(lambda t: hp(t).real, 0, 0.45)[0]
    im = integ.quad(lambda t: hp(t).imag, 0, 0.45)[0]
    assert eval_h(spec, 0.45) == pytest.approx(re + 1j * im, abs=1e-10)


def test_eval_f_examples():
    assert eval_f(make_mapping("F0"), 0) == 0
    x = RNG.uniform(-0.9, 0.9, size=50)
    vals = eval_f(make_mapping("Fa", a=0.5), x.astype(complex))
    assert np.max(np.abs(vals.imag)) < 1e-13
    # h0 + g0 = z/(1-z) and g0(0.9) is real
    assert eval_f(make_mapping("F0"), 0.9) == pytest.approx(9.0)


def test_dilatation_closed_forms():
    assert dilatation(make_mapping("Fa", a=0.3), 0) == pytest.approx(0.3)
    assert dilatation(make_mapping("F0"), 0.5) == pytest.approx(-0.5)
    got = dilatation(make_mapping("Fn", n=2, theta=math.pi / 8), 0.5j)
    assert got == pytest.approx(-0.25 * np.exp(1j * math.pi / 8))


def test_shear_identity():
    # h + g collapses to the half-plane map the family was sheared from
    z = _disk_sample(1000, 0.95)
    for spec in all_specs():
        scale = 1 + spec.a if spec.family == "Fa" else 1.0
        target = scale * z / (1 - z)
        got = eval_h(spec, z) + eval_g(spec, z)
        assert np.max(np.abs(got - target)) < 1e-10, spec


def test_dilatation_consistency():
    z = _disk_sample(1000, 0.95)
    for spec in all_specs():
        lhs = eval_g_prime(spec, z)
        rhs = dilatation(spec, z) * eval_h_prime(spec, z)
        assert np.max(np.abs(lhs - rhs)) < 1e-10, spec


def test_h_prime_matches_finite_difference():
    # relative check: the truncation term h^2 h'''/6 tracks |h'| near poles
    h = 1e-5
    z = _disk_sample(200, 0.9)
    for spec in all_specs():
        hp = eval_h_prime(spec, z)
        fd = (eval_h(spec, z + h) - eval_h(spec, z - h)) / (2 * h)
        assert np.max(np.abs(fd - hp) / np.maximum(1, np.abs(hp))) < 1e-6, spec
        gp = eval_g_prime(spec, z)
        fdg = (eval_g(spec, z + h) - eval_g(spec, z - h)) / (2 * h)
        assert np.max(np.abs(fdg - gp) / np.maximum(1, np.abs(gp))) < 1e-6, spec


def test_jets_against_series():
    # h', h'', h''' and g', g'', g''' of every family, Fa's b != 0 included,
    # against the derivatives of the order-256 Taylor series at |z| <= 0.5
    z = _disk_sample(200, 0.5)
    for spec in all_specs():
        for got, series in zip(term_table(spec).jets(z),
                               taylor_of_mapping(spec, 256)):
            for k in range(3):
                series = series_derivative(series)
                want = series_eval(series, z)
                err = np.abs(got[k] - want) / np.maximum(1, np.abs(want))
                assert np.max(err) < 1e-12, (spec, k)


def test_fn1_pi_collapses_to_f0():
    z = _disk_sample(400, 0.98)
    f0 = make_mapping("F0")
    fn1 = make_mapping("Fn", n=1, theta=math.pi)
    for lhs, rhs in ((eval_h, eval_h), (eval_g, eval_g),
                     (eval_h_prime, eval_h_prime),
                     (eval_g_prime, eval_g_prime)):
        assert np.max(np.abs(lhs(fn1, z) - rhs(f0, z))) < 1e-12


def test_fn1_general_theta_collapses_to_f1():
    th = math.pi / 5
    z = _disk_sample(400, 0.95)
    f1 = make_mapping("F1", theta=th)
    fn1 = make_mapping("Fn", n=1, theta=th)
    for ev in (eval_h, eval_g, eval_h_prime, eval_g_prime):
        assert np.max(np.abs(ev(fn1, z) - ev(f1, z))) < 1e-11


def test_singularity_guard():
    spec = make_mapping("Fa", a=0.2)
    with pytest.raises(SingularityError) as exc:
        eval_h(spec, 1 - 1e-12)
    assert exc.value.singularity == pytest.approx(1.0)
    with pytest.raises(SingularityError):
        eval_h(spec, -1 + 1e-11)
    # F1 has a rotated pole at -e^{-i theta}
    th = math.pi / 3
    with pytest.raises(SingularityError):
        eval_h(make_mapping("F1", theta=th), -np.exp(-1j * th) * (1 - 1e-12))


def test_outside_disk_rejected():
    with pytest.raises(DomainError):
        eval_h(make_mapping("F0"), 1.2)


@pytest.mark.parametrize("n,theta", [(2, math.pi), (15, 2.0), (200, -1.0)])
def test_lone_logs_product_matches_the_term_by_term_sum(n, theta):
    # parts sums its lone logs as one product over points x roots; the
    # term-by-term loop is the reference, to the rounding of the sum
    t = term_table(make_mapping("Fn", n=n, theta=theta))
    z = _disk_sample(500, 0.95)
    loop = t._replace(c=t.c[:0], r=t.r[:0]).parts(z)[0]
    scale = np.abs(loop)
    for c, r in zip(t.c, t.r):
        term = c * _log(1 - r * z)
        loop, scale = loop + term, scale + np.abs(term)
    err = np.abs(t.parts(z)[0] - loop)
    assert np.all(err <= 4 * (len(t.r) + 1) * np.finfo(float).eps * scale)


def test_eval_h_traced_peak_stays_bounded():
    # the points go through blocks of at most 8,192 kernel elements: one
    # outer product of every point and root would take about 320 MB here
    spec = make_mapping("Fn", n=200, theta=2)
    rng = np.random.default_rng(85)
    z = 0.95 * np.sqrt(rng.uniform(size=10 ** 5)) * np.exp(
        2j * math.pi * rng.uniform(size=10 ** 5))
    eval_h(spec, 0.1)  # the term table, outside the trace
    tracemalloc.start()
    try:
        eval_h(spec, z)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6 * 2 ** 20


def test_singular_points_sets():
    assert np.allclose(singular_points(make_mapping("F0")), [1.0])
    pts = sorted(singular_points(make_mapping("Fa", a=0.1)).tolist(),
                 key=lambda w: w.real)
    assert np.allclose(pts, [-1.0, 1.0])
    # Fn at theta=pi: the n-th roots of unity
    got = singular_points(make_mapping("Fn", n=4, theta=math.pi))
    want = np.exp(2j * math.pi * np.arange(4) / 4)
    assert np.max(np.abs(np.sort_complex(got) - np.sort_complex(want))) < 1e-12


def test_atanh_rest_against_mpmath():
    # E(y) = (atanh(y)/y - 1)/y^2 off the series, 0.1 <= |y| < 1 - 1e-9,
    # half of the points within 1e-2 of the imaginary axis, where the
    # quotient (1+y)/(1-y) has modulus near 1: within 8 eps/|y|^3 relative
    mp = pytest.importorskip("mpmath")
    rng = np.random.default_rng(22)
    count = 3000
    mod = 1 - np.exp(rng.uniform(math.log(1e-9), math.log(0.9), 2 * count))
    axis = rng.choice([-1, 1], count) * math.pi / 2 + rng.uniform(-1e-2, 1e-2, count)
    y = mod * np.exp(1j * np.concatenate([rng.uniform(-math.pi, math.pi, count), axis]))
    got = _atanh_rest(y)
    with mp.workdps(50):
        err = np.array([float(abs(mp.mpc(g) / ((mp.atanh(v) / v - 1) / v ** 2) - 1))
                        for g, v in zip(got, map(mp.mpc, y))])
    assert np.all(err <= 8 * np.finfo(float).eps / np.abs(y) ** 3)


def test_atanh_rest_mixes_series_and_log_points_bit_for_bit():
    # a call with points below |y| = 0.1 takes the series there and the log
    # elsewhere; one without takes the log alone: each point of a mixed
    # array has the bits it has alone, as a 1-element array and as a numpy
    # scalar, complex or real
    rng = np.random.default_rng(23)
    y = 0.3 * np.sqrt(rng.uniform(size=600)) * np.exp(2j * math.pi * rng.uniform(size=600))
    y = np.concatenate([y, [0.1, -0.1, 0.1j, np.nextafter(0.1, 0)]])
    for mixed in (y, y.real):
        small = np.abs(mixed) < 0.1
        assert small.any() and not small.all()
        got = _atanh_rest(mixed)
        assert np.array_equal(got, [_atanh_rest(mixed[i:i + 1])[0]
                                    for i in range(len(mixed))])
        assert np.array_equal(got, [_atanh_rest(v) for v in mixed])
        assert np.array_equal(got[~small], _atanh_rest(mixed[~small]))
        assert np.array_equal(got[small], _atanh_rest(mixed[small]))


@pytest.mark.parametrize("y", [np.float64(0.5), np.array([0.05, -0.3, 0.9])],
                         ids=["float64", "array"])
def test_atanh_rest_of_real_input_is_real(y):
    # J_boundary sends a real np.float64 through _phi to _atanh_rest
    got = _atanh_rest(y)
    assert not np.iscomplexobj(got)
    assert np.allclose(got, (np.arctanh(y) / y - 1) / y ** 2, rtol=1e-13)


def test_atanh_rest_is_even_bit_for_bit():
    # E is even and y is folded onto Re y >= 0 first, so E(-y) has the bits
    # of E(y): random points, some below |y| = 0.1 where the series runs,
    # and signed zeros on both axes
    rng = np.random.default_rng(30)
    mod = np.concatenate([rng.uniform(0, 0.1, 2000), rng.uniform(0, 1, 8000)])
    y = mod * np.exp(2j * math.pi * rng.uniform(size=mod.size))
    zeros = [complex(x, b) for x in (0.0, -0.0) for b in (0.7, -0.7, 0.05, -0.05)]
    zeros += [complex(a, x) for x in (0.0, -0.0) for a in (0.7, -0.7, 0.05, -0.05)]
    for pts in (y, np.array(zeros)):
        assert (np.abs(pts) < 0.1).any() and not (np.abs(pts) < 0.1).all()
        assert _atanh_rest(-pts).tobytes() == _atanh_rest(pts).tobytes()
