import json
import math

import numpy as np
import pytest

from harmconv import (BoundaryDegenerateError, CohnInapplicableError,
                      ConvolutionSpec, DomainError, GridSpec, J_boundary,
                      ParameterError, Poly, UnivalencyReport, analysis,
                      cohn_reduce, conv_derivatives, default_grid, eval_B,
                      eval_J, eval_g, eval_g_prime, eval_h, eval_h_prime,
                      hadamard, make_mapping, scan_dilatation,
                      series_derivative, series_eval, taylor_of_mapping,
                      univalency_radius, zeros_in_unit_disk)
from harmconv.convolution import _derivatives
from harmconv.mappings import term_table

RNG = np.random.default_rng(41)


def crit_poly(a):
    """z^2 + ((1+3a)/2) z + (1+a)/2, low-to-high coefficients."""
    return Poly([(1 + a) / 2, (1 + 3 * a) / 2, 1.0])


class TestCohn:
    @pytest.mark.parametrize("a", [-0.8, -0.3, 0.0, 0.4, 0.9])
    def test_reduction_closed_form(self, a):
        q1 = cohn_reduce(crit_poly(a))
        want = [(1 + 3 * a) * (1 - a) / 4, (3 + a) * (1 - a) / 4]
        assert np.allclose(q1.coeffs, want)

    def test_reduced_zero_location(self):
        q1 = cohn_reduce(crit_poly(0.0))
        assert -q1.coeffs[0] / q1.coeffs[1] == pytest.approx(-1 / 3)

    def test_monomial_reduces_to_constant(self):
        q1 = cohn_reduce(Poly([0.0, 1.0]))
        assert q1.degree == 0 and q1.coeffs[0] == pytest.approx(1.0)

    def test_inapplicable_when_trailing_dominates(self):
        with pytest.raises(CohnInapplicableError):
            cohn_reduce(Poly([2.0, 1.0]))

    def test_zero_poly_rejected(self):
        with pytest.raises(ParameterError):
            Poly([0.0, 0.0])


class TestZeroCount:
    def test_criterion_polynomial(self):
        assert zeros_in_unit_disk(crit_poly(0.5)) == 2

    def test_outside_zero(self):
        assert zeros_in_unit_disk(Poly([-2.0, 1.0])) == 0

    def test_split_pair(self):
        # (z - 0.5)(z - 3) = z^2 - 3.5 z + 1.5
        assert zeros_in_unit_disk(Poly([1.5, -3.5, 1.0])) == 1

    def test_boundary_zero_signals(self):
        with pytest.raises(BoundaryDegenerateError):
            zeros_in_unit_disk(Poly([-1.0, 1.0]))

    def test_against_companion_matrix(self):
        checked = 0
        while checked < 1000:
            deg = int(RNG.integers(1, 7))
            c = RNG.normal(size=deg + 1) + 1j * RNG.normal(size=deg + 1)
            roots = np.roots(c[::-1])
            if np.min(np.abs(np.abs(roots) - 1)) < 1e-4:
                continue
            want = int(np.sum(np.abs(roots) < 1))
            try:
                got = zeros_in_unit_disk(Poly(c))
            except BoundaryDegenerateError:
                continue
            assert got == want, c
            checked += 1


class TestGrids:
    def test_default_grid_shape(self):
        g = default_grid()
        assert len(g.radii) == 60 and g.angles_count == 720
        assert g.radii[-1] == pytest.approx(0.999)
        assert all(b > a for a, b in zip(g.radii, g.radii[1:]))

    def test_validation(self):
        with pytest.raises(ParameterError):
            GridSpec((0.5, 0.4), 100)
        with pytest.raises(ParameterError):
            GridSpec((0.5, 1.1), 100)
        with pytest.raises(ParameterError):
            GridSpec((), 100)
        with pytest.raises(ParameterError):
            GridSpec((0.5,), 0)

    @pytest.mark.parametrize("make", [
        lambda: default_grid(0),
        lambda: default_grid(2.5),
        lambda: GridSpec((0.5,), 2.5),
        lambda: GridSpec((0.5,), True),
    ], ids=["no-radii", "fractional-radii", "fractional-angles", "bool-angles"])
    def test_counts_must_be_positive_integers(self, make):
        with pytest.raises(ParameterError):
            make()


class TestScan:
    def test_detects_table_violation(self):
        spec = ConvolutionSpec(0.5, make_mapping("Fn", n=2, theta=math.pi))
        rep = scan_dilatation(spec, GridSpec((0.9, 0.99), 720))
        node = 0.99 * np.exp(1j * math.pi / 3)
        hits = [m for z, m in rep.violations if abs(z - node) < 1e-9]
        assert hits and hits[0] == pytest.approx(1.06019, abs=1e-4)

    def test_univalent_case_clean(self):
        spec = ConvolutionSpec(0.5, make_mapping("F1", theta=math.pi / 6))
        rep = scan_dilatation(spec, default_grid())
        assert rep.violations == []
        assert rep.max_modulus < 1

    def test_general_theta_violation(self):
        spec = ConvolutionSpec(0.0, make_mapping("Fn", n=12, theta=math.pi / 2))
        rep = scan_dilatation(spec, GridSpec((0.5, 0.99), 720))
        node = 0.99 * np.exp(1j * 7 * math.pi / 8)
        hits = [m for z, m in rep.violations if abs(z - node) < 1e-9]
        assert hits and hits[0] == pytest.approx(1.09957, abs=1e-4)

    def test_report_json_round_trip(self):
        spec = ConvolutionSpec(0.5, make_mapping("Fn", n=2, theta=math.pi))
        rep = scan_dilatation(spec, GridSpec((0.9, 0.99), 90))
        d = rep.to_dict()
        assert set(d) == {"max_modulus", "argmax", "violations", "grid",
                          "critical_points", "skipped"}
        assert set(d["argmax"]) == {"re", "im"}
        back = UnivalencyReport.from_json(rep.to_json())
        assert back.max_modulus == rep.max_modulus
        assert back.argmax == rep.argmax
        assert back.violations == rep.violations
        assert back.grid == rep.grid
        # and the serialized form is stable
        assert back.to_json() == rep.to_json()

    def test_violations_match_nodewise_list(self):
        # the violation list against one node at a time, as (z, modulus)
        # pairs of Python numbers in row-major order; the moduli are the row
        # kernel's, which test_ring_route_matches_conv_derivatives checks
        # against conv_derivatives
        spec = ConvolutionSpec(0.5, make_mapping("Fn", n=2, theta=math.pi))
        grid = GridSpec((0.9, 0.95, 0.99), 360)
        ring = np.exp(2j * math.pi * np.arange(360) / 360)
        want = []
        for r in grid.radii:
            mod, _ = analysis._scan_row(spec, r, ring)
            want += [(complex(r * ring[k]), float(mod[k]))
                     for k in np.flatnonzero(mod >= 1)]
        got = scan_dilatation(spec, grid).violations
        assert want and got == want
        assert all(type(z) is complex and type(m) is float for z, m in got)

    def test_json_matches_the_indenting_encoder(self):
        # to_json writes the violations from a template: byte for byte what
        # json.dumps(indent=2) writes, NaN and Infinity included
        spec = ConvolutionSpec(0.5, make_mapping("Fn", n=2, theta=math.pi))
        grid = GridSpec((0.5, 0.9), 4)
        reports = [
            scan_dilatation(spec, GridSpec((0.9, 0.99), 90)),
            UnivalencyReport(math.inf, 0.5 + 0j,
                             [(0.5 + 0j, math.inf), (-0.9j, 1.5),
                              (0.1 - 0.2j, math.nan), (1e-300 + 3j, 1e300),
                              (complex(-0.0, -0.5), 2)], grid, [0.1 + 0.1j]),
            UnivalencyReport(math.nan, None, [], grid, []),
            UnivalencyReport(0.3, -0.5j, [], grid, [0.2j, -0.3 + 0j]),
        ]
        for rep in reports:
            assert rep.to_json() == json.dumps(rep.to_dict(), indent=2,
                                               sort_keys=True)


def unsimplified_J(theta, z):
    spec = make_mapping("F1", theta=theta)
    h1p = eval_h_prime(spec, z)
    hd = eval_h(spec, z) - eval_h(spec, -z)
    gd = eval_g(spec, z) - eval_g(spec, -z)
    return hd / (z * h1p) + np.exp(-1j * theta) * gd / (z * z * h1p)


class TestJ:
    def test_positive_on_real_axis_theta_zero(self):
        x = np.linspace(0.05, 0.95, 50).astype(complex)
        assert np.all(eval_J(0.0, x).real > 0)

    def test_matches_unsimplified_spot(self):
        got = eval_J(math.pi / 6, 0.5j)
        assert got == pytest.approx(unsimplified_J(math.pi / 6, 0.5j), abs=1e-12)

    def test_matches_unsimplified_sampled(self):
        z = 0.98 * np.sqrt(RNG.uniform(size=500)) * np.exp(
            2j * math.pi * RNG.uniform(size=500))
        z = z[np.abs(z) > 0.02]
        got = eval_J(math.pi / 3, z)
        assert np.max(np.abs(got - unsimplified_J(math.pi / 3, z))) < 1e-10

    def test_origin_limit(self):
        assert eval_J(0.4, 0) == pytest.approx(2.0)
        assert eval_J(0.4, 1e-6) == pytest.approx(2.0, abs=1e-4)

    def test_series_seam_continuous(self):
        # J is continuous in |z|: values a hair either side of |z| = 0.01
        # must agree
        for th in (0.0, 0.9, -2.0):
            for ph in (0.0, 2.0):
                w = np.exp(1j * ph)
                a = eval_J(th, (0.01 - 1e-9) * w)
                b = eval_J(th, (0.01 + 1e-9) * w)
                assert abs(a - b) < 1e-7

    @pytest.mark.parametrize("theta", [math.pi - 1e-6, -(math.pi - 1e-6),
                                       0.3, 2.5])
    def test_near_pi_against_mpmath(self, theta):
        # the definition, with h of F1 (h' = 1/((1+uz)(1-z)^2), h(0) = 0)
        # and g = z/(1-z) - h at 80 digits: near pi, at |z| = 1e-12, the
        # 1/(1+u)^2 coefficients and the O(z^3) odd part of g cancel ~40
        # digits
        mp = pytest.importorskip("mpmath")
        z = np.outer([1e-12, 1e-8, 1e-4, 0.0099, 0.0101, 0.1, 0.5, 0.95],
                     np.exp(1j * (0.3 + np.arange(8) * math.pi / 4))).ravel()
        with mp.workdps(80):
            u = mp.expj(theta)

            def h(w):
                return (w / ((1 - w) * (1 + u))
                        + u / (1 + u) ** 2 * (mp.log(1 + u * w) - mp.log(1 - w)))

            want = []
            for w in map(mp.mpc, z):
                hd = h(w) - h(-w)
                gd = 2 * w / (1 - w * w) - hd
                want.append(complex((hd / w + gd / (u * w * w))
                                    * (1 + u * w) * (1 - w) ** 2))
        assert np.max(np.abs(eval_J(theta, z) - np.array(want))) < 1e-6

    def test_rejects_theta_pi_and_boundary(self):
        with pytest.raises(ParameterError):
            eval_J(math.pi, 0.5)
        with pytest.raises(DomainError):
            eval_J(0.5, 1.0)


class TestJBoundary:
    def test_limit_at_one(self):
        r = J_boundary(0.7, 0.0)
        assert r.re == 0 and r.value == 0

    def test_limit_at_conjugate_pole(self):
        r = J_boundary(math.pi / 2, 3 * math.pi / 2)
        assert r.re == pytest.approx(0.0, abs=1e-10)
        assert r.value == pytest.approx(4j, abs=1e-10)

    def test_pole_at_minus_one(self):
        assert math.isinf(J_boundary(math.pi / 6, math.pi).re)
        # but theta = 0 kills the pole
        assert J_boundary(0.0, math.pi).re == 0

    def test_case_tags(self):
        r = J_boundary(math.pi / 6, math.pi / 2)
        assert r.case.endswith("pi") and r.re > 0
        r2 = J_boundary(0.0, 3 * math.pi / 2)
        assert r2.case.endswith("-pi") and r2.re >= 0

    def test_dual_route_re_agrees(self):
        # piecewise-argument formula vs the principal-log closed form
        for th in (0.0, math.pi / 6, -math.pi / 3, 2.5, -2.9):
            for t in np.linspace(0.05, 2 * math.pi - 0.05, 97):
                r = J_boundary(th, t)
                if r.value is None:
                    continue
                assert r.re == pytest.approx(r.value.real, abs=1e-10), (th, t)

    def test_nonnegative_everywhere(self):
        for th in (0.0, math.pi / 6, -math.pi / 2, 2.8):
            t = np.linspace(0, 2 * math.pi, 500)
            assert all(J_boundary(th, x).re >= -1e-12 for x in t)

    def test_rejects_theta_pi(self):
        with pytest.raises(ParameterError):
            J_boundary(math.pi, 0.3)


def J_closed_form(theta, t):
    """J(e^{it}) at 60 digits by the complex-log closed form
    -2i sin(t/2) cos(s/2)/c (2 + 2 sin(t/2) sin(s/2) D/c), s = theta + t,
    c = cos(theta/2), D = log(1 + e^{is}) - log(1 - e^{it}) - log(1 - e^{is})
    + log(1 + e^{it}); at 60 digits its cancellation near theta = +-pi costs
    nothing."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(60):
        th, t = mp.mpf(theta), mp.mpf(t)
        s, c = th + t, mp.cos(th / 2)
        eit, eis = mp.expj(t), mp.expj(s)
        D = mp.log(1 + eis) - mp.log(1 - eit) - mp.log(1 - eis) + mp.log(1 + eit)
        return complex(-2j * mp.sin(t / 2) * mp.cos(s / 2) / c
                       * (2 + 2 * mp.sin(t / 2) * mp.sin(s / 2) / c * D))


# theta = +-(pi - 10^-k), the float next to pi and pi - 5e-13
NEAR_PI = [sign * th for th in [math.pi - 10.0 ** -k for k in range(1, 13)]
           + [math.pi - 5e-13, 3.1415926535897927] for sign in (1, -1)]


def off_limits(theta, t, gap):
    """t at least gap from J_boundary's four limit angles, mod 2 pi."""
    return all(abs(math.remainder(t - x, 2 * math.pi)) >= gap
               for x in (0, math.pi, math.pi - theta, -theta))


class TestJBoundaryAccuracy:
    @pytest.mark.parametrize("theta", NEAR_PI)
    def test_near_pi_against_mpmath(self, theta):
        for t in (0.081, 0.3, 1, 2, 2.5, 3, 4, 5.5, 6):
            want = J_closed_form(theta, t)
            got = J_boundary(theta, t).value
            assert abs(got - want) <= 1e-13 * abs(want), (t, got, want)

    def test_random_against_mpmath(self):
        rng = np.random.default_rng(12)
        checked = 0
        for theta, t in zip(rng.uniform(-math.pi, math.pi, 1200),
                            rng.uniform(0, 2 * math.pi, 1200)):
            r = J_boundary(theta, t)
            if r.case.startswith("limit"):
                continue
            want = J_closed_form(theta, t)
            assert abs(r.value - want) <= 1e-12 * abs(want), (theta, t)
            checked += 1
        assert checked >= 1000

    def test_inside_the_disk(self):
        # eval_J's term-table route just inside the circle, a route that
        # shares no formula with J_boundary
        rng = np.random.default_rng(13)
        thetas = list(rng.uniform(-math.pi, math.pi, 30)) + NEAR_PI[:24]
        for theta in thetas:
            ts = [t for t in rng.uniform(0, 2 * math.pi, 12)
                  if off_limits(theta, t, 0.05)]
            want = eval_J(theta, (1 - 1e-8) * np.exp(1j * np.array(ts)))
            for t, w in zip(ts, want):
                got = J_boundary(theta, t).value
                assert abs(got - w) <= 1e-6 * max(1, abs(got)), (theta, t)

    def test_conjugate_symmetry(self):
        # J at -theta, 2 pi - t is the conjugate of J at theta, t, with the
        # signs of sin t and sin(theta + t), so the A-B labels, swapped
        rng = np.random.default_rng(14)
        swap = {"A-B=pi": "A-B=-pi", "A-B=-pi": "A-B=pi", "A-B=0": "A-B=0"}
        for theta, t in zip(rng.uniform(-math.pi, math.pi, 2000),
                            rng.uniform(0, 2 * math.pi, 2000)):
            r, m = J_boundary(theta, t), J_boundary(-theta, 2 * math.pi - t)
            if r.case.startswith("limit"):
                continue
            scale = 1e-12 * max(1, abs(r.value))
            assert m.case == swap[r.case], (theta, t)
            assert abs(m.value - r.value.conjugate()) <= scale, (theta, t)
            assert abs(m.re - r.re) <= scale, (theta, t)


class TestB:
    def test_negative_off_origin(self):
        z = 0.95 * np.sqrt(RNG.uniform(size=1000)) * np.exp(
            2j * math.pi * RNG.uniform(size=1000))
        z = z[np.abs(z) > 1e-3]
        for th, a in ((0.0, 0.5), (math.pi / 6, -0.3), (-math.pi / 2, 0.8),
                      (5 * math.pi / 6, 0.0), (math.pi - 1e-8, 0.5)):
            assert np.max(eval_B(th, a, z)) < 0

    def test_schwarz_bound(self):
        z = 0.95 * np.sqrt(RNG.uniform(size=1000)) * np.exp(
            2j * math.pi * RNG.uniform(size=1000))
        z = z[np.abs(z) > 1e-3]
        spec = make_mapping("F1", theta=math.pi / 6)
        gd = np.abs(eval_g(spec, z) - eval_g(spec, -z))
        hd = np.abs(eval_h(spec, z) - eval_h(spec, -z))
        assert np.all(gd < np.abs(z) * hd)

    def test_rejects_origin(self):
        with pytest.raises(DomainError):
            eval_B(0.3, 0.5, 0.0)


class TestRingRoute:
    # scan rows and radius rings sum Fn's lone-log orbit one rotation class
    # at a time (g = gcd(n, K)); public conv_derivatives sums it log by log
    @staticmethod
    def routes(spec, R, K):
        """omega on the ring by the ring route and by conv_derivatives,
        after checking that the scan row's moduli are the ring route's."""
        ring = np.exp(2j * math.pi * np.arange(K) / K)
        z = R * ring
        t = term_table(spec.right)
        Hp, Gp = _derivatives(spec.a, t, z, math.gcd(t.n, K))
        mod, crit = analysis._scan_row(spec, R, ring)
        assert not crit and np.array_equal(mod, np.abs(Gp / Hp))
        Hp0, Gp0 = conv_derivatives(spec, z)
        return Gp / Hp, Gp0 / Hp0

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 9, 10, 12, 15, 40])
    @pytest.mark.parametrize("theta", [math.pi, math.pi - 1e-6, 0.7],
                             ids=["pi", "near-pi", "general"])
    def test_ring_route_matches_conv_derivatives(self, n, theta):
        # K = 720 and 1440 give g = n for most n, 100 gives 1 < g < n for
        # n = 12, 15, 40, and the prime 97 gives g = 1
        for K in (720, 1440, 100, 97):
            for R in (0.05, 0.5, 0.99, 0.999):
                for a in (0.5, -0.5):
                    spec = ConvolutionSpec(a, make_mapping("Fn", n=n, theta=theta))
                    w, w0 = self.routes(spec, R, K)
                    err = np.abs(w - w0) / np.maximum(1, np.abs(w0))
                    assert np.max(err) <= 1e-12, (K, R, a)

    @pytest.mark.parametrize("right", [
        make_mapping("F0"), make_mapping("F1", theta=math.pi / 6),
        make_mapping("F1", theta=math.pi - 1e-6)], ids=["F0", "F1", "F1-near-pi"])
    def test_no_orbit_matches_bit_for_bit(self, right):
        for K in (720, 1440, 97):
            for R in (0.05, 0.5, 0.999):
                for a in (0.5, -0.5):
                    w, w0 = self.routes(ConvolutionSpec(a, right), R, K)
                    assert np.array_equal(w, w0)

    def test_ring_route_against_series(self):
        # n = 15 on 720 nodes takes one class (g = 15) against the order-256
        # Hadamard series, which uses no logarithm
        a, right = -0.2, make_mapping("Fn", n=15, theta=math.pi)
        z = 0.5 * np.exp(2j * math.pi * np.arange(720) / 720)
        Hp, Gp = _derivatives(a, term_table(right), z, 15)
        ha, ga = taylor_of_mapping(make_mapping("Fa", a=a), 256)
        hr, gr = taylor_of_mapping(right, 256)
        want_h = series_eval(series_derivative(hadamard(ha, hr)), z)
        want_g = series_eval(series_derivative(hadamard(ga, gr)), z)
        assert np.max(np.abs(Gp / Hp - want_g / want_h)) < 1e-10


class TestRadius:
    def test_univalent_family_fills_disk(self):
        spec = ConvolutionSpec(0.5, make_mapping("F1", theta=math.pi / 6))
        assert univalency_radius(spec, 1e-6) == 1.0

    def test_known_violating_case(self):
        spec = ConvolutionSpec(0.5, make_mapping("Fn", n=2, theta=math.pi))
        r = univalency_radius(spec, 1e-6)
        assert r < 0.99
        # regression: the bisection's value
        assert r == pytest.approx(0.966208, abs=5e-5)

    @pytest.mark.parametrize("a,n,theta", [
        (0.5, 2, math.pi), (0.7, 10, -math.pi / 2), (-0.5, 2, math.pi / 2),
        (0.0, 40, math.pi)], ids=["n2-pi", "n10-minus-half-pi", "n2-half-pi",
                                   "n40-pi"])
    def test_radius_against_dense_ring(self, a, n, theta):
        # the answer meets tol on a 400,000-node ring, sampled independently
        # of the search's own refinement
        spec = ConvolutionSpec(a, make_mapping("Fn", n=n, theta=theta))
        tol = 1e-6
        r = univalency_radius(spec, tol)
        ring = np.exp(2j * math.pi * np.arange(400_000) / 400_000)

        def dense_max(rho):
            Hp, Gp = conv_derivatives(spec, rho * ring)
            return np.max(np.abs(Gp / Hp))

        assert dense_max(r) < 1
        assert dense_max(r + tol) >= 1

    @staticmethod
    def dense_max(spec, rho):
        """max |Gp/Hp| on |z| = rho through public conv_derivatives: a
        2^18-node ring, then 4097 nodes across the two ring steps around its
        top, 2^-29 pi apart, which leave the top within about 1e-14."""
        def top(t):
            Hp, Gp = conv_derivatives(spec, rho * np.exp(1j * t))
            m = np.abs(Gp / Hp)
            return t[np.argmax(m)], np.max(m)

        step = 2 * math.pi / 2 ** 18
        t, _ = top(step * np.arange(2 ** 18))
        return top(t + step * np.linspace(-1, 1, 4097))[1]

    def test_ring_reaching_one_is_not_refined(self, monkeypatch):
        # the ring's own maximum is returned once it reaches 1; below 1 the
        # Newton steps raise it to the circle's maximum
        spec = ConvolutionSpec(0.5, make_mapping("Fn", n=2, theta=math.pi))
        calls = []

        def counting(f):
            def wrapped(*args):
                calls.append(f.__name__)
                return f(*args)
            return wrapped

        for name in ("_derivatives", "_log_jets"):
            monkeypatch.setattr(analysis, name, counting(getattr(analysis, name)))
        ring = np.exp(1j * (2 * math.pi / 1440) * np.arange(1440))  # its ring
        top = np.max(analysis._scan_row(spec, 0.99, ring)[0])
        calls.clear()
        assert top >= 1 and analysis._circle_max(spec, 0.99) == top
        assert calls == ["_derivatives"]  # the ring alone
        top = np.max(analysis._scan_row(spec, 0.9, ring)[0])
        m = analysis._circle_max(spec, 0.9)
        assert top <= m < 1
        assert abs(m - self.dense_max(spec, 0.9)) <= 1e-12

    @pytest.mark.parametrize("a,n,theta", [
        (0.5, 2, math.pi), (0.7, 10, -math.pi / 2), (-0.5, 2, math.pi / 2),
        (0.0, 40, math.pi)], ids=["n2-pi", "n10-minus-half-pi", "n2-half-pi",
                                   "n40-pi"])
    def test_circle_max_against_dense_ring(self, a, n, theta):
        # at the returned radius, where the maximum is just below 1; there
        # the 2^18-node ring alone reads up to 7.8e-8 low (n = 40)
        spec = ConvolutionSpec(a, make_mapping("Fn", n=n, theta=theta))
        r = univalency_radius(spec, 1e-6)
        assert abs(analysis._circle_max(spec, r) - self.dense_max(spec, r)) <= 1e-12

    @pytest.mark.parametrize("a,n,theta", [(-0.98, 3, 1.8), (-0.98, 5, -0.8)],
                             ids=["n3", "n5"])
    def test_radius_past_0999_against_dense_ring(self, a, n, theta):
        # max |omega| < 1 on |z| = 0.999 here, but not on every circle out to
        # the search's outer one, so the radius is not 1.0
        spec = ConvolutionSpec(a, make_mapping("Fn", n=n, theta=theta))
        tol = 1e-6
        r = univalency_radius(spec, tol)
        assert 0.999 < r < analysis.OUTER_RADIUS
        assert self.dense_max(spec, r) < 1
        assert self.dense_max(spec, r + tol) >= 1

    def test_radius_is_even_in_theta(self):
        # omega at -theta is conj omega at theta with z conjugated, so the
        # ring peaks mirror and Newton must reach mirrored maxima
        rng = np.random.default_rng(11)
        for _ in range(10):
            n = int(rng.integers(2, 31))
            theta = float(rng.uniform(0.1, math.pi - 0.1))
            a = float(rng.uniform(-0.9, 0.9))
            rho = [univalency_radius(ConvolutionSpec(
                a, make_mapping("Fn", n=n, theta=s * theta))) for s in (1, -1)]
            assert abs(rho[0] - rho[1]) <= 1e-12, (a, n, theta)

    def test_tolerance_floor(self):
        spec = ConvolutionSpec(0.5, make_mapping("F0"))
        with pytest.raises(ParameterError):
            univalency_radius(spec, 1e-8)
