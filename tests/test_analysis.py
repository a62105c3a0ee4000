import json
import math

import numpy as np
import pytest

from harmconv import (BoundaryDegenerateError, CohnInapplicableError,
                      ConvolutionSpec, DomainError, GridSpec, J_boundary,
                      ParameterError, Poly, UnivalencyReport, cohn_reduce,
                      conv_derivatives, default_grid, eval_B, eval_J, eval_g,
                      eval_g_prime, eval_h, eval_h_prime, make_mapping,
                      scan_dilatation, univalency_radius, zeros_in_unit_disk)

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
        # pairs of Python numbers in row-major order
        spec = ConvolutionSpec(0.5, make_mapping("Fn", n=2, theta=math.pi))
        grid = GridSpec((0.9, 0.95, 0.99), 360)
        ring = np.exp(2j * math.pi * np.arange(360) / 360)
        want = []
        for r in grid.radii:
            Hp, Gp = conv_derivatives(spec, r * ring)
            mod = np.abs(Gp / Hp)
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
        # straddle the series/direct routing boundary by a hair
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

    def test_tolerance_floor(self):
        spec = ConvolutionSpec(0.5, make_mapping("F0"))
        with pytest.raises(ParameterError):
            univalency_radius(spec, 1e-8)
