import cmath
import json
import math

import numpy as np
import pytest

from harmconv import (BoundaryDegenerateError, CohnInapplicableError, _core,
                      ConvolutionSpec, CriticalPointError, DomainError,
                      GridSpec, J_boundary, ParameterError, Poly,
                      UnivalencyReport, analysis, cohn_reduce,
                      conv_derivatives, conv_dilatation, convolution,
                      default_grid, eval_B,
                      eval_J, eval_g, eval_g_prime, eval_h, eval_h_prime,
                      hadamard, make_mapping, mappings, scan_dilatation,
                      series_derivative, series_eval, taylor_of_mapping,
                      univalency_radius, zeros_in_unit_disk)
from harmconv.convolution import _derivatives
from harmconv.mappings import term_table

RNG = np.random.default_rng(41)


def antipodal_ring(K):
    """e^{2 pi i k/K}, k < K, with node k + K/2 exactly -node k for even K:
    the library's ring nodes, built here independently of it."""
    ring = np.exp(2j * math.pi * np.arange(K) / K)
    if K % 2 == 0:
        ring[K // 2:] = -ring[:K // 2]
    return ring


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

    @staticmethod
    def circles(count, r, s):
        """count zeros on |z| = r and count on |z| = s, equispaced."""
        ring = np.exp(2j * math.pi * np.arange(count) / count)
        return Poly(np.poly(np.append(r * ring, s * ring))[::-1])

    def test_tie_counts_on_nearby_circles(self):
        # |a_0| = |a_d| whenever the zeros' moduli multiply to 1; a tie
        # counts on |z| = 1 -+ 1e-6, and equal counts settle it
        assert zeros_in_unit_disk(Poly([1.0, -2.5, 1.0])) == 1
        assert zeros_in_unit_disk(Poly(np.poly([0.5, 2.0])[::-1])) == 1
        assert zeros_in_unit_disk(self.circles(30, 0.9, 1 / 0.9)) == 30
        # the counts differ across a zero on the circle, and 25 zeros on
        # |z| = 0.5 and 25 on |z| = 2 tie on the nearby circles too
        for p in (Poly([-1.0, 1.0]), Poly([1.0, -2.0, 1.0]),
                  self.circles(25, 0.5, 2.0)):
            with pytest.raises(BoundaryDegenerateError):
                zeros_in_unit_disk(p)

    def test_ties_against_companion_matrix(self):
        # random zeros whose moduli multiply to 1, at least 0.01 from the
        # unit circle: every one ties at the first step
        rng = np.random.default_rng(5)
        checked = 0
        while checked < 200:
            deg = int(rng.integers(2, 9))
            mods = np.exp(rng.uniform(-1, 1, deg))
            mods[-1] = 1 / np.prod(mods[:-1])
            if np.min(np.abs(mods - 1)) < 1e-2:
                continue
            zs = mods * np.exp(1j * rng.uniform(0, 2 * math.pi, deg))
            c = np.poly(zs)[::-1] * complex(*rng.normal(size=2))
            want = int(np.sum(np.abs(np.roots(c[::-1])) < 1))
            assert zeros_in_unit_disk(Poly(c)) == want, c
            checked += 1

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
        # each reduction about squares the coefficients' size: these overflow
        # (a warning, an error here) or underflow to the zero polynomial
        # unless each step is scaled
        rng = np.random.default_rng(1)
        hard = []
        for deg in (12, 20, 40, 80):
            c = rng.normal(size=deg + 1) + 1j * rng.normal(size=deg + 1)
            c[-1] = 10
            hard.append(c)

        def ring(count, r, start):
            return r * np.exp(1j * (start + 2 * math.pi * np.arange(count) / count))

        hard.append(np.poly(ring(30, 0.9, 0.1))[::-1])
        hard.append(np.poly(np.append(ring(25, 0.5, 0.1), ring(25, 2.5, 0.3)))[::-1])
        for c in hard:
            want = int(np.sum(np.abs(np.roots(c[::-1])) < 1))
            assert zeros_in_unit_disk(Poly(c)) == want, len(c) - 1


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

    @pytest.mark.parametrize("max_radius", [0.05, 0.01])
    def test_max_radius_range(self, max_radius):
        # the radii run from 0.05 out to max_radius, so more than one needs
        # max_radius above 0.05, and the message says so; one radius is
        # max_radius itself.  The default radii keep their bits
        with pytest.raises(ParameterError, match=r"\(0\.05, 0\.999\] for 60 radii"):
            default_grid(60, 720, max_radius=max_radius)
        assert default_grid(1, 720, max_radius=max_radius).radii == (max_radius,)
        r = default_grid().radii
        assert (r[0], r[29], r[-2], r[-1]) == (
            0.050000000000000044, 0.967333940524787, 0.9988767669035388, 0.999)

    @pytest.mark.parametrize("max_radius", [0.05 + 1e-15, 0.05000000000000001])
    def test_max_radius_too_close_to_the_inner_radius(self, max_radius):
        # 60 geometric gaps between 0.95 and 1 - max_radius lie closer than
        # one ulp, so neighbouring radii round to the same float; the message
        # names that, not the increasing-radii check of GridSpec
        with pytest.raises(ParameterError, match="round to the same float"):
            default_grid(60, 720, max_radius=max_radius)
        r = default_grid(60, 720, max_radius=0.05 + 1e-12).radii
        assert len(r) == 60 and r[-1] == 0.05 + 1e-12

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
        ring = antipodal_ring(360)
        want = []
        for r in grid.radii:
            mod = convolution._ring_moduli(spec, (r,), 360)[1][0]
            want += [(complex(r * ring[k]), float(mod[k]))
                     for k in np.flatnonzero(mod >= 1)]
        got = scan_dilatation(spec, grid).violations
        assert want and got == want
        assert all(type(z) is complex and type(m) is float for z, m in got)

    @pytest.mark.parametrize("right", [
        make_mapping("Fn", n=10, theta=-math.pi / 2),
        make_mapping("Fn", n=3, theta=math.pi / 4)], ids=["n10", "n3"])
    def test_row_split_is_a_memory_choice_only(self, right, monkeypatch):
        # the scan asks for blocks of whole rows, at most 8,192 nodes a
        # call (test_blocks_give_the_row_by_row_bits); one call on the whole
        # grid finds the same argmax and violating nodes.  Its moduli agree
        # to rounding only: on arrays of 256 KiB and more numpy reuses
        # temporaries in place, and c * x for a complex scalar c then runs
        # as x * c, whose loop can round differently in the last bit
        spec = ConvolutionSpec(0.7, right)
        grid = default_grid()
        K = grid.angles_count
        with monkeypatch.context() as m:  # the whole grid in one call
            m.setattr(_core, "_BLOCK", len(grid.radii) * K)
            z, M = (x.ravel() for x in convolution._ring_moduli(spec, grid.radii, K))
        assert np.isfinite(M).all()
        rep = scan_dilatation(spec, grid)
        assert rep.argmax == complex(z[np.argmax(M)])
        assert rep.max_modulus == pytest.approx(M.max(), rel=1e-13)
        vio = np.flatnonzero(M >= 1)
        got_z, got_m = zip(*rep.violations)
        assert list(got_z) == z[vio].tolist() and rep.critical_points == []
        assert np.allclose(got_m, M[vio], rtol=1e-13, atol=0)

    @staticmethod
    def assert_row_by_row_bits(spec, grid):
        # the report against one _ring_moduli call per row, bit for bit
        K = grid.angles_count
        z = np.multiply.outer(grid.radii, antipodal_ring(K))
        M = np.concatenate([convolution._ring_moduli(spec, (r,), K)[1][0]
                            for r in grid.radii])
        z = z.ravel()
        rep = scan_dilatation(spec, grid)
        assert np.isfinite(M).all() and rep.critical_points == []
        k = int(np.argmax(M))
        assert rep.max_modulus == M[k] and rep.argmax == z[k]
        vio = np.flatnonzero(M >= 1)
        assert rep.violations == list(zip(z[vio].tolist(), M[vio].tolist()))

    @pytest.mark.parametrize("right", [
        make_mapping("Fn", n=3, theta=math.pi / 4),
        make_mapping("Fn", n=10, theta=-math.pi / 2),
        make_mapping("F1", theta=math.pi / 6)], ids=["n3", "n10", "f1"])
    def test_blocks_give_the_row_by_row_bits(self, right):
        # the scan sends blocks of whole rows, at most 8,192 nodes a call.
        # One call on the whole default grid moves the last bits of 8,474,
        # 177 and 8,400 of these moduli (numpy reuses temporaries in place
        # from 16,384 complex nodes up); 32,768-node blocks fail both Fn cases
        self.assert_row_by_row_bits(ConvolutionSpec(0.7, right), default_grid())

    @pytest.mark.parametrize("grid, shapes", [
        (default_grid(), [(11, 720)] * 5 + [(5, 720)]),
        (default_grid(25, 720), [(11, 720), (11, 720), (3, 720)]),
        (GridSpec((0.5, 0.9, 0.99), 20000), [(1, 20000)] * 3),
        (default_grid(angles_count=1), [(60, 1)]),
    ], ids=["default", "25-radii", "rows-past-the-bound", "one-angle"])
    def test_scan_blocks(self, grid, shapes, monkeypatch):
        # whole rows per call, up to 8,192 nodes; a longer row goes alone
        seen = []

        def spy(a, t, z, g=None):
            seen.append(z.shape)
            return _derivatives(a, t, z, g)

        spec = ConvolutionSpec(0.5, make_mapping("Fn", n=2, theta=math.pi))
        with monkeypatch.context() as m:
            m.setattr(convolution, "_derivatives", spy)
            scan_dilatation(spec, grid)
        assert seen == shapes
        self.assert_row_by_row_bits(spec, grid)

    @pytest.mark.parametrize("right", [
        make_mapping("F1", theta=math.pi - 1e-6), make_mapping("F0")],
        ids=["F1-near-pi", "F0"])
    def test_scan_moduli_are_conv_dilatations(self, right, monkeypatch):
        # with no orbit the scan's half-ring route has the point route's bits
        # at every node (test_no_orbit_matches_bit_for_bit, end to end).
        # conv_dilatation takes one grid row a call: on 16,384 nodes and more
        # numpy reuses temporaries in place and the last bits may move
        spec, grid, seen = ConvolutionSpec(0.5, right), default_grid(), []

        def spy(*args):
            seen.append(convolution._ring_moduli(*args))
            return seen[-1]

        monkeypatch.setattr(analysis, "_ring_moduli", spy)
        rep = scan_dilatation(spec, grid)
        (z, M), = seen
        want = np.array([np.abs(conv_dilatation(spec, row)) for row in z])
        assert M.shape == (len(grid.radii), grid.angles_count)
        assert M.tobytes() == want.tobytes()
        k = np.unravel_index(np.argmax(want), want.shape)
        assert rep.max_modulus == want[k] and rep.argmax == z[k]

    def test_ring_moduli_builds_the_scan_rings(self, monkeypatch):
        # the nodes are the scan formula's, bit for bit, and a ring longer
        # than the 8,192-node block goes to the kernel alone
        seen = []

        def spy(a, t, z, g=None):
            seen.append((z.shape, g))
            return _derivatives(a, t, z, g)

        monkeypatch.setattr(convolution, "_derivatives", spy)
        spec = ConvolutionSpec(0.5, make_mapping("Fn", n=4, theta=math.pi / 4))
        radii, K = (0.5, 0.9, 0.99), 20000
        z, M = convolution._ring_moduli(spec, radii, K)
        want = np.multiply.outer(radii, antipodal_ring(K))
        assert z.tobytes() == want.tobytes()
        assert seen == [((1, K), 4)] * 3 and M.shape == (3, K)

    def test_json_matches_the_indenting_encoder(self):
        # to_json writes the violations from a template and numpy: byte for
        # byte what json.dumps(indent=2) writes, NaN and Infinity included
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
            # one entry and two: the first, the last and the joining pieces
            UnivalencyReport(2, 0.5 + 0j, [(0.25 - 0.25j, 2)], grid, []),
            UnivalencyReport(2, None, [(0j, math.nan), (-0.5j, math.inf)],
                             grid, []),
            # every layout of _text.json_floats, 10^-6 to 10^12 and both
            # signs, and values it leaves to json: a tie, a power of two,
            # 12 digits, out of range, next to a round-trip boundary
            UnivalencyReport(2, None, [
                (complex(s * 1.2345678901234567 * 10.0 ** e,
                         -s * 7.0000000000003 * 10.0 ** e),
                 s * 9.876543210987654 * 10.0 ** e)
                for e in range(-6, 13) for s in (1, -1)] + [
                (complex(1 + 2 ** -17, 2.0 ** 40), 123456789012.0),
                (complex(0.10001178122473629, 1e-7), 1.000026970635154)],
                grid, []),
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

    @pytest.mark.parametrize("limit", ["pi-theta", "-theta", "pi", "0"])
    def test_beside_the_limit_angles(self, limit):
        # t = pi - theta is J's zero, where cos(s/2) -> 0; a rounded s =
        # theta + t cost it about 1e-16/|pi - s| there (2.1e-5 relative at
        # theta = 0.7, 1e-11 away), and near s = 0, 2 pi the same rounding
        # hurt as theta -> +-pi, where two limit angles sit side by side
        checked = 0
        for theta in (0.7, -2, 3, math.pi - 1e-3, -math.pi + 1e-3,
                      math.pi - 1e-6, -math.pi + 1e-8, math.pi - 1e-10, 1e-9):
            x = {"pi-theta": math.pi - theta, "-theta": -theta,
                 "pi": math.pi, "0": 0.0}[limit]
            for k in (3, 6, 9, 11):
                for sign in (1, -1):
                    t = (x + sign * 10.0 ** -k) % (2 * math.pi)
                    r = J_boundary(theta, t)
                    if r.case.startswith("limit"):
                        continue
                    want = J_closed_form(theta, t)
                    assert abs(r.value - want) <= 1e-13 * abs(want), (theta, t)
                    checked += 1
        assert checked >= 40


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
    @classmethod
    def routes(cls, spec, radii, K, starts=0.0):
        """omega on the rings of ``stack``, one ring a row, by the ring
        route, one ``_derivatives`` call a row with g = gcd(n, K), and by
        conv_derivatives, after checking that one ring-route call on the
        stack equals one call a row bit for bit with no critical node, and,
        on rings that start at angle 0, that ``_ring_moduli`` gives the same
        nodes and moduli."""
        z = cls.stack(radii, K, starts)
        t = term_table(spec.right)
        g = math.gcd(t.n, K)
        w = np.empty_like(z)
        for i, row in enumerate(z):
            Hp, Gp = _derivatives(spec.a, t, row, g)
            w[i] = Gp / Hp
        assert np.array_equal(convolution._ratio(*_derivatives(spec.a, t, z, g)), w)
        if not np.any(starts):
            nodes, mod = convolution._ring_moduli(spec, radii, K)
            assert np.array_equal(nodes, z) and np.array_equal(mod, np.abs(w))
        Hp0, Gp0 = conv_derivatives(spec, z)
        return w, Gp0 / Hp0

    @staticmethod
    def stack(radii, K, starts=0.0):
        """The rings radii[i] e^{i starts[i]} e^{2 pi i k/K}, k < K, as rows."""
        ring = antipodal_ring(K)
        return np.multiply.outer(np.multiply(radii, np.exp(1j * np.asarray(starts))),
                                 ring)

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 9, 10, 12, 15, 40])
    @pytest.mark.parametrize("theta", [math.pi, math.pi - 1e-6, 0.7],
                             ids=["pi", "near-pi", "general"])
    def test_ring_route_matches_conv_derivatives(self, n, theta):
        # K = 720 and 1440 give g = n for most n, 100 gives 1 < g < n for
        # n = 12, 15, 40, and the prime 97 gives g = 1; the second stack's
        # rows start at different angles, as rotated rings do
        radii = (0.05, 0.5, 0.99, 0.999)
        for K in (720, 1440, 100, 97):
            for starts in (0.0, (0.3, -1.1, 2.9, 0.01)):
                for a in (0.5, -0.5):
                    spec = ConvolutionSpec(a, make_mapping("Fn", n=n, theta=theta))
                    w, w0 = self.routes(spec, radii, K, starts)
                    err = np.abs(w - w0) / np.maximum(1, np.abs(w0))
                    assert np.max(err) <= 1e-12, (K, starts, a)

    def test_stacked_rings_rotate_within_rows(self):
        # with g = 2 each class's E is rotated by K/2 nodes, within its own
        # ring: a (2, 720) stack whose rows start at different angles gives
        # the rows' values bit for bit
        spec = ConvolutionSpec(0.5, make_mapping("Fn", n=2, theta=0.7))
        t = term_table(spec.right)
        z = self.stack((0.5, 0.99), 720, (0.3, -1.1))
        Hp, Gp = _derivatives(spec.a, t, z, 2)
        rows = [_derivatives(spec.a, t, row, 2) for row in z]
        assert np.array_equal(Hp, [h for h, _ in rows])
        assert np.array_equal(Gp, [g for _, g in rows])

    @pytest.mark.parametrize("n", [3, 10, 40])
    def test_window_stack_of_rotated_rings(self, n):
        # 49 n-node rings of one circle, rotated in steps of (1 - r)/2 about
        # a pole's angle, as one stack: K = n, so g = n and K/g = 1
        r = 0.99
        for a in (0.5, -0.99):
            spec = ConvolutionSpec(a, make_mapping("Fn", n=n, theta=0.7))
            pole = np.angle(term_table(spec.right).sing[1])
            starts = pole + (1 - r) / 2 * np.arange(-24, 25)
            w, w0 = self.routes(spec, np.full(49, r), n, starts)
            err = np.abs(w - w0) / np.maximum(1, np.abs(w0))
            assert np.max(err) <= 1e-12, a

    @pytest.mark.parametrize("right", [
        make_mapping("F0"), make_mapping("F1", theta=math.pi / 6),
        make_mapping("F1", theta=math.pi - 1e-6)], ids=["F0", "F1", "F1-near-pi"])
    def test_no_orbit_matches_bit_for_bit(self, right):
        for K in (720, 1440, 97):
            for a in (0.5, -0.5):
                w, w0 = self.routes(ConvolutionSpec(a, right), (0.05, 0.5, 0.999), K)
                assert np.array_equal(w, w0)

    @staticmethod
    def atanh_sizes(monkeypatch, evaluate, *args):
        """The sizes of the ``_atanh_rest`` calls of evaluate(*args)."""
        sizes = []
        rest = mappings._atanh_rest

        def spy(y):
            sizes.append(np.size(y))
            return rest(y)

        monkeypatch.setattr(mappings, "_atanh_rest", spy)
        evaluate(*args)
        return sizes

    @pytest.mark.parametrize("n", [2, 15, 40])
    def test_pi_ring_takes_half_an_atanh_row_per_node(self, n, monkeypatch):
        # at theta = pi the pair's root 1 - d is 1, the r = 1 log's root, so
        # with n | K the whole lone-log sum is one class: one E row, and E
        # is even, so on an even ring it is taken on the first K/2 nodes
        spec = ConvolutionSpec(0.5, make_mapping("Fn", n=n, theta=math.pi))
        sizes = self.atanh_sizes(monkeypatch, convolution._ring_moduli, spec,
                                 (0.9,), 720)
        assert sum(sizes) == 360

    @pytest.mark.parametrize("right, total", [
        (make_mapping("F1", theta=math.pi / 6), 360),
        (make_mapping("Fn", n=3, theta=math.pi / 4), 1080),
        (make_mapping("Fn", n=10, theta=-math.pi / 2), 1080)],
        ids=["F1", "n3", "n10"])
    def test_even_ring_takes_every_atanh_row_on_half(self, right, total,
                                                      monkeypatch):
        # on a 720-node ring the pair, the r = 1 log and the one rotation
        # class each take E on the first 360 nodes only
        sizes = self.atanh_sizes(monkeypatch, convolution._ring_moduli,
                                 ConvolutionSpec(0.5, right), (0.9,), 720)
        assert set(sizes) == {360} and sum(sizes) == total

    @pytest.mark.parametrize("K", [720, 1440, 8192, 20000, 97, 45])
    def test_unit_ring_is_antipodal(self, K):
        # an even ring's second half is its first negated, exactly, and its
        # first half is the exp formula's; an odd ring is the formula's
        ring = convolution._unit_ring(K)
        want = np.exp(2j * math.pi * np.arange(K) / K)
        if K % 2:
            assert ring.tobytes() == want.tobytes()
            return
        assert ring[K // 2:].tobytes() == (-ring[:K // 2]).tobytes()
        assert ring[:K // 2].tobytes() == want[:K // 2].tobytes()
        assert np.max(np.abs(ring - want)) <= 2e-15

    def test_odd_ring_takes_whole_atanh_rows(self, monkeypatch):
        # node k + K/2 exists only for even K: n = 15 on a 45-node ring keeps
        # its one class's E row on every node, and still matches term by term
        z = self.stack((0.5, 0.99), 45, (0.3, -1.1))
        spec = ConvolutionSpec(-0.2, make_mapping("Fn", n=15, theta=math.pi))
        t = term_table(spec.right)
        sizes = self.atanh_sizes(monkeypatch, _derivatives, spec.a, t, z,
                                 math.gcd(t.n, 45))
        assert sum(sizes) == 90
        w, w0 = self.routes(spec, (0.5, 0.99), 45, (0.3, -1.1))
        assert np.max(np.abs(w - w0) / np.maximum(1, np.abs(w0))) <= 1e-12

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


class TestOrbitCache:
    # odd_rests takes Fn's orbit data from the term table at any points and
    # from mappings._ring_orbit on rings, built once per (spec, g, half) and
    # cached; built afresh on every call they give the same bits.  n = 12
    # and 15 on K = 720, 100, 98, 97 and 45 take g = 1, a proper divisor of
    # n, and g = n, on rings of even and odd K
    KS = (720, 100, 98, 97, 45)
    SPECS = {
        "n12-theta0.7-a0.5": ConvolutionSpec(0.5, make_mapping("Fn", n=12, theta=0.7)),
        "n12-theta2.1-a0.5": ConvolutionSpec(0.5, make_mapping("Fn", n=12, theta=2.1)),
        "n12-theta0.7-a-0.3": ConvolutionSpec(-0.3, make_mapping("Fn", n=12, theta=0.7)),
        "n15-pi-a0.5": ConvolutionSpec(0.5, make_mapping("Fn", n=15, theta=math.pi)),
        "n15-theta-2-a0.5": ConvolutionSpec(0.5, make_mapping("Fn", n=15, theta=-2.0)),
    }

    @classmethod
    def outputs(cls, spec):
        """Stacks of rings, a (2, 2, K) stack of rotated rings, the jets
        at 1 and 5 points and the dilatation at a point and at 50."""
        t = term_table(spec.right)
        out = []
        for K in cls.KS:
            out.append(convolution._ring_moduli(spec, (0.3, 0.9, 0.999), K)[1])
            z = TestRingRoute.stack((0.5, 0.99, 0.9, 0.3), K, (0.3, -1.1, 2.0, 0.0))
            out.append(_derivatives(spec.a, t, z.reshape(2, 2, K), math.gcd(t.n, K)))
        z = 0.97 * np.exp(1j * np.linspace(0.1, 6, 50))
        out += [convolution._log_jets(spec, z[:1]), convolution._log_jets(spec, z[::10]),
                conv_dilatation(spec, 0.5 + 0.3j), conv_dilatation(spec, z)]
        return out

    def test_cached_orbit_gives_the_bits_of_a_fresh_one(self, monkeypatch):
        def fresh_ring_orbit(spec, g, half):
            t = mappings.term_table.__wrapped__(spec)
            return mappings._orbit(t.c, t.r, t.d, g, half)

        with monkeypatch.context() as m:
            m.setattr(mappings, "_ring_orbit", fresh_ring_orbit)
            fresh = {k: self.outputs(s) for k, s in self.SPECS.items()}
        for k, spec in self.SPECS.items():
            mappings.term_table.cache_clear()
            mappings._ring_orbit.cache_clear()
            cold = self.outputs(spec)  # the table and each plan built on first use
            warm = self.outputs(spec)  # all from the caches
            assert mappings._ring_orbit.cache_info().currsize == len(self.KS)
            for want, c, w in zip(fresh[k], cold, warm):
                assert np.array_equal(c, want) and np.array_equal(w, want), k
        # the specs one after another, each reading the plans the one before
        # left: those of another theta are their own, those of another a
        # the same right factor's
        for _ in range(2):
            for k, spec in self.SPECS.items():
                for want, got in zip(fresh[k], self.outputs(spec)):
                    assert np.array_equal(got, want), k
        one, other, same = (self.SPECS[k].right for k in (
            "n12-theta0.7-a0.5", "n12-theta2.1-a0.5", "n12-theta0.7-a-0.3"))
        plan = mappings._ring_orbit(one, 12, True)
        assert plan is mappings._ring_orbit(same, 12, True)
        assert not np.array_equal(plan[1], mappings._ring_orbit(other, 12, True)[1])

    def test_orbit_data_is_read_only(self):
        spec = self.SPECS["n12-theta0.7-a0.5"].right
        plans = [mappings._ring_orbit(spec, g, half)
                 for g, half in ((12, True), (4, True), (3, False))]
        for data in [term_table(spec).orbit, *plans]:
            for array in data:
                with pytest.raises(ValueError):
                    array[0] = 0

    def test_radius_builds_each_plan_once(self, monkeypatch):
        # the search's rings (K = 1440, g = n) share one plan, and its
        # Newton points read the table's
        spec = ConvolutionSpec(0.0, make_mapping("Fn", n=40, theta=math.pi))
        ring_moduli, count = analysis._ring_moduli, []

        def counting(*args):
            count.append(1)
            return ring_moduli(*args)

        monkeypatch.setattr(analysis, "_ring_moduli", counting)
        mappings.term_table.cache_clear()
        mappings._ring_orbit.cache_clear()
        univalency_radius(spec, 1e-6)
        rings = mappings._ring_orbit.cache_info()
        assert len(count) >= 5
        assert rings.misses == 1 and rings.hits == len(count) - 1
        assert mappings.term_table.cache_info().misses == 1


class TestRadius:
    def test_univalent_family_fills_disk(self):
        spec = ConvolutionSpec(0.5, make_mapping("F1", theta=math.pi / 6))
        assert univalency_radius(spec, 1e-6) == 1.0

    def test_known_violating_case(self):
        spec = ConvolutionSpec(0.5, make_mapping("Fn", n=2, theta=math.pi))
        r = univalency_radius(spec, 1e-6)
        assert r < 0.99
        # regression: the tangency lies at 0.9662076166
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

        for name in ("_ring_moduli", "_log_jets"):
            monkeypatch.setattr(analysis, name, counting(getattr(analysis, name)))
        ring = antipodal_ring(1440)  # its ring
        z, mod = analysis._ring_moduli(spec, (0.99,), 1440)
        assert np.array_equal(z, [0.99 * ring])
        top = np.max(mod)
        calls.clear()
        assert top >= 1 and analysis._circle_max(spec, 0.99) == top
        assert calls == ["_ring_moduli"]  # the ring alone
        top = np.max(analysis._ring_moduli(spec, (0.9,), 1440)[1])
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

    @pytest.mark.parametrize("a,n,theta", [
        (0.5, 2, math.pi), (-0.2, 15, math.pi), (0.7, 10, -math.pi / 2),
        (0.0, 40, math.pi)], ids=["n2-pi", "n15-pi", "n10-minus-half-pi",
                                   "n40-pi"])
    def test_returned_circle_passes_circle_max(self, a, n, theta):
        # the benchmark's Fn radii: the search takes circles whose ring
        # tops out below 0.9 unrefined, but the circle it returns passes the
        # refined test, and the one tol outside it fails
        spec = ConvolutionSpec(a, make_mapping("Fn", n=n, theta=theta))
        r = univalency_radius(spec, 1e-6)
        assert analysis._circle_max(spec, r) < 1 <= analysis._circle_max(spec, r + 1e-6)

    def test_ring_scales_with_n(self):
        # a 1,440-node ring has 1.4 nodes a period 2 pi/n of z^n at n = 1024
        # and gave r = 0.9996611680, where this check reads 1.000009; the
        # search's ring has 8n nodes.  Checked term by term on 1,025 nodes
        # across the two ring steps about the top of that ring
        spec = ConvolutionSpec(0.5, make_mapping("Fn", n=1024, theta=math.pi))
        tol, K = 1e-6, 8192
        r = univalency_radius(spec, tol)

        def arc_max(rho):
            k = np.argmax(convolution._ring_moduli(spec, (rho,), K)[1])
            t = 2 * math.pi / K * (k + np.linspace(-1, 1, 1025))
            Hp, Gp = conv_derivatives(spec, rho * np.exp(1j * t))
            return np.max(np.abs(Gp / Hp))

        assert arc_max(r) < 1 <= arc_max(r + tol)

    @staticmethod
    def ring_and_arcs_max(spec, rho, peaks=8):
        """max |Gp/Hp| on |z| = rho: a 2^19-node ``_ring_moduli`` ring, then
        257 nodes by public conv_derivatives across the two ring steps about
        each of its top local maxima."""
        K = 2 ** 19
        m = convolution._ring_moduli(spec, (rho,), K)[1][0]
        wrapped = np.concatenate((m[-1:], m, m[:1]))
        k = np.flatnonzero((m >= wrapped[:-2]) & (m > wrapped[2:]))
        k = k[np.argsort(m[k])[-peaks:]]
        t = 2 * math.pi / K * (k[:, None] + np.linspace(-1, 1, 257))
        Hp, Gp = conv_derivatives(spec, rho * np.exp(1j * t.ravel()))
        return max(np.max(m), np.max(np.abs(Gp / Hp)))

    @pytest.mark.parametrize("a,n,theta", [
        (-0.5, 512, 2.0), (0.0, 512, 2.0), (-0.5, 256, 2.0),
        (-0.99, 3, math.pi), (-0.9919908894416408, 2, -0.6221618858265954)],
        ids=["n512-a-0.5", "n512-a0", "n256-a-0.5", "n3-pi-a-0.99",
             "n2-a-0.992"])
    def test_large_n_radius_against_dense_ring(self, a, n, theta):
        # three clipped Newton steps a peak stopped short of the first three
        # circles' peaks, and returned 0.9993273388, 0.9993240230 and
        # 0.9986631273, on whose circles the oracle reads up to 1.0000787;
        # the next, near a -> -1, is ROADMAP item 2's first reproducer, whose
        # radius circle reads 0.99999998 and tol outside it 1.001664.  The
        # last is of the same kind and ends in the fallback bisection: after
        # a regula falsi bracket it returned 0.9973543114, whose circle
        # reads 1.0914; after the bisection in log(1 - r), whose tangency
        # candidate fails its circle, it bisects from 0 to 0.9969886212,
        # which reads 0.99986, and 1.00008 tol outside it
        spec = ConvolutionSpec(a, make_mapping("Fn", n=n, theta=theta))
        tol = 1e-6
        r = univalency_radius(spec, tol)
        assert self.ring_and_arcs_max(spec, r) < 1
        assert self.ring_and_arcs_max(spec, r + tol) >= 1

    # the benchmark's Fn radius ops and the cases above, with the radius the
    # search returned before it solved for the tangency
    TANGENT_CASES = {
        "n2-pi": (0.5, 2, math.pi, 0.9662072808752474),
        "n15-pi": (-0.2, 15, math.pi, 0.9803354794814744),
        "n10-minus-half-pi": (0.7, 10, -math.pi / 2, 0.9631947532835127),
        "n40-pi": (0.0, 40, math.pi, 0.991475744432064),
        "n2-half-pi": (-0.5, 2, math.pi / 2, 0.9234471894209754),
    }

    @pytest.mark.parametrize("case", list(TANGENT_CASES))
    def test_tangency_against_mpmath(self, monkeypatch, case):
        # at the tangency (r*, t*) the search returns r* - _MARGIN from,
        # |omega| = 1 to 1e-12 and d/dt log |omega| = 0 to 1e-10, by mpmath
        # quadrature of the odd quotients: Hp = (1-a)/4 int_{-1}^{1} h'(sz) ds
        # + (1+a)/2 h'(z) and Gp the same with g' and the first term negated,
        # h' = 1/((1 + u z^n)(1 - z)^2) and g' = u z^n h'.  The radius lies
        # in [old, old + tol]
        mp = pytest.importorskip("mpmath")
        a, n, theta, old = self.TANGENT_CASES[case]
        spec = ConvolutionSpec(a, make_mapping("Fn", n=n, theta=theta))
        found, tangency = [], analysis._tangency

        def recording(*args):
            found.append(tangency(*args))
            return found[-1]

        monkeypatch.setattr(analysis, "_tangency", recording)
        r = univalency_radius(spec, 1e-6)
        rs, ts = found[-1]
        assert r == rs - analysis._MARGIN and old <= r <= old + 1e-6
        with mp.workdps(20):
            u, aa = mp.expj(theta), mp.mpf(a)

            def log_modulus(t):
                z = rs * mp.expj(t)

                def hp(w):
                    return 1 / ((1 + u * w ** n) * (1 - w) ** 2)

                Dh = mp.quad(lambda s: hp(s * z), [-1, 0, 1])
                Dg = mp.quad(lambda s: u * (s * z) ** n * hp(s * z),
                             [-1, 0, 1])
                Hp = (1 - aa) / 4 * Dh + (1 + aa) / 2 * hp(z)
                Gp = -(1 - aa) / 4 * Dg + (1 + aa) / 2 * u * z ** n * hp(z)
                return mp.log(abs(Gp / Hp))

            assert abs(mp.exp(log_modulus(mp.mpf(ts))) - 1) <= 1e-12
            assert abs(mp.diff(log_modulus, mp.mpf(ts))) <= 1e-10

    # the radii of the benchmark's Fn radius ops and of cases above, as the
    # search that ran bracket, tangency and fallback in one loop returned
    PINNED = {
        "n2-pi": (0.5, 2, math.pi, 0.9662076166298442),
        "n15-pi": (-0.2, 15, math.pi, 0.9803357930338261),
        "n10-minus-half-pi": (0.7, 10, -math.pi / 2, 0.9631949096989483),
        "n40-pi": (0.0, 40, math.pi, 0.9914757462508254),
        "n2-half-pi": (-0.5, 2, math.pi / 2, 0.9234471894355462),
        "n512-a-0.5": (-0.5, 512, 2.0, 0.9993272936896674),
        "n512-a0": (0.0, 512, 2.0, 0.999323983814854),
    }

    @pytest.mark.parametrize("case", list(PINNED))
    def test_radius_pinned(self, case):
        a, n, theta, pinned = self.PINNED[case]
        spec = ConvolutionSpec(a, make_mapping("Fn", n=n, theta=theta))
        assert abs(univalency_radius(spec, 1e-6) - pinned) <= 1e-13

    # ROADMAP item 2: the outer ring tops out at 1.012 and no seed of
    # it converges, so the search bisects on refined circles, which miss
    # the narrow peak next to a pole; the only real factor known to do so
    FALLBACK = ConvolutionSpec(-0.99878, make_mapping("Fn", n=7, theta=0.7071))

    def test_fallback_keeps_its_contract(self):
        # the refined circles: r passes and r + tol fails
        spec, tol = self.FALLBACK, 1e-6
        mod = analysis._ring(spec, analysis.OUTER_RADIUS)
        lo, hi, mod = analysis._bracket(spec, mod, tol)
        assert hi - lo > tol and analysis._tangency(spec, hi, mod) is None
        r = univalency_radius(spec, tol)
        inside, outside = (analysis._circle_max(spec, r),
                           analysis._circle_max(spec, r + tol))
        assert inside < 1 <= outside
        assert inside == pytest.approx(0.99972, abs=1e-5)
        assert outside == pytest.approx(1.00049, abs=1e-5)

    # the same fault on two more factors, near a = -1 and a = +1: their
    # radii's circles read 1.4919 and 1.000016 on the dense ring
    @pytest.mark.xfail(strict=True, reason="ROADMAP item 2: the ring and the "
                       "refined circles miss a narrow peak")
    @pytest.mark.parametrize("spec", [
        FALLBACK,
        ConvolutionSpec(-0.998978513786631,
                        make_mapping("Fn", n=18, theta=2.6369375997970117)),
        ConvolutionSpec(0.9988800475068609,
                        make_mapping("Fn", n=31, theta=0.5423663805371146))],
        ids=["n7", "n18", "n31"])
    def test_fallback_radius_against_dense_ring(self, spec):
        assert self.ring_and_arcs_max(spec, univalency_radius(spec, 1e-6)) < 1

    # the outer test has the same blind spot: the search returns 1.0, while
    # the dense ring reads 2.198 on |z| = OUTER_RADIUS at t = 4.212386, by a
    # pole at -2.0708 + 2 pi (mpmath quadrature: 2.19793), and the 1,440-node
    # ring tops out at 0.99997
    @pytest.mark.xfail(strict=True, reason="ROADMAP item 2: the outer ring "
                       "and its refined peaks miss a narrow peak by a pole")
    def test_outer_radius_against_dense_ring(self):
        spec = ConvolutionSpec(-0.9999, make_mapping("Fn", n=2, theta=1.0))
        r = univalency_radius(spec, 1e-6)
        assert self.ring_and_arcs_max(spec, min(r, analysis.OUTER_RADIUS)) < 1

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


class TestCriticalPoints:
    # Hp = 0 makes omega = Gp/Hp undefined; a node with |Hp| <= CRITICAL_TOL
    # is a critical point.  Fn n=10, theta=-pi/2, a=0.7 has one in the disk.
    SPEC = ConvolutionSpec(0.7, make_mapping("Fn", n=10, theta=-math.pi / 2))

    @classmethod
    def zero_of_Hp(cls):
        z, h = complex(-0.98856615, 0.13960139), 1e-7
        for _ in range(8):  # Newton on central differences
            dH = (conv_derivatives(cls.SPEC, z + h)[0]
                  - conv_derivatives(cls.SPEC, z - h)[0]) / (2 * h)
            z -= conv_derivatives(cls.SPEC, z)[0] / dH
        assert abs(conv_derivatives(cls.SPEC, z)[0]) <= 1e-14
        return z

    def test_conv_dilatation_raises_at_the_zero(self):
        z0 = self.zero_of_Hp()
        with pytest.raises(CriticalPointError) as err:
            conv_dilatation(self.SPEC, np.array([0.5, z0, -0.3j]))
        assert err.value.point == z0

    def test_scan_row_marks_the_zero(self):
        z0 = self.zero_of_Hp()
        ring = np.exp(1j * cmath.phase(z0)) * np.exp(
            2j * math.pi * np.arange(720) / 720)
        # a ring rotated onto z0, so through the kernel (n = 10 divides 720)
        mod = np.abs(convolution._ratio(*_derivatives(
            self.SPEC.a, term_table(self.SPEC.right), abs(z0) * ring, 10)))
        crit = abs(z0) * ring[np.isinf(mod)]
        assert len(crit) == 1 and abs(crit[0] - z0) <= 1e-15
        assert np.isinf(mod[0]) and np.all(np.isfinite(mod[1:]))

    def test_every_node_critical(self, monkeypatch):
        # with every node critical the circle fails and the scan lists the
        # nodes, leaving them out of the maximum and the violations
        monkeypatch.setattr(convolution, "CRITICAL_TOL", math.inf)
        spec = ConvolutionSpec(0.5, make_mapping("Fn", n=2, theta=math.pi))
        assert analysis._circle_max(spec, 0.5) == math.inf
        grid = GridSpec((0.3, 0.6), 8)
        rep = scan_dilatation(spec, grid)
        assert math.isnan(rep.max_modulus) and rep.argmax is None
        assert len(rep.critical_points) == 16 and rep.violations == []
        back = UnivalencyReport.from_json(rep.to_json())
        assert math.isnan(back.max_modulus) and back.argmax is None
        assert back.critical_points == rep.critical_points
        assert back.violations == [] and back.grid == grid
        assert back.to_json() == rep.to_json()
