import math

import numpy as np
import pytest

from harmconv import (ConvolutionSpec, DomainError, FigureSpec, GridSpec,
                      J_boundary, MappingSpec, ParameterError, Poly, TableRow,
                      TruncatedSeries, compute_row, compute_table,
                      conv_derivatives, conv_dilatation,
                      conv_dilatation_f0, conv_parts_f1, conv_value,
                      default_grid, dilatation, eval_B, eval_h, eval_J,
                      hadamard, li2, make_mapping, render_webbing,
                      scan_dilatation, series_derivative, series_div,
                      series_eval, taylor_of_mapping, univalency_radius)
from harmconv.convolution import _log_jets
from harmconv.mappings import term_table
from harmconv.special import log_principal

RNG = np.random.default_rng(31)


def disk(count, radius):
    r = radius * np.sqrt(RNG.uniform(size=count))
    return r * np.exp(2j * math.pi * RNG.uniform(size=count))


def oracle_series(a, right, N=256):
    """Hadamard-product series of the convolved parts and their data."""
    ha, ga = taylor_of_mapping(make_mapping("Fa", a=a), N)
    hr, gr = taylor_of_mapping(right, N)
    return hadamard(ha, hr), hadamard(ga, gr)


class TestF0ClosedForm:
    def test_zero(self):
        assert conv_dilatation_f0(0.7, 0) == 0

    def test_hand_value(self):
        assert conv_dilatation_f0(0.0, 0.5) == pytest.approx(-4 / 11)

    def test_bounded_by_one(self):
        z = disk(2000, 0.999)
        for a in (-0.9, -0.4, 0.0, 0.4, 0.9):
            assert np.max(np.abs(conv_dilatation_f0(a, z))) < 1


class TestPartsF1:
    def test_origin(self):
        assert conv_parts_f1(0.5, math.pi / 6, 0) == (0, 0)

    def test_rejects_theta_pi(self):
        with pytest.raises(ParameterError):
            conv_parts_f1(0.5, math.pi, 0.3)

    def test_rejects_bad_a(self):
        with pytest.raises(ParameterError):
            conv_parts_f1(1.0, math.pi / 6, 0.3)

    @pytest.mark.parametrize("a,theta", [
        (0.5, math.pi / 6), (0.0, 0.0), (-0.6, math.pi / 3),
        (0.8, -math.pi / 2), (0.3, 5 * math.pi / 6),
    ])
    def test_against_series(self, a, theta):
        H, G = oracle_series(a, make_mapping("F1", theta=theta))
        for z in (0.4, 0.35 + 0.4j, -0.5j, -0.62 + 0.1j):
            got_h, got_g = conv_parts_f1(a, theta, z)
            assert got_h == pytest.approx(series_eval(H, z), abs=1e-12)
            assert got_g == pytest.approx(series_eval(G, z), abs=1e-12)


class TestDerivatives:
    def test_origin_normalization(self):
        for right in (make_mapping("F0"),
                      make_mapping("F1", theta=0.3),
                      make_mapping("Fn", n=3, theta=math.pi)):
            Hp, Gp = conv_derivatives(ConvolutionSpec(0.4, right), 0)
            assert Hp == pytest.approx(1.0, abs=1e-12)
            assert Gp == pytest.approx(0.0, abs=1e-12)

    def test_against_series_derivative(self):
        a = 0.5
        right = make_mapping("Fn", n=2, theta=math.pi)
        H, G = oracle_series(a, right)
        Hp, Gp = conv_derivatives(ConvolutionSpec(a, right), 0.3)
        assert Hp == pytest.approx(series_eval(series_derivative(H), 0.3), abs=1e-12)
        assert Gp == pytest.approx(series_eval(series_derivative(G), 0.3), abs=1e-12)

    def test_f0_ratio_matches_closed_form(self):
        spec = ConvolutionSpec(0.25, make_mapping("F0"))
        z = disk(300, 0.95)
        Hp, Gp = conv_derivatives(spec, z)
        assert np.max(np.abs(Gp / Hp - conv_dilatation_f0(0.25, z))) < 1e-12

    def test_small_z_branch_is_continuous(self):
        # the closed form keeps full accuracy all the way down to z = 0
        rights = (make_mapping("Fn", n=3, theta=0.8), make_mapping("F0"),
                  make_mapping("F1", theta=0.3),
                  make_mapping("Fn", n=15, theta=math.pi),
                  make_mapping("Fn", n=10, theta=-math.pi / 2))
        for right in rights:
            spec = ConvolutionSpec(-0.3, right)
            H, G = oracle_series(-0.3, right, N=16)
            for mag in (1e-12, 1e-8, 1e-6, 9e-5, 1.1e-4, 1e-2):
                for ph in (0.0, 2.1, 4.0):
                    z = mag * np.exp(1j * ph)
                    Hp, Gp = conv_derivatives(spec, z)
                    assert Hp == pytest.approx(
                        series_eval(series_derivative(H), z), abs=1e-12), right
                    assert Gp == pytest.approx(
                        series_eval(series_derivative(G), z), abs=1e-12), right


class TestDilatation:
    def test_origin(self):
        spec = ConvolutionSpec(0.5, make_mapping("Fn", n=2, theta=math.pi))
        assert conv_dilatation(spec, 0) == 0

    def test_first_table_entries(self):
        spec = ConvolutionSpec(0.5, make_mapping("Fn", n=2, theta=math.pi))
        got = abs(conv_dilatation(spec, 0.99 * np.exp(1j * math.pi / 3)))
        assert got == pytest.approx(1.06019, abs=1e-4)
        spec2 = ConvolutionSpec(0.5, make_mapping("Fn", n=2, theta=math.pi / 8))
        got2 = abs(conv_dilatation(spec2, 0.99 * np.exp(1j * math.pi / 2)))
        assert got2 == pytest.approx(1.16334, abs=1e-4)

    def test_fn1_equals_f0_form(self):
        spec = ConvolutionSpec(0.35, make_mapping("Fn", n=1, theta=math.pi))
        z = disk(1000, 0.99)
        assert np.max(np.abs(conv_dilatation(spec, z)
                             - conv_dilatation_f0(0.35, z))) < 1e-12

    def test_real_parameters_give_real_values(self):
        x = np.linspace(-0.9, 0.9, 41).astype(complex)
        for right in (make_mapping("F0"),
                      make_mapping("F1", theta=0.0),
                      make_mapping("Fn", n=2, theta=math.pi)):
            w = conv_dilatation(ConvolutionSpec(0.2, right), x)
            assert np.max(np.abs(w.imag)) < 1e-13

    def test_rejects_bad_right_family(self):
        with pytest.raises(ParameterError):
            ConvolutionSpec(0.5, make_mapping("Fa", a=0.5))
        with pytest.raises(ParameterError):
            ConvolutionSpec(1.2, make_mapping("F0"))


class TestValues:
    def test_origin(self):
        for right in (make_mapping("F1", theta=0.5),
                      make_mapping("Fn", n=2, theta=math.pi)):
            assert conv_value(ConvolutionSpec(0.1, right), 0) == 0

    def test_f1_against_series(self):
        a, th = 0.5, math.pi / 6
        H, G = oracle_series(a, make_mapping("F1", theta=th))
        spec = ConvolutionSpec(a, make_mapping("F1", theta=th))
        z = 0.5
        want = series_eval(H, z) + np.conj(series_eval(G, z))
        assert conv_value(spec, z) == pytest.approx(want, abs=1e-12)

    def test_f1_near_pi_against_series(self):
        # the series takes e^{i theta} as exactly as the closed form does,
        # so the two agree to rounding this close to theta = pi
        a, th = 0.5, math.pi - 5e-13
        right = make_mapping("F1", theta=th)
        H, G = oracle_series(a, right, N=400)
        z = 0.6 * np.exp(2j * math.pi * np.arange(9) / 9)
        want = series_eval(H, z) + np.conj(series_eval(G, z))
        got = conv_value(ConvolutionSpec(a, right), z)
        assert np.max(np.abs(got - want)) < 1e-13

    def test_real_axis_symmetry(self):
        spec = ConvolutionSpec(0.0, make_mapping("F1", theta=0.0))
        x = np.linspace(-0.7, 0.7, 15).astype(complex)
        vals = conv_value(spec, x)
        assert np.max(np.abs(vals.imag)) < 1e-12

    def test_quadrature_against_series(self):
        a = 0.5
        right = make_mapping("Fn", n=2, theta=math.pi)
        H, G = oracle_series(a, right, N=300)
        spec = ConvolutionSpec(a, right)
        for z in (0.6, 0.3 + 0.45j, -0.7j, -0.55 + 0.2j):
            want = series_eval(H, z) + np.conj(series_eval(G, z))
            assert conv_value(spec, z) == pytest.approx(want, abs=1e-9)
        # out to |z| = 0.95, where the series needs ~2000 terms
        zs = np.array([0.6, 0.3 + 0.45j, -0.95, 0.95j, 0.95 * np.exp(0.4j),
                       0.95 * np.exp(-2.5j)])
        for right in (make_mapping("F0"), make_mapping("Fn", n=15, theta=math.pi)):
            H, G = oracle_series(a, right, N=2000)
            want = series_eval(H, zs) + np.conj(series_eval(G, zs))
            got = conv_value(ConvolutionSpec(a, right), zs)
            assert np.max(np.abs(got - want)) < 1e-9, right

    def test_quadrature_general_theta(self):
        a = -0.4
        right = make_mapping("Fn", n=3, theta=math.pi / 5)
        H, G = oracle_series(a, right, N=300)
        spec = ConvolutionSpec(a, right)
        z = 0.45 - 0.3j
        want = series_eval(H, z) + np.conj(series_eval(G, z))
        assert conv_value(spec, z) == pytest.approx(want, abs=1e-9)
        right = make_mapping("Fn", n=10, theta=-math.pi / 2)
        H, G = oracle_series(a, right, N=2000)
        zs = np.array([z, 0.95, -0.95j, 0.95 * np.exp(2.2j), 0.9 * np.exp(-0.3j)])
        want = series_eval(H, zs) + np.conj(series_eval(G, zs))
        got = conv_value(ConvolutionSpec(a, right), zs)
        assert np.max(np.abs(got - want)) < 1e-9

    def test_radius_cap(self):
        spec = ConvolutionSpec(0.5, make_mapping("F1", theta=0.5))
        with pytest.raises(DomainError):
            conv_value(spec, 0.9995)


@pytest.mark.parametrize("n", [1, 2, 3, 8])
def test_continuous_through_theta_pi(n):
    # theta = pi - eps and -pi + eps, eps down to 0 (F0 for n = 1), against
    # the series route: |w| as the quotient of the series derivatives, and
    # the values
    zs = np.array([0.3 + 0.2j, -0.6j, 0.9 * np.exp(0.7j),
                   0.95 * np.exp(-2.4j), 0.95])
    for a in (0.5, -0.5):
        for eps in [10.0 ** -k for k in range(2, 13, 2)] + [0.0]:
            for theta in (math.pi - eps, -math.pi + eps):
                if n > 1:
                    right = make_mapping("Fn", n=n, theta=theta)
                else:
                    right = make_mapping("F1", theta=theta) if eps else \
                        make_mapping("F0")
                spec = ConvolutionSpec(a, right)
                H, G = oracle_series(a, right, N=2000)
                want = np.abs(series_eval(series_derivative(G), zs)
                              / series_eval(series_derivative(H), zs))
                got = np.abs(conv_dilatation(spec, zs))
                assert np.max(np.abs(got - want)) < 1e-9, (a, theta)
                want = series_eval(H, zs) + np.conj(series_eval(G, zs))
                got = conv_value(spec, zs)
                assert np.max(np.abs(got - want)) < 1e-8, (a, theta)


F0_SPEC = ConvolutionSpec(0.5, make_mapping("F0"))
NAN = float("nan")
SMALL_FIGURE = FigureSpec(rings=1, rays=2, samples_per_curve=64)


@pytest.mark.parametrize("call,error", [
    (lambda: make_mapping("F1", theta=NAN), ParameterError),
    (lambda: make_mapping("Fn", n=2, theta=math.inf), ParameterError),
    (lambda: make_mapping("Fn", n=True, theta=math.pi), ParameterError),
    (lambda: make_mapping("Fn", n=2.0, theta=math.pi), ParameterError),
    (lambda: make_mapping("Fa", a=NAN), ParameterError),
    (lambda: ConvolutionSpec(NAN, make_mapping("F0")), ParameterError),
    (lambda: conv_dilatation_f0(NAN, 0.5), ParameterError),
    (lambda: conv_parts_f1(NAN, 0.5, 0.3), ParameterError),
    (lambda: conv_parts_f1(0.5, math.inf, 0.3), ParameterError),
    (lambda: eval_B(0.3, NAN, 0.5), ParameterError),
    (lambda: conv_dilatation(F0_SPEC, complex(NAN)), DomainError),
    (lambda: conv_derivatives(F0_SPEC, np.array([0.5, NAN])), DomainError),
    (lambda: conv_value(F0_SPEC, complex(NAN)), DomainError),
    (lambda: conv_dilatation_f0(0.5, NAN), DomainError),
    (lambda: eval_h(make_mapping("F0"), NAN), DomainError),
    (lambda: dilatation(make_mapping("F0"), NAN), DomainError),
    (lambda: univalency_radius(F0_SPEC, NAN), ParameterError),
    (lambda: univalency_radius(F0_SPEC, math.inf), ParameterError),
    (lambda: univalency_radius(F0_SPEC, 1.0), ParameterError),
    (lambda: FigureSpec(rings=2.5), ParameterError),
    (lambda: FigureSpec(rings=True), ParameterError),
    (lambda: FigureSpec(samples_per_curve=64.5), ParameterError),
    (lambda: FigureSpec(width_px=-5), ParameterError),
    (lambda: FigureSpec(height_px=0), ParameterError),
    (lambda: eval_J(0.5, NAN), DomainError),
    (lambda: li2(NAN), DomainError),
    (lambda: log_principal(NAN), DomainError),
    (lambda: J_boundary(0.5, NAN), ParameterError),
    (lambda: J_boundary(0.5, math.inf), ParameterError),
    (lambda: GridSpec((0.5, NAN), 8), ParameterError),
    (lambda: default_grid(max_radius=NAN), ParameterError),
    (lambda: compute_table(3), ParameterError),
    (lambda: ConvolutionSpec("0.5", make_mapping("F0")), ParameterError),
    (lambda: ConvolutionSpec(True, make_mapping("F0")), ParameterError),
    (lambda: make_mapping("F1", theta="pi"), ParameterError),
    (lambda: make_mapping("Fa", a=0.5j), ParameterError),
    (lambda: univalency_radius(F0_SPEC, "1e-3"), ParameterError),
    (lambda: GridSpec(("x",), 4), ParameterError),
    (lambda: GridSpec(None, 4), ParameterError),
    (lambda: FigureSpec(max_radius="0.5"), ParameterError),
    (lambda: render_webbing(F0_SPEC, FigureSpec(rings=1, rays=2,
                                                samples_per_curve=64),
                            stroke_width="2"), ParameterError),
    (lambda: default_grid(max_radius="0.9"), ParameterError),
    (lambda: J_boundary(0.3, "1"), ParameterError),
    (lambda: eval_B(0.3, "0.5", 0.5), ParameterError),
    (lambda: conv_dilatation(F0_SPEC, "0.5"), ParameterError),
    (lambda: li2("x"), ParameterError),
    (lambda: eval_J(0.3, "z"), ParameterError),
    (lambda: conv_value(F0_SPEC, [0.1, "a"]), ParameterError),
    (lambda: taylor_of_mapping(make_mapping("F0"), True), ParameterError),
    (lambda: taylor_of_mapping(make_mapping("F0"), 2.5), ParameterError),
    (lambda: taylor_of_mapping(make_mapping("F0"), NAN), ParameterError),
    (lambda: Poly([NAN, 1]), ParameterError),
    (lambda: Poly([1, math.inf]), ParameterError),
    (lambda: TruncatedSeries([0, NAN]), ParameterError),
    (lambda: compute_table(True), ParameterError),
    (lambda: compute_table(1.0), ParameterError),
    (lambda: MappingSpec("Fn", theta=NAN, n=2), ParameterError),
    (lambda: MappingSpec("Fx"), ParameterError),
    (lambda: MappingSpec(np.array(["F0", "F1"])), ParameterError),
    (lambda: MappingSpec("Fa", a=2.0), ParameterError),
    (lambda: MappingSpec("Fn", theta=1.0, n=0), ParameterError),
    (lambda: MappingSpec("Fn", theta=1.0, n=2.5), ParameterError),
    (lambda: MappingSpec("Fn", theta=1.0, n=True), ParameterError),
    (lambda: MappingSpec("F1", theta=math.pi), ParameterError),
    (lambda: ConvolutionSpec(0.5, "F0"), ParameterError),
    (lambda: compute_row(TableRow(2, 0.5, (1, 0), (1, 3), 1.0)),
     ParameterError),
    (lambda: compute_row(TableRow(2, 0.5, "pi", (1, 3), 1.0)), ParameterError),
    (lambda: univalency_radius(F0_SPEC.right), ParameterError),
    (lambda: scan_dilatation(F0_SPEC.right, default_grid(2, 8)),
     ParameterError),
    (lambda: conv_derivatives(F0_SPEC.right, 0.5), ParameterError),
    (lambda: conv_dilatation(F0_SPEC.right, 0.5), ParameterError),
    (lambda: conv_value(F0_SPEC.right, 0.5), ParameterError),
    (lambda: render_webbing(F0_SPEC.right, SMALL_FIGURE), ParameterError),
    (lambda: scan_dilatation(F0_SPEC, ((0.5, 0.9), 8)), ParameterError),
    (lambda: render_webbing(F0_SPEC, None), ParameterError),
    (lambda: eval_h(F0_SPEC, 0.5), ParameterError),
    (lambda: taylor_of_mapping(F0_SPEC, 8), ParameterError),
    (lambda: dilatation("F0", 0.5), ParameterError),
], ids=["theta-nan", "theta-inf", "n-bool", "n-float", "fa-a-nan",
        "spec-a-nan", "f0-a-nan", "parts-a-nan", "parts-theta-inf",
        "B-a-nan", "dilatation-z-nan", "derivatives-z-nan", "value-z-nan",
        "f0-z-nan", "h-z-nan", "mapping-dilatation-z-nan", "radius-tol-nan",
        "radius-tol-inf", "radius-tol-one", "figure-rings-float",
        "figure-rings-bool", "figure-samples-float", "figure-width-negative",
        "figure-height-zero", "J-z-nan", "li2-nan", "log-nan",
        "J-boundary-t-nan", "J-boundary-t-inf", "grid-radius-nan",
        "default-grid-max-radius-nan", "table-three", "spec-a-string",
        "spec-a-bool", "theta-string", "fa-a-complex", "radius-tol-string",
        "grid-radius-string", "grid-radii-none", "figure-max-radius-string",
        "render-stroke-width-string", "default-grid-max-radius-string",
        "J-boundary-t-string", "B-a-string", "dilatation-z-string",
        "li2-string", "J-z-string", "value-z-mixed-string", "series-N-bool",
        "series-N-float", "series-N-nan", "poly-nan", "poly-inf",
        "series-coeff-nan", "table-bool", "table-float", "spec-theta-nan",
        "spec-family-unknown", "spec-family-array", "spec-a-out-of-range",
        "spec-n-zero", "spec-n-float", "spec-n-bool", "spec-f1-at-pi",
        "conv-right-string", "row-den-zero", "row-theta-string",
        "radius-mapping-spec", "scan-mapping-spec", "derivatives-mapping-spec",
        "conv-dilatation-mapping-spec", "value-mapping-spec",
        "render-mapping-spec", "scan-grid-tuple", "render-figure-none",
        "h-convolution-spec", "series-convolution-spec",
        "mapping-dilatation-string"])
def test_invalid_inputs_raise_typed_errors(call, error):
    with pytest.raises(error):
        call()


LOG_JET_RIGHTS = [make_mapping("F0"), make_mapping("F1", theta=math.pi / 6),
                  make_mapping("F1", theta=math.pi - 1e-6)] + [
    make_mapping("Fn", n=n, theta=theta)
    for n in (2, 3, 15, 40) for theta in (math.pi, 0.7)]


@pytest.mark.parametrize("a", [0.5, -0.5])
@pytest.mark.parametrize("right", LOG_JET_RIGHTS, ids=lambda m: (
    f"{m.family}-n{m.n}-theta{m.theta:.3f}" if m.theta is not None else m.family))
class TestLogJets:
    # _log_jets gives omega = Gp/Hp, L1 = omega'/omega and L2 = (log omega)'';
    # they are compared through omega' = omega L1 and omega'' = omega (L2 +
    # L1^2), which stay on the scale of omega where omega is tiny
    @staticmethod
    def jets(a, right, z):
        w, L1, L2 = _log_jets(a, term_table(right), z)
        return w, w * L1, w * (L2 + L1 * L1)

    def test_against_central_differences(self, a, right):
        # Richardson-extrapolated central differences of conv_dilatation,
        # O(h^4): about 5e-7 of the scale at h = 2e-3 for n = 40, 16x less
        # per halving of h, against rounding of eps/h^2
        z = disk(100, 0.95)
        z = z[np.abs(z) > 0.6]
        spec = ConvolutionSpec(a, right)

        def central(h):
            lo, mid, hi = (conv_dilatation(spec, z + s * h) for s in (-1, 0, 1))
            return np.array([(hi - lo) / (2 * h), (hi - 2 * mid + lo) / h ** 2])

        h = 5e-4
        want = (4 * central(h / 2) - central(h)) / 3
        w, w1, w2 = self.jets(a, right, z)
        np.testing.assert_allclose(w, conv_dilatation(spec, z), rtol=1e-13, atol=1e-15)
        for got, ref in zip((w1, w2), want):
            assert np.max(np.abs(got - ref) / np.maximum(1, np.abs(ref))) < 1e-7

    def test_against_series(self, a, right):
        # the order-256 Hadamard series and its derivatives at |z| <= 0.5
        z = disk(200, 0.5)
        z = z[np.abs(z) > 0.01]
        H, G = (series_derivative(s) for s in oracle_series(a, right))
        h0, h1, h2 = (series_eval(s, z) for s in (
            H, series_derivative(H), series_derivative(series_derivative(H))))
        g0, g1, g2 = (series_eval(s, z) for s in (
            G, series_derivative(G), series_derivative(series_derivative(G))))
        want = (g0 / h0, (g1 * h0 - g0 * h1) / h0 ** 2,
                (g2 * h0 - g0 * h2) / h0 ** 2 - 2 * h1 * (g1 * h0 - g0 * h1) / h0 ** 3)
        for got, ref in zip(self.jets(a, right, z), want):
            assert np.max(np.abs(got - ref)) < 1e-11
