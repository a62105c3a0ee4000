"""Property tests over random parameters, theta near +-pi included: the
convolution against its series, the identities every mapping obeys, and the
paper's theorem that F0 and F1 right factors give univalent convolutions."""
import math

import numpy as np
from hypothesis import given, settings, strategies as st

from harmconv import (ConvolutionSpec, conv_derivatives, conv_value,
                      dilatation, eval_g, eval_g_prime, eval_h, eval_h_prime,
                      hadamard, make_mapping, series_derivative, series_eval,
                      taylor_of_mapping, univalency_radius)

ORDER = 256
SETTINGS = settings(max_examples=60, deadline=None, database=None)

# theta uniform on (-pi, pi), or +-(pi - 10^-k)
thetas = st.one_of(
    st.floats(-math.pi, math.pi, exclude_min=True, exclude_max=True),
    st.builds(lambda sign, k: sign * (math.pi - 10.0 ** -k),
              st.sampled_from([1, -1]), st.integers(1, 12)))
orders = st.integers(1, 12)
a_values = st.floats(-0.95, 0.95, exclude_min=True, exclude_max=True)
points = st.lists(st.builds(lambda r, t: r * complex(math.cos(t), math.sin(t)),
                            st.floats(0, 0.7), st.floats(0, 2 * math.pi)),
                  min_size=1, max_size=5).map(np.array)


def right_factor(n, theta):
    return make_mapping("F1", theta=theta) if n == 1 else \
        make_mapping("Fn", n=n, theta=theta)


@SETTINGS
@given(n=orders, theta=thetas, a=a_values, z=points)
def test_convolution_matches_series(n, theta, a, z):
    right = right_factor(n, theta)
    spec = ConvolutionSpec(a, right)
    ha, ga = taylor_of_mapping(make_mapping("Fa", a=a), ORDER)
    hr, gr = taylor_of_mapping(right, ORDER)
    H, G = hadamard(ha, hr), hadamard(ga, gr)
    Hp, Gp = conv_derivatives(spec, z)
    assert np.max(np.abs(Hp - series_eval(series_derivative(H), z))) < 1e-8
    assert np.max(np.abs(Gp - series_eval(series_derivative(G), z))) < 1e-8
    want = series_eval(H, z) + np.conj(series_eval(G, z))
    assert np.max(np.abs(conv_value(spec, z) - want)) < 1e-8


@SETTINGS
@given(n=orders, theta=thetas, a=a_values, z=points)
def test_mapping_identities(n, theta, a, z):
    # h + g = s z/(1-z) and g'/h' is the dilatation, for the right factor
    # and for the left factor Fa (s = 1 + a)
    for spec, s in ((right_factor(n, theta), 1), (make_mapping("Fa", a=a), 1 + a)):
        target = s * z / (1 - z)
        assert np.max(np.abs(eval_h(spec, z) + eval_g(spec, z) - target)) < 1e-12
        ratio = eval_g_prime(spec, z) / eval_h_prime(spec, z)
        assert np.max(np.abs(ratio - dilatation(spec, z))) < 1e-12


# a within 1e-3 of +-1, theta within 1e-11 of +-pi (or uniform)
signs = st.sampled_from([1, -1])
edge_a = st.builds(lambda sign, d: sign * (1 - d), signs, st.floats(1e-12, 1e-3))
edge_thetas = st.one_of(
    st.floats(-math.pi, math.pi, exclude_min=True, exclude_max=True),
    st.builds(lambda sign, e: sign * (math.pi - e), signs,
              st.floats(1e-15, 1e-11)))


@SETTINGS
@given(a=edge_a, theta=edge_thetas)
def test_f0_and_f1_fill_the_disk(a, theta):
    # the paper's n = 1 theorem: Fa * F0 and Fa * F1 are locally univalent
    # in the whole disk, so the search's outer circle passes
    for right in (make_mapping("F0"), make_mapping("F1", theta=theta)):
        assert univalency_radius(ConvolutionSpec(a, right)) == 1.0
