"""Property tests (Hypothesis) of the closed-form pair kernels: the laws
each sum must obey whatever the lattice; and of the special-function
kernels, which must give on any array the bits of their masked form:
each element evaluated alone, as a Python float.

Each comparison is made against the sum's own scale, c (sum m)^2 for the
force and two-body sums and c (sum m r)^2 for the torque (r the distance
from the x axis, c = 1/2rC^2), which bounds the sum of the absolute
values of its terms; a kernel error shows at order one of it.
Examples are derandomized, so every run checks the same lattices.
"""

import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import oracles
from cslbounds import special
from cslbounds.cslnoise import (force_pair_kernel_sum, torque_pair_kernel_sum,
                                two_body_pair_kernel_sum)

PROPERTY = settings(max_examples=40, deadline=None, derandomize=True,
                    database=None)


@st.composite
def lattices(draw):
    """(positions, masses, rC, a): up to 200 points, so tiles of 128
    points meet both on and off the diagonal, spread over 0.1 to 20 rC
    and centred up to 5 spreads off the x axis."""
    n = draw(st.integers(1, 200))
    rC = 10.0 ** draw(st.floats(-9.0, -5.0))
    extent = rC * draw(st.floats(0.1, 20.0))
    centre = extent * np.array(draw(st.tuples(*[st.floats(-5.0, 5.0)] * 3)))
    a = rC * draw(st.floats(0.0, 10.0))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    pos = centre + rng.uniform(-extent / 2.0, extent / 2.0, (n, 3))
    m = 1e-20 * rng.uniform(0.5, 1.5, n)
    return pos, m, rC, a


def force_scale(m, rC):
    return float(np.sum(m)) ** 2 / (2.0 * rC * rC)


def torque_scale(pos, m, rC):
    r = np.hypot(pos[:, 1], pos[:, 2])
    return float(np.sum(m * r)) ** 2 / (2.0 * rC * rC)


@PROPERTY
@given(lattices(), st.floats(0.0, 2.0 * math.pi))
def test_torque_sum_invariant_under_rotation_about_x(lattice, theta):
    pos, m, rC, _ = lattice
    c, s = math.cos(theta), math.sin(theta)
    turned = pos.copy()
    turned[:, 1] = c * pos[:, 1] - s * pos[:, 2]
    turned[:, 2] = s * pos[:, 1] + c * pos[:, 2]
    got = torque_pair_kernel_sum(turned, m, rC)
    want = torque_pair_kernel_sum(pos, m, rC)
    assert abs(got - want) <= 1e-13 * torque_scale(pos, m, rC)


@PROPERTY
@given(lattices(), st.tuples(*[st.floats(-100.0, 100.0)] * 3))
def test_force_and_two_body_sums_invariant_under_translation(lattice, t):
    pos, m, rC, a = lattice
    shift = np.array(t) * np.ptp(pos, axis=0).max(initial=rC)
    moved = pos + shift
    # the moved coordinates are rounded to eps |shift|, up to 100 spreads
    tol = 1e-12 * force_scale(m, rC)
    assert abs(force_pair_kernel_sum(moved, m, rC)
               - force_pair_kernel_sum(pos, m, rC)) <= tol
    assert abs(two_body_pair_kernel_sum(moved, m, rC, a)
               - two_body_pair_kernel_sum(pos, m, rC, a)) <= tol


@PROPERTY
@given(lattices(), st.floats(1e-3, 1e3))
def test_pair_sums_scale_as_mass_squared(lattice, s):
    pos, m, rC, a = lattice
    f, ts = force_scale(m, rC), torque_scale(pos, m, rC)
    for got, base, scale in (
            (force_pair_kernel_sum(pos, s * m, rC),
             force_pair_kernel_sum(pos, m, rC), f),
            (torque_pair_kernel_sum(pos, s * m, rC),
             torque_pair_kernel_sum(pos, m, rC), ts),
            (two_body_pair_kernel_sum(pos, s * m, rC, a),
             two_body_pair_kernel_sum(pos, m, rC, a), f)):
        assert abs(got - s * s * base) <= 1e-13 * s * s * scale


@st.composite
def spread_lattices(draw):
    """(positions, masses, rC, a): up to 600 points in up to 8 clusters
    spread over up to 60 rC, so that tiles far enough apart to be
    skipped meet; a cluster of width 0 holds coincident points.  Half
    the draws of n take 300 points or more (three tiles or more), and
    half those of the spread 30 rC or more."""
    n = draw(st.integers(1, 600) | st.integers(300, 600))
    rC = 10.0 ** draw(st.floats(-9.0, -5.0))
    extent = rC * draw(st.floats(0.1, 60.0) | st.floats(30.0, 60.0))
    width = extent * draw(st.floats(0.0, 0.3))
    a = rC * draw(st.floats(0.0, 40.0))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    centres = rng.uniform(-extent / 2.0, extent / 2.0,
                          (draw(st.integers(1, 8)), 3))
    pos = centres[rng.integers(0, len(centres), n)] \
        + rng.uniform(-width / 2.0, width / 2.0, (n, 3))
    m = 1e-20 * rng.uniform(0.5, 1.5, n)
    return pos, m, rC, a


@PROPERTY
@given(spread_lattices())
@example((np.array([[1e-7, -2e-7, 3e-7]]), np.array([1e-20]), 1e-7, 2e-7))
@example((np.tile([[1e-7, -2e-7, 3e-7]], (300, 1)), np.full(300, 1e-20),
          1e-7, 2e-7))
def test_pair_sums_match_broadcast_within_their_error(lattice):
    """Each tiled sum, whose far tile pairs are skipped, lies within its
    reported error of the unskipped broadcast, up to rounding, and that
    error stays below 1e-16 of its scale."""
    pos, m, rC, a = lattice
    scales = oracles.pair_scales(pos, m, rC)
    for got, want, which in zip(
            (force_pair_kernel_sum(pos, m, rC),
             torque_pair_kernel_sum(pos, m, rC),
             two_body_pair_kernel_sum(pos, m, rC, a)),
            oracles.broadcast_sums(pos, m, rC, a),
            ("force", "torque", "two_body")):
        assert got.error <= 1e-16 * scales[which], which
        assert abs(got - want) <= got.error + 1e-13 * scales[which], which


@st.composite
def kernel_arguments(draw):
    """Arrays of 0 to 2 dimensions whose entries are zeros, the series
    switches (1e-4, 1e-3, 1) and their neighbours, or log-uniform
    magnitudes from 1e-9 to 1e6, each with either sign."""
    switch = st.sampled_from((1e-4, 1e-3, 1.0)).flatmap(
        lambda t: st.sampled_from((t, math.nextafter(t, 0.0),
                                   math.nextafter(t, 2.0 * t))))
    magnitude = st.one_of(st.just(0.0), switch,
                          st.floats(-9.0, 6.0).map(lambda e: 10.0 ** e))
    value = st.tuples(st.sampled_from((1.0, -1.0)), magnitude).map(
        lambda sm: sm[0] * sm[1])
    shape = draw(hnp.array_shapes(min_dims=0, max_dims=2, max_side=12))
    return draw(hnp.arrays(np.float64, shape, elements=value))


@PROPERTY
@given(st.sampled_from(oracles.KERNELS), kernel_arguments())
def test_special_kernels_match_masked_form_bit_for_bit(name, x):
    kernel = getattr(special, name)
    for arr in (x, x.T):
        assert oracles.same_bits(kernel(arr), oracles.one_by_one(kernel, arr))
