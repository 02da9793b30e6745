"""Property tests (Hypothesis) of the closed-form pair kernels: the laws
each sum must obey whatever the lattice.

Each comparison is made against the sum's own scale, c (sum m)^2 for the
force and two-body sums and c (sum m r)^2 for the torque (r the distance
from the x axis, c = 1/2rC^2), which bounds the sum of the absolute
values of its terms; a kernel error shows at order one of it.
Examples are derandomized, so every run checks the same lattices.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

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
