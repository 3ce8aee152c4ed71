"""Checks of the benchmark's references against known values.

    python3 -m pytest bench/test_references.py
"""

import numpy as np
import pytest

import references as ref

KINDS = [("abelian-area", (1.5,)), ("constant-so3", (0.8, 0.6)), ("pure-gauge", ())]


@pytest.mark.parametrize("r", [0.3, 1.0, np.sqrt(3.0), 2.5])
def test_centred_disc_area_is_closed_form(r):
    assert ref.sphere_disc_area((0.0, 0.0), r) == pytest.approx(4 * np.pi * r**2 / (1 + r**2), abs=1e-12)


def test_off_centre_disc_is_a_spherical_cap():
    # the disc centre (3, 0), radius 2 spans |x| in [1, 5] along the x1 axis;
    # |x| = tan(phi / 2) gives the cap's angular diameter
    alpha = 0.5 * (2 * np.arctan(5.0) - 2 * np.arctan(1.0))
    area = ref.sphere_disc_area((3.0, 0.0), 2.0)
    assert area == pytest.approx(2 * np.pi * (1 - np.cos(alpha)), abs=1e-12)
    assert area == pytest.approx(1.0553, abs=1e-4)


@pytest.mark.parametrize("r", [0.5, 1.0, np.sqrt(3.0)])
def test_latitude_angle_matches_colatitude_law(r):
    colatitude = np.pi - 2 * np.arctan(r)
    want = -2 * np.pi * (1 - np.cos(colatitude))
    assert ref.angle_gap(ref.sphere_loop_angle((0.0, 0.0), r), want) < 1e-12


def test_abelian_angle_is_minus_line_integral():
    f, r, c = 1.5, 0.9, (0.2, -0.1)
    th = np.linspace(0.0, 2 * np.pi, 4001)
    x1, x2 = c[0] + r * np.cos(th), c[1] + r * np.sin(th)
    dx1, dx2 = -r * np.sin(th), r * np.cos(th)
    integral = np.trapezoid(0.5 * f * (x1 * dx2 - x2 * dx1), th)
    assert ref.abelian_loop_angle(f, r) == pytest.approx(-integral, abs=1e-10)


def test_rodrigues_matches_series():
    w = np.array([0.3, -1.1, 0.7])
    k = ref.hat(w)
    series, term = np.eye(3), np.eye(3)
    for i in range(1, 40):
        term = term @ k / i
        series = series + term
    assert np.allclose(ref.rodrigues(w), series, atol=1e-14)


def test_small_rectangle_holonomy_reads_curvature():
    # F_12 = [A_1, A_2] = s1 s2 E3, and log P = -eps^2 F_12 + O(eps^3)
    s1, s2, eps = 0.8, 0.6, 1e-3
    P = ref.rectangle_holonomy(s1, s2, [(0.0, 0.0), (eps, 0.0), (eps, eps), (0.0, eps)])
    E3 = ref.hat([0.0, 0.0, 1.0])
    assert np.allclose(0.5 * (P - P.T) / eps**2, -s1 * s2 * E3, atol=1e-2)


@pytest.mark.parametrize("kind, params", KINDS)
def test_coefficients_are_derivatives_of_straight_transport(kind, params):
    x = np.array([0.4, -0.7])
    A = ref.coefficients(kind, params, x[None, :])
    eps = 1e-6
    for mu in range(2):
        step = np.eye(2)[mu] * eps
        P = ref.straight_transport(kind, params, x - step, x + step)
        assert np.allclose((np.eye(len(P)) - P) / (2 * eps), A[mu][0], atol=1e-5)


def test_pure_gauge_transport_is_path_independent():
    a, b, c = (0.1, 0.5), (-0.4, 0.9), (0.7, -0.2)
    two_legs = ref.straight_transport("pure-gauge", (), b, c) @ ref.straight_transport("pure-gauge", (), a, b)
    assert np.allclose(two_legs, ref.straight_transport("pure-gauge", (), a, c), atol=1e-14)


def test_abelian_triangle_rotates_by_minus_f_area():
    f = 1.5
    a, b, c = (0.0, 0.0), (1.0, 0.0), (0.0, 1.0)  # counter-clockwise, area 1/2
    P = np.eye(2)
    for p, q in ((a, b), (b, c), (c, a)):
        P = ref.straight_transport("abelian-area", (f,), p, q) @ P
    assert np.allclose(P, ref.rotation2(-f * 0.5), atol=1e-14)
