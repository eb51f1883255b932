"""Slice data, the t=0 gauge solves, and diagonal data assembly."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nullwave.background import (WaveProfile, algebraic_profile, bump_profile,
                                 zero_profile)
from nullwave.data_gauge import (
    _pulse_functions,
    background_data,
    build_diagonal_data,
    build_gauge_slice,
    closeness_certificate,
    perturbed_data,
    solve_eikonal_t0,
    solve_phi_tt,
)
from nullwave.errors import (
    DomainError,
    NoRealRoot,
    RootAmbiguity,
    SliceNotSpacelike,
)
from nullwave.grid import DNGrid
from nullwave.nonlinearity import linear_model, membrane_model, polynomial_model
from nullwave.oracles import background_gauge_values, eikonal_roots_via_polynomial
from nullwave.state import FIELD_NAMES

# frozen gauge values for the membrane background at slope zeta' = 0.5
MEMBRANE_GAUGE_AT_HALF = {
    "du_t_grid": 0.6,   # (1 - 0.25) / (1 + 0.25)
    "dub_t": 1.0,
    "v_prime": 1.25,
    "du_t": 0.75,       # relabeled: v_prime * du_t_grid = 1 - H0 zp^2
}


def constant_slope_profile(p):
    """Background with zeta'(x) = p everywhere (unit-test helper)."""
    return WaveProfile(
        name="ramp",
        zeta=lambda x: p * np.asarray(x, dtype=float),
        dzeta=lambda x: np.full_like(np.asarray(x, dtype=float), p),
        d2zeta=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
        M_zeta=abs(p),
        gamma_bar=1.0,
    )


def test_background_diagonal_data_vanishes_to_rounding(membrane, bump03):
    grid = DNGrid.square(radius=3.0, h=0.05)
    data, gauge = build_diagonal_data(background_data(bump03), grid, membrane, bump03)
    for name in FIELD_NAMES + ("sigma",):
        assert np.max(np.abs(getattr(data, name))) < 1e-13, name
    assert data.eps0 < 1e-12
    # gauge agrees with the closed-form background values
    ref = background_gauge_values(membrane, bump03, grid.u)
    assert np.array_equal(gauge.dub_t, ref["dub_t"])
    assert np.array_equal(gauge.du_t_grid, ref["du_t_grid"])
    assert np.array_equal(gauge.v_prime, ref["v_prime"])
    assert np.allclose(gauge.v_prime * gauge.du_t_grid, ref["du_t"], rtol=1e-14,
                       atol=0)
    zpp = bump03.d2zeta(-grid.u)
    assert np.allclose(gauge.phi_tt, zpp, rtol=1e-12, atol=1e-15)
    for key in ("L0", "L1", "Lb0", "Lb1"):
        assert np.allclose(getattr(gauge, key), ref[key], rtol=1e-13, atol=1e-14), key


def test_frozen_membrane_gauge_at_half_slope(membrane):
    prof = constant_slope_profile(0.5)
    out = solve_eikonal_t0(membrane, prof, [0.0], [0.5], [-0.5])
    assert abs(out["du_t_grid"][0] - MEMBRANE_GAUGE_AT_HALF["du_t_grid"]) < 1e-15
    assert out["dub_t"][0] == MEMBRANE_GAUGE_AT_HALF["dub_t"]
    gauge = build_gauge_slice(background_data(prof), DNGrid(-0.5, 0.5, 0.25), membrane, prof)
    assert np.allclose(gauge.v_prime, MEMBRANE_GAUGE_AT_HALF["v_prime"], rtol=1e-15)
    assert np.allclose(gauge.v_prime * gauge.du_t_grid,
                       MEMBRANE_GAUGE_AT_HALF["du_t"], rtol=1e-15)


def test_eikonal_roots_match_polynomial_oracle(membrane):
    # membrane background at slope 0.5: f'(0) = -0.5, phi_t = 0.5, phi_x = -0.5
    ora = eikonal_roots_via_polynomial(-0.5, 0.5, -0.5)
    assert np.allclose(ora["u_roots"], [-1.0, 0.6], atol=1e-14)
    assert np.allclose(ora["ubar_roots"], [-0.6, 1.0], atol=1e-14)
    prof = constant_slope_profile(0.5)
    out = solve_eikonal_t0(membrane, prof, [0.0], [0.5], [-0.5])
    # the solver picks the branch connected to the background chart
    assert np.min(np.abs(ora["u_roots"] - out["du_t_grid"][0])) < 1e-14
    assert np.min(np.abs(ora["ubar_roots"] - out["dub_t"][0])) < 1e-14


def test_linear_model_gauge_is_trivial(linear, zero_prof):
    rng = np.random.default_rng(7)
    x = np.linspace(-2, 2, 9)
    out = solve_eikonal_t0(linear, zero_prof, x, rng.normal(size=9), rng.normal(size=9))
    assert np.array_equal(out["du_t_grid"], np.ones(9))
    assert np.array_equal(out["dub_t"], np.ones(9))


def test_homotopy_tracks_background_branch_when_both_roots_positive(membrane):
    # strong slope: H0 p^2 = 1.44 > 1, so both ubar-roots are positive and a
    # bare sign rule cannot identify the background branch
    prof = constant_slope_profile(1.2)
    p = 1.2
    out = solve_eikonal_t0(membrane, prof, [0.0], [p], [-p])
    assert out["dub_t"][0] == 1.0
    other = (p * p - 1.0) / (1.0 + p * p)
    assert other > 0  # the rejected root is positive too
    # a small perturbation stays on the tracked branch
    out2 = solve_eikonal_t0(membrane, prof, [0.0], [p + 1e-3], [-p + 1e-3])
    assert abs(out2["dub_t"][0] - 1.0) < 0.01
    assert abs(out2["dub_t"][0] - other) > 0.5


def test_no_real_root_when_kappa_negative(zero_prof):
    model = polynomial_model(0.2)
    with pytest.raises(NoRealRoot):
        solve_eikonal_t0(model, zero_prof, [0.0], [2.0], [0.0])


def test_root_ambiguity_when_roots_escape(zero_prof):
    # sigma ~ -2.49999 makes a ~ 4e-6: the roots fly to +-500 in the last
    # homotopy step and neither is close to the tracked branch
    model = polynomial_model(0.2)
    phit = np.sqrt(2.49999)
    with pytest.raises(RootAmbiguity):
        solve_eikonal_t0(model, zero_prof, [0.0], [phit], [0.0])


def test_slice_not_spacelike():
    model = polynomial_model(0.2)
    phi_tt, met = solve_phi_tt(model, np.array([0.5]), np.array([0.1]),
                               np.array([0.3]), np.array([0.2]))
    assert np.isfinite(phi_tt).all()
    with pytest.raises(SliceNotSpacelike):
        solve_phi_tt(model, np.array([2.0]), np.array([1.3]),
                     np.array([0.0]), np.array([0.0]))


def test_phi_tt_background_identity(membrane, bump03):
    # on the exact background the slice equation returns zeta''(-x)
    x = np.linspace(-4, 4, 41)
    bg = background_data(bump03)
    phi_tt, _ = solve_phi_tt(membrane, bg.phi1(x), bg.phi0p(x),
                             bg.phi1p(x), bg.phi0pp(x))
    assert np.allclose(phi_tt, bump03.d2zeta(-x), rtol=1e-12, atol=1e-15)


def test_diagonal_data_satisfies_compatibility(membrane, bump03):
    # along the diagonal d/ds F must equal (d_u - d_ub) F for each field
    grid = DNGrid.square(radius=3.0, h=0.005)
    rect = perturbed_data(bump03, kind="bump", eps=1e-2, width=2.0)
    data, _ = build_diagonal_data(rect, grid, membrane, bump03)
    h = grid.h
    for trip in (("psi", "dpsi_u", "dpsi_ub"),
                 ("psib", "dpsib_u", "dpsib_ub"),
                 ("xi", "dxi_u", "dxi_ub")):
        f, du, dub = (getattr(data, k) for k in trip)
        fd = (f[2:] - f[:-2]) / (2.0 * h)
        want = (du - dub)[1:-1]
        # absolute floor: a purely left-moving pulse leaves psib ~ 0, where
        # the residual is rounding noise with no scale to compare against
        tol = 1e-4 * np.max(np.abs(want)) + 1e-12
        assert np.max(np.abs(fd - want)) < tol, trip[0]


def test_perturbation_directions(bump03):
    x = np.linspace(-2, 2, 101)
    bg = background_data(bump03)
    for direction, sgn in (("left", 1.0), ("right", -1.0), ("standing", 0.0)):
        rect = perturbed_data(bump03, eps=1e-2, direction=direction)
        d0 = rect.phi0(x) - bg.phi0(x)
        d1 = rect.phi1(x) - bg.phi1(x)
        pulse = bump_profile(1e-2)
        assert np.allclose(d0, pulse.zeta(x), atol=1e-16)
        assert np.allclose(d1, sgn * pulse.dzeta(x), atol=1e-16)
    with pytest.raises(DomainError):
        perturbed_data(bump03, direction="sideways")
    with pytest.raises(DomainError):
        perturbed_data(bump03, kind="sawtooth")


def test_closeness_certificate_scales_linearly(bump03):
    cert0 = closeness_certificate(background_data(bump03), bump03, X_max=20.0)
    assert cert0["eps_bar"] == 0.0
    c1 = closeness_certificate(perturbed_data(bump03, eps=1e-3), bump03, X_max=20.0)
    c2 = closeness_certificate(perturbed_data(bump03, eps=2e-3), bump03, X_max=20.0)
    assert c1["eps_bar"] > 0
    for key in ("phi0", "phi0p", "phi0pp", "phi1", "phi1p"):
        assert 1.99 < c2[key] / c1[key] < 2.01
    assert c1["eps_bar"] == max(c1[k] for k in ("phi0", "phi0p", "phi0pp", "phi1", "phi1p"))


def test_closeness_certificate_rejects_non_finite_data(bump03):
    # A NaN in phi0' at the sample nearest x = 1: its decay norm is NaN,
    # and no ball radius can be sized from the other four.
    rect = perturbed_data(bump03, eps=1e-3)

    def phi0p(x):
        out = np.array(rect.phi0p(x), dtype=float)
        out[np.argmin(np.abs(x - 1.0))] = np.nan
        return out
    bad = dataclasses.replace(rect, phi0p=phi0p)
    with pytest.raises(DomainError, match="phi0p"):
        closeness_certificate(bad, bump03, X_max=20.0)


def test_algebraic_family_certificate(bump03):
    cert = closeness_certificate(
        perturbed_data(bump03, kind="algebraic", eps=1e-3, width=2.0, gamma=1.0),
        bump03, X_max=20.0)
    assert 0 < cert["eps_bar"] < 0.1


def test_far_field_gauge_independent_of_background_size(membrane):
    # outside the perturbation's support the diagonal data vanishes to
    # rounding even under a large background (well-balanced assembly)
    prof = bump_profile(0.9, width=6.0)
    grid = DNGrid.square(radius=4.0, h=0.1)
    rect = perturbed_data(prof, eps=1e-3, width=1.0)
    data, gauge = build_diagonal_data(rect, grid, membrane, prof)
    far = np.abs(grid.u) >= 2.0
    assert far.sum() > 10
    for name in FIELD_NAMES + ("sigma",):
        assert np.max(np.abs(getattr(data, name)[far])) < 1e-13, name
    ref = background_gauge_values(membrane, prof, grid.u[far])
    assert np.array_equal(gauge.du_t_grid[far], ref["du_t_grid"])
    assert np.array_equal(gauge.dub_t[far], ref["dub_t"])


def _reference_bump(A, c, w):
    """The bump's (zeta, zeta', zeta'') as bump_profile used to form them."""
    A, c, w = float(A), float(c), float(w)

    def on_support(poly):
        def fn(x):
            y = (np.asarray(x, dtype=float) - c) / w
            val = np.where(np.abs(y) < 1.0, poly(y), 0.0)
            return val if np.ndim(x) else float(val)
        return fn

    return (on_support(lambda y: A * (1.0 - y**2) ** 4),
            on_support(lambda y: -8.0 * A * y * (1.0 - y**2) ** 3 / w),
            on_support(lambda y: A * (1.0 - y**2) ** 2 * (56.0 * y**2 - 8.0) / w**2))


def _reference_algebraic(A, g):
    """algebraic_profile's (zeta, zeta', zeta''), centred at 0, width 1."""
    A, g = float(A), float(g)
    p = -(1.0 + g) / 2.0

    def zeta(x):
        x = np.asarray(x, dtype=float)
        return A * (1.0 + x**2) ** p

    def dzeta(x):
        x = np.asarray(x, dtype=float)
        return -A * (1.0 + g) * x * (1.0 + x**2) ** (p - 1.0)

    def d2zeta(x):
        x = np.asarray(x, dtype=float)
        return -A * (1.0 + g) * (1.0 - (2.0 + g) * x**2) * (1.0 + x**2) ** (p - 2.0)

    return zeta, dzeta, d2zeta


def _reference_algebraic_pulse(A, g, c, w):
    """The algebraic pulse as the unit-width shape, shifted and rescaled."""
    zeta, dzeta, d2zeta = _reference_algebraic(A, g)
    w = float(w)
    y = lambda x: (np.asarray(x, dtype=float) - c) / w
    return (lambda x: zeta(y(x)), lambda x: dzeta(y(x)) / w,
            lambda x: d2zeta(y(x)) / w**2)


@settings(max_examples=60, deadline=None)
@given(eps=st.floats(0.0, 1.0), center=st.floats(-10.0, 10.0),
       width=st.floats(0.05, 10.0), gamma=st.floats(0.05, 5.0))
def test_pulse_functions_are_bitwise_the_profile_compositions(eps, center,
                                                               width, gamma):
    # the pulse is the profile family's shape without a WaveProfile or its
    # envelope fit; every value, support edges included, keeps its bits
    x = np.concatenate([np.linspace(center - 2.0 * width - 5.0,
                                    center + 2.0 * width + 5.0, 401),
                        [center - width, center, center + width, -0.0]])
    prof = algebraic_profile(eps, gamma)
    cases = (
        (_pulse_functions("bump", eps, center, width, gamma),
         _reference_bump(eps, center, width)),
        (_pulse_functions("algebraic", eps, center, width, gamma),
         _reference_algebraic_pulse(eps, gamma, center, width)),
        ((prof.zeta, prof.dzeta, prof.d2zeta),
         _reference_algebraic(eps, gamma)),
    )
    for got, ref in cases:
        for f, g in zip(got, ref):
            assert np.asarray(f(x)).tobytes() == np.asarray(g(x)).tobytes()
            assert np.asarray(f(center)).tobytes() == \
                np.asarray(g(center)).tobytes()
