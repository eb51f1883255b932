import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial import Polynomial

from nullwave import grid as grid_mod
from nullwave.background import (
    WaveProfile,
    _cumulative_quadrature,
    adaptive_simpson,
    algebraic_profile,
    background_L,
    bump_profile,
    envelope_integral,
    phase_function,
    phase_relabel_velocity,
    table_profile,
    zero_profile,
)
from nullwave.errors import DomainError, QuadratureFailure
from nullwave.nonlinearity import eval_coeffs, membrane_model, polynomial_model
from nullwave.oracles import (
    background_frame_exact,
    envelope_integral_exact,
    gaussian_phase_values,
    phase_relabel,
)
from nullwave.scenario import profile_from_config

GAUSS_PHASE = {
    "from_zero": -0.6266570686577501,
    "full_line": -1.2533141373155001,
}


def gaussian_slope_profile():
    """Hand-built profile with zeta'(x) = exp(-x^2) for the phase oracle."""
    return WaveProfile(
        name="gauss-slope",
        zeta=lambda x: np.zeros_like(np.asarray(x, dtype=float)),  # unused here
        dzeta=lambda x: np.exp(-np.asarray(x, dtype=float) ** 2),
        d2zeta=lambda x: -2.0 * np.asarray(x, dtype=float) * np.exp(-np.asarray(x, dtype=float) ** 2),
        M_zeta=1.0,
        gamma_bar=1.0,
    )


def test_adaptive_simpson_polynomial():
    val = adaptive_simpson(lambda x: x * x, 0.0, 1.0, 1e-12)
    assert val == pytest.approx(1.0 / 3.0, abs=1e-12)


def test_adaptive_simpson_needs_refinement():
    val = adaptive_simpson(lambda x: np.sin(10.0 * x), 0.0, 2.0, 1e-11)
    assert val == pytest.approx((1.0 - np.cos(20.0)) / 10.0, abs=1e-9)


def test_adaptive_simpson_eval_budget():
    with pytest.raises(QuadratureFailure):
        adaptive_simpson(lambda x: np.sin(1000.0 * x) / (1e-3 + x * x),
                         0.0, 3.0, 1e-14, max_evals=60)


def test_envelope_integral_closed_form():
    for eps, gamma in [(0.3, 1.2), (1e-3, 0.5), (2.0, 2.0)]:
        assert envelope_integral(eps, gamma) == pytest.approx(
            envelope_integral_exact(eps, gamma), rel=1e-8
        )


def test_gaussian_phase_frozen_values():
    vals = gaussian_phase_values()
    assert vals["from_zero"] == pytest.approx(GAUSS_PHASE["from_zero"], rel=1e-15)
    assert vals["full_line"] == pytest.approx(GAUSS_PHASE["full_line"], rel=1e-15)


def test_phase_function_matches_gaussian_oracle():
    prof = gaussian_slope_profile()
    model = membrane_model()  # H(0) = 1
    z_far = phase_function(prof, model, 40.0)
    assert z_far == pytest.approx(GAUSS_PHASE["from_zero"], abs=1e-9)
    total = z_far - phase_function(prof, model, -40.0)
    assert total == pytest.approx(GAUSS_PHASE["full_line"], abs=1e-9)


def test_phase_function_zero_for_linear_profile():
    prof = zero_profile()
    model = membrane_model()
    assert phase_function(prof, model, 17.0) == 0.0
    ub = np.linspace(-5, 5, 11)
    assert np.all(phase_function(gaussian_slope_profile(),
                                 polynomial_model(0.0), ub) == 0.0)


def _bump_phase_exact(A, c, w, H0, ubar):
    """Closed-form Z of the bump: -H0 int 64 A^2 y^2 (1-y^2)^6 / w dy, |y| <= 1."""
    y = Polynomial([0.0, 1.0])
    antider = (64.0 * A * A / w * y**2 * (1.0 - y**2) ** 6).integ()
    y_end = np.clip((np.asarray(ubar, dtype=float) - c) / w, -1.0, 1.0)
    y_zero = np.clip(-c / w, -1.0, 1.0)
    return -H0 * (antider(y_end) - antider(y_zero)), -H0 * (antider(1.0) - antider(-1.0))


def _table_phase_exact(xs, dv, d2v, H0, ubar):
    """Closed-form Z of table_profile: zeta' is cubic Hermite per interval."""
    t = Polynomial([0.0, 1.0])
    basis = ((1 + 2 * t) * (1 - t) ** 2, t * (1 - t) ** 2,
             t**2 * (3 - 2 * t), t**2 * (t - 1))
    pieces = []
    for i in range(xs.size - 1):
        h = xs[i + 1] - xs[i]
        dz = (basis[0] * dv[i] + basis[1] * h * d2v[i]
              + basis[2] * dv[i + 1] + basis[3] * h * d2v[i + 1])
        pieces.append((h * dz**2).integ())
    before = np.concatenate([[0.0], np.cumsum([p(1.0) for p in pieces])])

    def mass(x):  # int_{xs[0]}^x zeta'^2
        if x <= xs[0]:
            return 0.0
        if x >= xs[-1]:
            return before[-1]
        i = int(np.searchsorted(xs, x)) - 1
        return before[i] + pieces[i]((x - xs[i]) / (xs[i + 1] - xs[i]))

    return -H0 * (mass(ubar) - mass(0.0)), abs(H0) * before[-1]


@given(
    A=st.floats(0.01, 1.0),
    c=st.floats(-8.0, 8.0),
    w=st.floats(0.2, 10.0),
    y=st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=6),
)
def test_bump_phase_matches_closed_form(A, c, w, y):
    # zeta'^2 is a degree-14 polynomial inside the support and 0 outside,
    # and the panels never cross c -+ w: Gauss-Legendre is exact to rounding
    model = membrane_model()
    H0 = eval_coeffs(model, 0.0).H
    ubar = c + w * np.asarray(y)  # inside and outside the support
    got = phase_function(bump_profile(A, center=c, width=w), model, ubar)
    exact, total = _bump_phase_exact(A, c, w, H0, ubar)
    assert np.max(np.abs(got - exact)) <= 1e-13 * abs(total)


@given(
    x0=st.floats(-6.0, 2.0),
    gaps=st.lists(st.floats(0.2, 3.0), min_size=1, max_size=7),
    data=st.data(),
)
def test_table_phase_matches_closed_form(x0, gaps, data):
    xs = x0 + np.concatenate([[0.0], np.cumsum(gaps)])
    # no magnitudes whose squares underflow: the bound is relative
    value = st.floats(-1.0, 1.0).filter(lambda v: v == 0.0 or abs(v) >= 1e-3)
    column = st.lists(value, min_size=xs.size, max_size=xs.size)
    dv = np.asarray(data.draw(column))
    d2v = np.asarray(data.draw(column))
    prof = table_profile(xs, np.zeros_like(xs), dv, d2v)
    model = polynomial_model(0.2)  # H(0) = -0.4: the sign plays no role
    H0 = eval_coeffs(model, 0.0).H
    ubar = data.draw(st.floats(-15.0, 15.0))
    exact, total = _table_phase_exact(xs, dv, d2v, H0, ubar)
    got = phase_function(prof, model, ubar)
    assert abs(got - exact) <= 1e-13 * total


@given(
    points=st.lists(st.floats(-40.0, 40.0), min_size=1, max_size=200),
    breaks=st.lists(st.floats(-40.0, 40.0), max_size=5),
    panels=st.integers(1, 600),
)
@settings(max_examples=60)
def test_quadrature_is_panel_block_invariant(points, breaks, panels):
    # Blocks of one panel up to all of them (grid.BLOCK_ELEMS // 8): the
    # integrals are those of one block, bit for bit, on random points with
    # breaks, whatever the number of panels modulo the BLAS kernel's rows.
    prof = algebraic_profile(0.7)
    f = lambda s: np.asarray(prof.dzeta(s)) ** 2
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(grid_mod, "BLOCK_ELEMS", 1 << 60)
        want = _cumulative_quadrature(f, points, breaks)
        mp.setattr(grid_mod, "BLOCK_ELEMS", 8 * panels)
        got = _cumulative_quadrature(f, points, breaks)
    assert np.array_equal(got, want)


def _left_to_right_quadrature(f, points, breaks):
    """_cumulative_quadrature written out on whole arrays: the same cuts
    and panels, f on every Gauss-Legendre node at once, and each panel's
    eight weighted values added left to right."""
    from numpy.polynomial.legendre import leggauss

    pts = np.asarray(points, dtype=float).ravel()
    x, w = leggauss(8)
    lo, hi = min(pts.min(), 0.0), max(pts.max(), 0.0)
    reach = max(-lo, hi)
    dyadic = 2.0 ** np.arange(int(np.ceil(np.log2(reach))) if reach > 1.0 else 0)
    extra = np.concatenate([np.asarray(breaks, dtype=float), dyadic, -dyadic])
    nodes = np.unique(np.concatenate(
        [pts, [0.0], extra[(extra > lo) & (extra < hi)]]))
    a, b = nodes[:-1], nodes[1:]
    count = np.ceil((b - a) / (0.25 * (1.0 + np.minimum(np.abs(a), np.abs(b))))
                    ).astype(np.intp)
    first = np.concatenate([[0], np.cumsum(count)[:-1]])
    owner = np.repeat(np.arange(a.size), count)
    width = (b - a) / count
    half = 0.5 * width[owner]
    mid = a[owner] + width[owner] * (np.arange(owner.size) - first[owner]) + half
    vals = f(mid[:, None] + half[:, None] * x)
    panels = vals[:, 0] * w[0]
    for k in range(1, 8):
        panels = panels + vals[:, k] * w[k]
    panels = panels * (0.5 * width[owner])
    segments = np.add.reduceat(panels, first) if a.size else a
    i0 = int(np.searchsorted(nodes, 0.0))
    cum = np.zeros(nodes.size)
    cum[i0 + 1:] = np.cumsum(segments[i0:])
    cum[:i0] = -np.cumsum(segments[:i0][::-1])[::-1]
    return cum[np.searchsorted(nodes, pts)]


@given(
    points=st.lists(st.floats(-40.0, 40.0), min_size=1, max_size=200),
    breaks=st.lists(st.floats(-40.0, 40.0), max_size=5),
)
@settings(max_examples=40)
def test_quadrature_sums_each_panel_left_to_right(points, breaks):
    # The panel sums are pinned bit for bit to a left-to-right sum of the
    # weighted node values, not to whatever order a BLAS product picks.
    prof = algebraic_profile(0.7)
    f = lambda s: np.asarray(prof.dzeta(s)) ** 2
    assert np.array_equal(_cumulative_quadrature(f, points, breaks),
                          _left_to_right_quadrature(f, points, breaks))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_phase_function_rejects_non_finite_ubar(bad):
    prof = bump_profile(0.3, width=6.0)
    with pytest.raises(DomainError, match="finite ubar"):
        phase_function(prof, membrane_model(), bad)
    # phase_relabel evaluates Z(-u)
    with pytest.raises(DomainError, match=f"got {-bad!r} at flat index 2"):
        phase_relabel(prof, membrane_model(), np.array([0.0, 1.5, bad, 2.0]))


def test_phase_function_far_point_is_support_edge_value():
    # beyond c + w the integrand vanishes, and the dyadic panels reach
    # 1e12 with a few hundred integrand evaluations, not millions
    bump = bump_profile(0.3, center=1.0, width=6.0)
    calls = []

    def counted(x):
        calls.append(np.size(x))
        return bump.dzeta(x)

    prof = dataclasses.replace(bump, dzeta=counted)
    model = membrane_model()
    far = phase_function(prof, model, 1e12)
    edge = phase_function(bump, model, 7.0)
    assert far == pytest.approx(edge, rel=1e-14, abs=0.0)
    H0 = eval_coeffs(model, 0.0).H
    assert far == pytest.approx(_bump_phase_exact(0.3, 1.0, 6.0, H0, 7.0)[0], rel=1e-14)
    assert sum(calls) < 8 * 400


@pytest.mark.parametrize("make,where", [
    (lambda: bump_profile(0.4, center=1.0, width=3.0), np.linspace(-2.5, 4.5, 41)),
    (lambda: algebraic_profile(0.25, gamma_bar=0.8), np.linspace(-6.0, 6.0, 41)),
])
def test_profile_derivatives_consistent(make, where):
    prof = make()
    h = 1e-6
    fd1 = (prof.zeta(where + h) - prof.zeta(where - h)) / (2 * h)
    fd2 = (prof.dzeta(where + h) - prof.dzeta(where - h)) / (2 * h)
    assert np.max(np.abs(fd1 - prof.dzeta(where))) < 5e-9
    assert np.max(np.abs(fd2 - prof.d2zeta(where))) < 5e-8


def test_bump_compact_support():
    prof = bump_profile(0.7, center=0.5, width=2.0)
    outside = np.array([-1.6, 2.6, 10.0, -30.0])
    assert np.all(prof.zeta(outside) == 0.0)
    assert np.all(prof.dzeta(outside) == 0.0)
    assert np.all(prof.d2zeta(outside) == 0.0)
    assert prof.zeta(0.5) == pytest.approx(0.7)
    assert prof.envelope_fit() <= prof.M_zeta * (1.0 + 1e-9)


def test_bump_rejects_bad_width():
    with pytest.raises(DomainError):
        bump_profile(0.1, width=0.0)


def test_algebraic_profile_envelope():
    prof = algebraic_profile(0.25, gamma_bar=0.8)
    assert prof.envelope_fit() <= prof.M_zeta * (1.0 + 1e-9)
    # decays like (1+x^2)^(-0.9)
    assert abs(prof.zeta(100.0)) < 0.25 * (1e4) ** -0.89
    assert prof.envelope_fit() >= 0.25  # the x=0 value already forces this


def test_table_profile_interpolates():
    src = algebraic_profile(0.3, gamma_bar=1.0)
    xs = np.linspace(-8.0, 8.0, 321)
    prof = table_profile(xs, src.zeta(xs), src.dzeta(xs), src.d2zeta(xs))
    mid = xs[:-1] + 0.5 * np.diff(xs)
    assert np.max(np.abs(prof.zeta(mid) - src.zeta(mid))) < 1e-6
    assert np.max(np.abs(prof.dzeta(mid) - src.dzeta(mid))) < 1e-5
    # d2zeta is linearly interpolated: error ~ h^2/8 |zeta''''| ~ 2e-3 here
    assert np.max(np.abs(prof.d2zeta(mid) - src.d2zeta(mid))) < 5e-3
    assert prof.zeta(9.5) == 0.0 and prof.dzeta(-9.5) == 0.0


def test_profile_from_config(tmp_path):
    assert profile_from_config("zero").name == "zero"
    p = profile_from_config({"bump": {"A": 0.2, "width": 4.0}})
    assert p.zeta(0.0) == pytest.approx(0.2)
    p = profile_from_config({"algebraic": {"A": 0.1, "gamma": 0.7}})
    assert p.gamma_bar == 0.7
    src = algebraic_profile(0.3)
    xs = np.linspace(-5, 5, 201)
    path = tmp_path / "profile.csv"
    rows = np.column_stack([xs, src.zeta(xs), src.dzeta(xs), src.d2zeta(xs)])
    header = "x,zeta,dzeta,d2zeta"
    np.savetxt(path, rows, delimiter=",", header=header, comments="")
    p = profile_from_config({"table": str(path)})
    assert p.zeta(0.33) == pytest.approx(src.zeta(0.33), abs=1e-6)
    with pytest.raises(DomainError):
        profile_from_config("sine")


def test_background_frame_matches_exact():
    # background_L is the background frame's L as the geometry stage forms it
    prof = gaussian_slope_profile()
    model = membrane_model()
    ub = 0.83255461115769775  # point where zeta'(ub) = 0.5 for exp(-x^2)
    H0, L0, L1 = background_L(model, prof, ub)
    ref = background_frame_exact(1.0, float(prof.dzeta(ub)))
    assert H0 == 1.0
    assert L0 == pytest.approx(ref["L"][0], rel=1e-12)
    assert L1 == pytest.approx(ref["L"][1], rel=1e-12)
    # vectorized over zeta', the same closed form bit for bit
    ubs = np.linspace(-3, 3, 13)
    _, L0s, L1s = background_L(model, prof, ubs)
    refs = background_frame_exact(1.0, prof.dzeta(ubs))
    assert np.array_equal(L0s, refs["L"][0])
    assert np.array_equal(L1s, refs["L"][1])
    # frozen spot value at zp = 0.5 exactly
    ref_half = background_frame_exact(1.0, 0.5)
    assert ref_half["L"] == (-1.25, 0.75)
    assert ref_half["Lb"] == (-1.0, -1.0) and ref_half["Omega"] == -0.5


def test_background_frame_product_identity():
    # Omega^2 (Lb^0 L^1 - L^0 Lb^1) = -1/2 pointwise, no integration involved
    prof = gaussian_slope_profile()
    ub = np.linspace(-3, 3, 13)
    _, L0, L1 = background_L(membrane_model(), prof, ub)
    ref = background_frame_exact(1.0, prof.dzeta(ub))
    (Lb0, Lb1), Omega = ref["Lb"], ref["Omega"]
    det = Omega**2 * (Lb0 * L1 - L0 * Lb1)
    assert np.max(np.abs(det + 0.5)) < 1e-15


def test_phase_relabel_velocity_formula():
    prof = gaussian_slope_profile()
    model = membrane_model()
    u = np.linspace(-4, 4, 17)
    vp = phase_relabel_velocity(prof, model, u)
    assert np.max(np.abs(vp - (1.0 + np.exp(-u**2) ** 2))) < 1e-14
    # V' is the derivative of V (tolerance limited by the O(h^2) error of
    # the central difference and the rounding of V divided by the step)
    h = 1e-4
    fd = (phase_relabel(prof, model, u + h) - phase_relabel(prof, model, u - h)) / (2 * h)
    assert np.max(np.abs(fd - vp)) < 1e-5


def test_phase_relabel_positive_under_hyperbolicity():
    prof = bump_profile(0.4, width=3.0)
    vp = phase_relabel_velocity(prof, membrane_model(), np.linspace(-5, 5, 101))
    assert np.all(vp > 0)
