"""Acceptance gate: one test per criterion, every tolerance stated inline.

``pytest tests/test_acceptance.py -v`` prints one pass/fail line per
criterion; add ``-s`` to also see the measured numbers each test prints.

Sizing notes shared by several tests:

* Convergence orders are measured on grid-halving ladders whose coarsest
  level already sits in the asymptotic regime.  The first halving from
  h = 0.08 does not for the rectangular-route error (order 1.72) or the
  sigma residual (order 1.60), so those ladders run h = 0.04, 0.02, 0.01.
* For the linear model the double-null box march reproduces d'Alembert
  exactly: the update is the discrete form of the separable solution, so
  its error sits at rounding level and carries no measurable order.  The
  second-order claim is therefore checked on the rectangular route while
  the double-null route is held to 1e-12 outright (criterion 1).
"""

from __future__ import annotations

import math
from time import perf_counter

import numpy as np
import pytest

from nullwave import crossval as cv
from nullwave.background import bump_profile, envelope_integral
from nullwave.data_gauge import (
    background_data,
    build_diagonal_data,
    closeness_certificate,
    perturbed_data,
)
from nullwave.dn_core import march, sigma_wave_residual, verify_envelopes
from nullwave.geometry import (
    degeneracy_monitor,
    integrate_frame,
    reconstruct_coords,
)
from nullwave.grid import DNGrid
from nullwave.nonlinearity import eval_coeffs
from nullwave.oracles import background_frame_exact, solve_model_system
from nullwave.picard import (
    PicardConfig,
    contraction_ratio,
    delta_from_smallness,
    in_ball,
    picard_fixed_point,
    picard_metric,
)


def _order(coarse: float, fine: float) -> float:
    return math.log2(coarse / fine)


def _march_setup(model, profile, radius, h, eps, center=0.5, width=1.2, **kw):
    """Pulse data on the diagonal slice of a square block, marched."""
    grid = DNGrid.square(radius, h)
    rect = perturbed_data(profile, eps=eps, center=center, width=width, **kw)
    data, gauge = build_diagonal_data(rect, grid, model, profile)
    state = march(data, grid, model, profile)
    return grid, rect, data, gauge, state


# ---------------------------------------------------------------------------
# 1. linear oracle, both routes


def test_criterion_01_linear_oracle_both_routes(linear, zero_prof):
    """Standing pulse vs d'Alembert: sup error, order 2.0 +/- 0.2, <= 30 s/run."""
    rect_data = perturbed_data(zero_prof, eps=0.5, center=0.0, width=2.0,
                               direction="standing")

    def exact(t, x):
        return 0.5 * (rect_data.phi0(x - t) + rect_data.phi0(x + t))

    hs = (0.04, 0.02, 0.01)
    dn_err, rect_err, runtimes = {}, {}, []
    for h in hs:
        t0 = perf_counter()
        grid = DNGrid.square(6.0, h)
        data, _ = build_diagonal_data(rect_data, grid, linear, zero_prof)
        state = march(data, grid, linear, zero_prof)
        tt = 0.5 * (grid.u[:, None] + grid.ub[None, :])
        xx = 0.5 * (grid.u[:, None] - grid.ub[None, :])
        dn_err[h] = float(np.max(np.abs(state.xi - exact(tt, xx))))
        runtimes.append(perf_counter() - t0)

        t0 = perf_counter()
        rg = cv.RectGrid(-8.0, 8.0, h, 2.0, cfl=0.45)
        st = cv.rect_solve(rect_data, linear, rg, zero_prof, dissipation=0.0)
        rect_err[h] = float(np.max(np.abs(
            st.phi - exact(st.t[:, None], st.x[None, :]))))
        runtimes.append(perf_counter() - t0)

    orders = [_order(rect_err[0.04], rect_err[0.02]),
              _order(rect_err[0.02], rect_err[0.01])]
    print(f"[criterion 1] dn sup {max(dn_err.values()):.3e} (exact scheme), "
          f"rect sup@0.02 {rect_err[0.02]:.3e}, rect orders "
          f"{orders[0]:.3f}/{orders[1]:.3f}, slowest run {max(runtimes):.2f}s")
    # the box march solves the linear model exactly; hold it to rounding
    assert max(dn_err.values()) <= 1e-12
    assert rect_err[0.02] <= 5e-3
    for o in orders:
        assert 1.8 <= o <= 2.2
    assert max(runtimes) <= 30.0


# ---------------------------------------------------------------------------
# 2. time-slot coefficient of the membrane model


def test_criterion_02_membrane_time_slot_identity(membrane):
    """|H(sigma) - 1| <= 1e-12 on 10^4 points of [-0.5, 0.5]."""
    s = np.linspace(-0.5, 0.5, 10_000)
    H = np.asarray(eval_coeffs(membrane, s).H, dtype=float)
    dev = float(np.max(np.abs(H - 1.0)))
    print(f"[criterion 2] max |H - 1| = {dev:.3e} over {s.size} points")
    assert dev <= 1e-12


# ---------------------------------------------------------------------------
# 3. background reproduced exactly


def test_criterion_03_background_exactness(membrane):
    """Unit-size profile marches to zero perturbation; frame matches closed form."""
    base = bump_profile(1.0, width=6.0)
    prof = bump_profile(1.0 / base.M_zeta, width=6.0)
    assert prof.M_zeta == pytest.approx(1.0, abs=1e-6)

    grid = DNGrid.square(6.0, 0.05)
    data, gauge = build_diagonal_data(background_data(prof), grid, membrane,
                                      prof)
    state = march(data, grid, membrane, prof)
    field_sup = max(float(np.max(np.abs(getattr(state, n))))
                    for n in ("psi", "psib", "xi"))

    frame = integrate_frame(state, gauge, membrane, prof)
    coords = reconstruct_coords(frame, membrane, prof)
    bg = background_frame_exact(float(eval_coeffs(membrane, 0.0).H),
                                prof.dzeta(grid.ub))
    frame_dev = max(
        float(np.max(np.abs(frame.L0 - bg["L"][0][None, :]))),
        float(np.max(np.abs(frame.L1 - bg["L"][1][None, :]))),
        float(np.max(np.abs(frame.Lb0 - bg["Lb"][0]))),
        float(np.max(np.abs(frame.Lb1 - bg["Lb"][1]))),
    )
    omega_dev = float(np.max(np.abs(frame.Omega + 0.5)))
    detj_dev = float(np.max(np.abs(coords.detj + 0.5)))
    print(f"[criterion 3] M_zeta {prof.M_zeta:.12f}, field sup {field_sup:.3e}, "
          f"frame dev {frame_dev:.3e}, |Omega+1/2| {omega_dev:.3e}, "
          f"|detj+1/2| {detj_dev:.3e}")
    assert field_sup <= 1e-12
    assert frame_dev <= 1e-10
    assert omega_dev <= 1e-10
    assert detj_dev <= 1e-10


# ---------------------------------------------------------------------------
# 4. fitted envelope amplitude linear in the data size on a big block


def test_criterion_04_envelope_fit_linear_in_amplitude(membrane, bump03):
    """delta_fit/eps constant within a factor 2 across eps; weighted bounds hold."""
    gb = bump03.gamma_bar
    grid = DNGrid.square(40.0, 0.1)
    fits, balls = {}, {}
    for eps in (1e-2, 1e-3, 1e-4):
        rect = perturbed_data(bump03, eps=eps, center=0.5, width=1.2)
        cert = closeness_certificate(rect, bump03)
        data, _ = build_diagonal_data(rect, grid, membrane, bump03)
        state = march(data, grid, membrane, bump03)
        fits[eps] = verify_envelopes(state, gb)["delta"]
        balls[eps] = in_ball(state, delta_from_smallness(cert["eps_bar"], gb),
                             gb)
    ratios = [fits[e] / e for e in fits]
    spread = max(ratios) / min(ratios)
    print(f"[criterion 4] delta_fit/eps = "
          f"{', '.join(f'{r:.4f}' for r in ratios)} (spread {spread:.5f}), "
          f"in-ball {list(balls.values())}")
    assert spread <= 2.0
    assert all(balls.values())


# ---------------------------------------------------------------------------
# 5. smallness-sized contraction and agreement of the two routes


def test_criterion_05_contraction_and_route_agreement(membrane, bump03):
    """Seeded ratios < 1 with delta from the data measure; routes agree to 1e-6."""
    grid = DNGrid.square(20.0, 0.05)
    rect = perturbed_data(bump03, eps=1e-3, center=0.5, width=1.2)
    data, _ = build_diagonal_data(rect, grid, membrane, bump03)
    gb = data.gamma_bar
    delta = delta_from_smallness(data.eps0, gb)
    cfg = PicardConfig(delta=delta)

    state = march(data, grid, membrane, bump03)
    fixed, info = picard_fixed_point(data, grid, membrane, bump03, cfg)
    gap = picard_metric(fixed, state, gb)

    con = contraction_ratio(grid, data, bump03, membrane, cfg, n_seeds=6,
                            seed=0)
    print(f"[criterion 5] eps0 {data.eps0:.4f} -> delta {delta:.4f}, "
          f"data_ok {con['smallness']['data_ok']}, "
          f"{len(con['ratios'])} ratios max {max(con['ratios']):.3e}, "
          f"fixed-point vs march {gap:.3e} ({info['iterations']} iters)")
    assert con["smallness"]["data_ok"] is True
    assert len(con["ratios"]) >= 5
    assert max(con["ratios"]) < 1.0
    assert info["converged"]
    assert gap <= 1e-6
    assert in_ball(state, delta, gb)


# ---------------------------------------------------------------------------
# 6. iteration order matters once the profile is large


def test_criterion_06_reversed_order_degrades(membrane, bump03):
    """At 4x the profile mass the reversed sweep contracts measurably worse."""
    prof = bump_profile(1.2, width=6.0)
    assert prof.M_zeta == pytest.approx(4.0 * bump03.M_zeta, rel=1e-12)

    grid = DNGrid.square(6.0, 0.1)
    data, _ = build_diagonal_data(
        perturbed_data(prof, eps=1e-3, center=0.5, width=1.2), grid, membrane,
        prof)
    cfg = PicardConfig(delta=delta_from_smallness(data.eps0, data.gamma_bar))
    fwd = contraction_ratio(grid, data, prof, membrane, cfg, order="forward",
                            n_seeds=6, seed=0)
    rev = contraction_ratio(grid, data, prof, membrane, cfg, order="reversed",
                            n_seeds=6, seed=0)
    max_fwd, max_rev = max(fwd["ratios"]), max(rev["ratios"])
    print(f"[criterion 6] forward max {max_fwd:.4f}, reversed max "
          f"{max_rev:.4f} ({max_rev / max_fwd:.1f}x)")
    assert max_fwd < 1.0
    assert max_rev >= 1.1 * max_fwd


# ---------------------------------------------------------------------------
# 7. frame deviation linear in the data; cheap model route tracks the full one


def test_criterion_07_frame_deviation_and_model_route(membrane, bump03):
    """sup frame deviation ~ eps within factor 2; model system within budget."""
    zsup = float(np.max(np.abs(np.asarray(
        bump03.dzeta(np.arange(-6.0, 6.0, 0.01))))))
    devs, model_errs, budgets = {}, {}, {}
    for eps in (1e-2, 1e-3, 1e-4):
        grid, _, data, gauge, state = _march_setup(membrane, bump03, 6.0,
                                                   0.05, eps)
        frame = integrate_frame(state, gauge, membrane, bump03)
        coords = reconstruct_coords(frame, membrane, bump03)
        devs[eps] = degeneracy_monitor(frame, coords)["sup_frame_deviation"]
        mf = solve_model_system(gauge, grid, membrane, bump03)
        model_errs[eps] = max(float(np.max(np.abs(mf.L0 - frame.L0))),
                              float(np.max(np.abs(mf.L1 - frame.L1))))
        budgets[eps] = 10.0 * (zsup * data.eps0 + grid.h ** 2)
        assert model_errs[eps] <= budgets[eps]
    ratios = [devs[e] / e for e in devs]
    spread = max(ratios) / min(ratios)
    print(f"[criterion 7] dev/eps = {', '.join(f'{r:.4f}' for r in ratios)} "
          f"(spread {spread:.3f}); model-vs-full "
          f"{', '.join(f'{model_errs[e]:.2e}<={budgets[e]:.2e}' for e in devs)}")
    assert spread <= 2.0


# ---------------------------------------------------------------------------
# 8. chart regularity: curl and pullback mismatch at second order


def test_criterion_08_chart_regularity_and_pullback(membrane, bump03):
    """Curl and pullback mismatch drop at order ~2; monitor stays green."""
    rect_data = perturbed_data(bump03, eps=1e-3, center=0.5, width=1.2)
    hs = (0.08, 0.04, 0.02)
    sups, curls, degens = {}, {}, {}
    for h in hs:
        grid = DNGrid.square(6.0, h)
        data, gauge = build_diagonal_data(rect_data, grid, membrane, bump03)
        state = march(data, grid, membrane, bump03)
        frame = integrate_frame(state, gauge, membrane, bump03)
        coords = reconstruct_coords(frame, membrane, bump03)
        degens[h] = degeneracy_monitor(frame, coords)["ok"]
        curls[h] = coords.curl_sup
        rg = cv.RectGrid(-8.0, 8.0, h, 2.0, cfl=0.45)
        rect = cv.rect_solve(rect_data, membrane, rg, bump03)
        comp = cv.pullback_compare(state, coords, rect, membrane, bump03)
        sups[h] = max(comp["sup_diff"].values())

    pull_orders = [_order(sups[0.08], sups[0.04]),
                   _order(sups[0.04], sups[0.02])]
    curl_orders = [_order(curls[0.08], curls[0.04]),
                   _order(curls[0.04], curls[0.02])]
    print(f"[criterion 8] pullback sup@0.02 {sups[0.02]:.3e}, orders "
          f"{pull_orders[0]:.3f}/{pull_orders[1]:.3f}; curl orders "
          f"{curl_orders[0]:.3f}/{curl_orders[1]:.3f}; monitor "
          f"{list(degens.values())}")
    assert sups[0.02] <= 1e-2
    for o in pull_orders + curl_orders:
        assert 1.6 <= o <= 2.4
    assert all(degens.values())


# ---------------------------------------------------------------------------
# 9. slaved sigma satisfies its wave identity at second order


def test_criterion_09_sigma_residual_second_order(membrane, bump03):
    """Residual of the sigma identity drops at order ~2 for each data size."""
    all_orders = {}
    for eps in (1e-2, 1e-3):
        res = {}
        for h in (0.04, 0.02, 0.01):
            _, _, _, _, state = _march_setup(membrane, bump03, 6.0, h, eps)
            res[h] = sigma_wave_residual(state, membrane, bump03)
        all_orders[eps] = [_order(res[0.04], res[0.02]),
                           _order(res[0.02], res[0.01])]
    print(f"[criterion 9] orders "
          + "; ".join(f"eps={e:g}: {o[0]:.3f}/{o[1]:.3f}"
                      for e, o in all_orders.items()))
    for orders in all_orders.values():
        for o in orders:
            assert 1.6 <= o <= 2.4


# ---------------------------------------------------------------------------
# 10. closed-form envelope bound


def test_criterion_10_envelope_integral_bound(membrane):
    """Integral <= 2 eps (1 + 1/gamma) on 50 random draws; gap = 2 eps."""
    rng = np.random.default_rng(0)
    gaps = []
    for _ in range(50):
        eps = float(10.0 ** rng.uniform(-4.0, 0.0))
        gamma = float(10.0 ** rng.uniform(-1.0, 0.5))
        val = envelope_integral(eps, gamma)
        bound = 2.0 * eps * (1.0 + 1.0 / gamma)
        assert val <= bound * (1.0 + 1e-12)
        gap = bound - val
        assert gap == pytest.approx(2.0 * eps, rel=1e-4)
        gaps.append(gap / eps)
    print(f"[criterion 10] 50 draws within bound; gap/eps in "
          f"[{min(gaps):.6f}, {max(gaps):.6f}] (exactly 2: the integral "
          f"itself is 2 eps / gamma)")
