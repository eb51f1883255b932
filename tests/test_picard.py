"""Substitution-map solver: metric, ball, contraction, march agreement."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_compatible_data, make_zero_data

from nullwave.background import bump_profile
from nullwave.data_gauge import build_diagonal_data, perturbed_data
from nullwave.dn_core import march, rhs_wave, verify_envelopes
from nullwave.errors import (
    FixedPointDivergence,
    GridMismatch,
    InnerFixedPointDivergence,
)
from nullwave.grid import DNGrid, jet_sup
from nullwave.nonlinearity import polynomial_model
from nullwave.picard import (
    PicardConfig,
    _frozen_solve,
    _seed_state,
    _separable_jet_sup,
    _solve_xi,
    contraction_ratio,
    delta_from_smallness,
    in_ball,
    picard_apply,
    picard_fixed_point,
    picard_metric,
)
from nullwave.pipeline import run_pipeline
from nullwave.scenario import scenario_from_dict
from nullwave.state import FIELD_NAMES, DiagonalData, DNState


def _scenario(model, profile, radius=3.0, h=0.1, eps=1e-3):
    grid = DNGrid.square(radius, h)
    rect = perturbed_data(profile, eps=eps, center=0.5, width=1.2)
    data, _ = build_diagonal_data(rect, grid, model, profile)
    return grid, data


def _rand_state(grid, rng, amp=1e-2):
    fields = [amp * rng.standard_normal((grid.n_nodes, grid.n_nodes)) for _ in range(9)]
    return DNState(grid, *fields)


# ---------------------------------------------------------------- metric


def test_metric_weighted_bump_value():
    # A lone d_u psi defect of 1e-3 at u = 9 with gamma_bar = 1 is worth
    # 1e-3 (1 + 9)^2 = 0.1 in the metric.
    grid = DNGrid.square(10.0, 0.5)
    a = DNState.zeros(grid)
    b = DNState.zeros(grid)
    i = int(round((9.0 - grid.u_min) / grid.h))
    assert grid.u[i] == 9.0
    b.dpsi_u[i, 4] = 1e-3
    assert picard_metric(a, b, gamma_bar=1.0) == pytest.approx(0.1, rel=1e-14)
    assert picard_metric(b, a, gamma_bar=1.0) == pytest.approx(0.1, rel=1e-14)


def test_metric_axioms():
    grid = DNGrid.square(2.0, 0.25)
    rng = np.random.default_rng(7)
    a, b, c = (_rand_state(grid, rng) for _ in range(3))
    assert picard_metric(a, a, 0.7) == 0.0
    dab = picard_metric(a, b, 0.7)
    assert dab > 0.0
    assert picard_metric(b, a, 0.7) == dab
    assert dab <= picard_metric(a, c, 0.7) + picard_metric(c, b, 0.7) + 1e-15


@pytest.mark.parametrize("side", ["a", "b"])
@pytest.mark.parametrize("slot", ["psi", "psib", "dpsi_u", "dpsi_ub",
                                  "dpsib_u", "dpsib_ub"])
def test_nan_in_either_iterate_shows_in_the_metric(slot, side):
    # The other five arrays differ by a finite amount, which a dropped NaN
    # would read as the distance.
    grid = DNGrid.square(2.0, 0.25)
    rng = np.random.default_rng(11)
    pair = {"a": _rand_state(grid, rng), "b": _rand_state(grid, rng)}
    getattr(pair[side], slot)[4, 2] = np.nan
    assert np.isnan(picard_metric(pair["a"], pair["b"], 0.7))


def test_metric_rejects_grid_mismatch():
    a = DNState.zeros(DNGrid.square(2.0, 0.25))
    b = DNState.zeros(DNGrid.square(2.0, 0.125))
    with pytest.raises(GridMismatch):
        picard_metric(a, b)


def test_in_ball_envelopes():
    grid = DNGrid.square(2.0, 0.25)
    s = DNState.zeros(grid)
    s.psib[3, 5] = 0.05
    s.dpsi_ub[2, 4] = 0.01 / (1.0 + abs(grid.ub[4])) ** 2
    assert in_ball(s, 0.11, gamma_bar=1.0)
    assert not in_ball(s, 0.04, gamma_bar=1.0)  # psib exceeds delta
    assert not in_ball(s, 0.09, gamma_bar=1.0)  # dpsi_ub exceeds delta^2


@pytest.mark.parametrize("slot", ["psib", "dpsib_u", "dpsib_ub"])
def test_nan_jet_leaves_the_ball(slot):
    grid = DNGrid.square(2.0, 0.25)
    s = DNState.zeros(grid)
    s.psib[3, 5] = 0.05
    getattr(s, slot)[4, 2] = np.nan
    assert np.isnan(jet_sup(grid, s.psib, s.dpsib_u, s.dpsib_ub, 1.0))
    assert not in_ball(s, 0.11, gamma_bar=1.0)
    fits = verify_envelopes(s, 1.0)
    assert np.isnan(fits["psib"]) and np.isnan(fits["delta"])


def test_config_validation():
    with pytest.raises(ValueError):
        PicardConfig(delta=0.0)
    with pytest.raises(ValueError):
        PicardConfig(delta=0.1, tol=-1.0)
    with pytest.raises(ValueError):
        PicardConfig(delta=0.1, max_iter=0)


def test_delta_from_smallness_relation_holds():
    for eps0 in (1e-2, 1e-4, 0.0):
        for gb in (0.5, 1.0, 2.0):
            d = delta_from_smallness(eps0, gb)
            assert 6.0 * (1.0 + 1.0 / gb) * eps0 <= d * d
    with pytest.raises(ValueError):
        delta_from_smallness(1e-3, 0.0)


# ----------------------------------------------------------- one application


def test_apply_zero_everything_stays_zero(membrane, zero_prof):
    grid = DNGrid.square(2.0, 0.25)
    data = make_zero_data(grid)
    out = picard_apply(DNState.zeros(grid).freeze(), data, grid, membrane, zero_prof)
    for name in ("psi", "psib", "xi", "dpsi_u", "dpsib_ub"):
        assert np.all(getattr(out, name) == 0.0)


def test_apply_zero_iterate_propagates_linearly(membrane, bump03):
    # On the zero iterate the psi source vanishes identically, so the
    # first stage is pure transport: d_u psi constant along u-lines and
    # d_ub psi constant along ubar-lines, pinned to the diagonal data.
    grid = DNGrid.square(2.0, 0.25)
    data = make_compatible_data(grid, bump03)
    out = picard_apply(DNState.zeros(grid).freeze(), data, grid, membrane, bump03)
    n = grid.n_nodes
    want_u = np.broadcast_to(data.dpsi_u[:, None], (n, n))
    want_ub = np.broadcast_to(data.dpsi_ub[::-1][None, :], (n, n))
    assert np.array_equal(out.dpsi_u, want_u)
    assert np.array_equal(out.dpsi_ub, want_ub)
    # xi passes through untouched.
    assert np.all(out.xi == 0.0) and np.all(out.dxi_u == 0.0)


@pytest.mark.parametrize("order", ["forward", "reversed"])
def test_apply_shares_xi_with_its_input(membrane, bump03, order):
    # The map never touches xi: the image holds the input's own read-only
    # arrays rather than copies.
    grid = DNGrid.square(2.0, 0.25)
    data = make_compatible_data(grid, bump03)
    state = DNState.zeros(grid).freeze()
    out = picard_apply(state, data, grid, membrane, bump03, order)
    for name in ("xi", "dxi_u", "dxi_ub"):
        assert getattr(out, name) is getattr(state, name)
        assert not getattr(out, name).flags.writeable


def test_apply_rejects_bad_order_and_grid(membrane, bump03):
    grid = DNGrid.square(2.0, 0.25)
    data = make_compatible_data(grid, bump03)
    state = DNState.zeros(grid).freeze()
    with pytest.raises(ValueError):
        picard_apply(state, data, grid, membrane, bump03, order="sideways")
    other = make_compatible_data(DNGrid.square(3.0, 0.25), bump03)
    with pytest.raises(GridMismatch):
        picard_apply(state, other, grid, membrane, bump03)


# ------------------------------------------------------------ frozen solve


def test_frozen_solve_satisfies_box_scheme():
    # The closed-form solve must meet the march's per-cell equations on
    # every cell of both triangles, checked front by front as the sweep
    # would apply them.
    grid = DNGrid.square(2.0, 0.1)
    h = grid.h
    qq = 0.25 * h * h
    rng = np.random.default_rng(11)
    u, ub = grid.u[:, None], grid.ub[None, :]

    def smooth():
        a, b, c = rng.uniform(-1.5, 1.5, size=3)
        return np.sin(a * u + b * ub + c) * np.exp(-0.1 * (u * u + ub * ub))

    diag = {
        name: np.cos(rng.uniform(0.5, 2.0) * grid.u + rng.uniform(0.0, 3.0))
        for name in FIELD_NAMES
    }
    data = DiagonalData(s=grid.u, sigma=np.zeros(grid.n_nodes),
                        gamma_bar=1.0, eps0=1.0, **diag)
    sources = {name: smooth() for name in ("psi", "psib", "xi")}
    out = _frozen_solve(grid, data, sources)
    assert set(out) == set(FIELD_NAMES)

    for name, F in sources.items():
        f, fu, fub = out[name], out[f"d{name}_u"], out[f"d{name}_ub"]
        for arr, key in ((f, name), (fu, f"d{name}_u"), (fub, f"d{name}_ub")):
            assert np.array_equal(arr[grid.diagonal()], diag[key])
        tol = 1e-13 * max(np.max(np.abs(a)) for a in (f, fu, fub, F))
        for d in (1, -1):
            hh = 0.5 * h * d
            for m, (i, j) in enumerate(grid.fronts(d), 1):
                iw, js = i - d, j - d
                u_transport = fub[i, j] - fub[iw, j] - hh * (F[iw, j] + F[i, j])
                ub_transport = fu[i, j] - fu[i, js] - hh * (F[i, js] + F[i, j])
                assert np.max(np.abs(u_transport)) <= tol
                assert np.max(np.abs(ub_transport)) <= tol
                if m == 1:
                    want = 0.5 * (f[i, js] + hh * (fub[i, js] + fub[i, j])) \
                        + 0.5 * (f[iw, j] + hh * (fu[iw, j] + fu[i, j]))
                else:
                    want = f[iw, j] + f[i, js] - f[iw, js] \
                        + qq * (F[i, j] + F[iw, j] + F[i, js] + F[iw, js])
                assert np.max(np.abs(f[i, j] - want)) <= tol


# ------------------------------------------------------------- fixed point


def test_fixed_point_matches_march(membrane, bump03):
    grid, data = _scenario(membrane, bump03)
    cfg = PicardConfig(delta=delta_from_smallness(data.eps0, data.gamma_bar))
    fp, info = picard_fixed_point(data, grid, membrane, bump03, cfg)
    assert info["converged"] and info["iterations"] <= 10
    assert info["residuals"][-1] <= cfg.tol
    sol = march(data, grid, membrane, bump03)
    # Independent routes to the same discrete equations: agreement far
    # below the iteration tolerance, not mere same-order consistency.
    assert picard_metric(fp, sol, data.gamma_bar) <= 1e-9
    # The xi completion reproduces the marched xi as well (H' = 0 makes
    # its source vanish, so one frozen pass is exact).
    assert np.max(np.abs(fp.xi - sol.xi)) <= 1e-12
    assert np.max(np.abs(fp.dxi_ub - sol.dxi_ub)) <= 1e-12


@given(eps=st.floats(1e-5, 1e-2), center=st.floats(-1.5, 1.5),
       radius=st.sampled_from([2.0, 3.0]))
@settings(max_examples=12)
def test_routes_agree_over_random_small_data(membrane, bump03, eps, center,
                                             radius):
    # Criterion 5 over random pulses: the Picard fixed point and the march
    # solve the same discrete equations, at the criterion's tolerance.
    grid = DNGrid.square(radius, 0.1)
    rect = perturbed_data(bump03, eps=eps, center=center, width=1.2)
    data, _ = build_diagonal_data(rect, grid, membrane, bump03)
    cfg = PicardConfig(delta=delta_from_smallness(data.eps0, data.gamma_bar))
    fixed, _ = picard_fixed_point(data, grid, membrane, bump03, cfg)
    sol = march(data, grid, membrane, bump03)
    assert picard_metric(fixed, sol, data.gamma_bar) <= 1e-6


def test_fixed_point_order_independent(membrane, bump03):
    # Stage order affects the route, not the destination: both orders
    # solve the same discrete equations at their fixed points.
    grid, data = _scenario(membrane, bump03)
    cfg = PicardConfig(delta=delta_from_smallness(data.eps0, data.gamma_bar))
    fwd, _ = picard_fixed_point(data, grid, membrane, bump03, cfg)
    rev, info = picard_fixed_point(data, grid, membrane, bump03, cfg, order="reversed")
    assert info["order"] == "reversed"
    assert picard_metric(fwd, rev, data.gamma_bar) <= 10.0 * cfg.tol


def test_fixed_point_divergence_is_its_own_error(membrane, bump03):
    # A missed global tolerance is the iteration's failure, not a march
    # cell's: the two error types must stay distinguishable.
    grid, data = _scenario(membrane, bump03, radius=2.0)
    delta = delta_from_smallness(data.eps0, data.gamma_bar)
    with pytest.raises(FixedPointDivergence) as exc:
        picard_fixed_point(data, grid, membrane, bump03,
                           PicardConfig(delta=delta, max_iter=1))
    assert not isinstance(exc.value, InnerFixedPointDivergence)
    # The xi completion stalls the same way: one pass from xi = 0 cannot
    # meet the tolerance when the data carry xi.
    pair = DNState.zeros(grid).freeze()
    assert np.max(np.abs(data.xi)) > 0.0
    with pytest.raises(FixedPointDivergence):
        _solve_xi(pair, data, grid, membrane, bump03, tol=1e-12, max_iter=1)


def _xi_completion_reference(pair, data, grid, model, profile, tol, max_iter):
    # Every pass forms all three sources and re-integrates psi and psib
    # along with xi, although their sources depend on the pair alone.
    zp = profile.dzeta(grid.ub)
    zpp = profile.d2zeta(grid.ub)
    cur = pair
    for n in range(1, max_iter + 1):
        f1, f2, f3 = rhs_wave(
            model, zp, zpp, pair.psi, pair.psib,
            pair.dpsi_u, pair.dpsi_ub, pair.dpsib_u, pair.dpsib_ub,
            cur.dxi_u, cur.dxi_ub,
        )
        fields = _frozen_solve(grid, data, {"psi": f1, "psib": f2, "xi": f3})
        new = DNState(grid, **fields)
        gap = max(np.max(np.abs(getattr(new, k) - getattr(cur, k)))
                  for k in ("xi", "dxi_u", "dxi_ub"))
        cur = new
        if gap <= tol:
            return cur, n
    raise AssertionError("reference xi completion did not settle")


def test_xi_completion_integrates_the_pair_once(bump03):
    # H' != 0, so xi needs several passes; the pair is a few map
    # applications from zero and need not be converged.
    model = polynomial_model(0.15, -0.05, 0.02)
    grid = DNGrid.square(2.0, 0.1)
    data = make_compatible_data(grid, bump03)
    pair = DNState.zeros(grid).freeze()
    for _ in range(3):
        pair = picard_apply(pair, data, grid, model, bump03)
    out = _solve_xi(pair, data, grid, model, bump03, tol=1e-12, max_iter=40)

    zp, zpp = bump03.dzeta(grid.ub), bump03.d2zeta(grid.ub)
    f1, f2, _ = rhs_wave(
        model, zp, zpp, pair.psi, pair.psib,
        pair.dpsi_u, pair.dpsi_ub, pair.dpsib_u, pair.dpsib_ub,
        pair.dxi_u, pair.dxi_ub,
    )
    direct = _frozen_solve(grid, data, {"psi": f1, "psib": f2})
    for name, arr in direct.items():
        assert np.array_equal(getattr(out, name), arr), name

    ref, passes = _xi_completion_reference(pair, data, grid, model, bump03,
                                           1e-12, 40)
    assert passes >= 3
    for name, arr in ref.arrays().items():
        assert np.array_equal(getattr(out, name), arr), name


def test_pipeline_records_fixed_point_divergence():
    scen = scenario_from_dict({
        "name": "picard-budget",
        "model": "membrane",
        "profile": {"bump": {"A": 0.3, "width": 6.0}},
        "perturbation": {"eps": 1e-3, "center": 0.5, "width": 1.2},
        "grid": {"radius": 2.0, "h": 0.1},
        "solver": {"max_iter": 1, "rect_t_max": 0.5},
    })
    rep = run_pipeline(scen).report
    assert rep["errors"][0]["stage"] == "picard"
    assert rep["errors"][0]["type"] == "FixedPointDivergence"
    assert len(rep["errors"]) == 1
    assert "picard" not in rep["stages"]
    assert {"march", "geometry", "crossval"} <= set(rep["stages"])


# -------------------------------------------------------------- contraction


def test_contraction_ratios_small_data(membrane, bump03):
    grid, data = _scenario(membrane, bump03)
    cfg = PicardConfig(delta=delta_from_smallness(data.eps0, data.gamma_bar))
    res = contraction_ratio(grid, data, bump03, membrane, cfg, seed=0)
    assert len(res["ratios"]) == 5
    assert all(0.0 <= r < 1.0 for r in res["ratios"])
    assert res["in_ball"] is True
    assert res["smallness"]["data_ok"] is True
    # The analytic radius threshold is reported, not enforced: at this
    # deliberately plump delta it fails, and the run contracts anyway.
    assert res["smallness"]["delta_bound"] > 0.0
    assert res["order"] == "forward"


def test_contraction_reproducible_and_seed_sensitive(membrane, bump03):
    grid, data = _scenario(membrane, bump03)
    cfg = PicardConfig(delta=delta_from_smallness(data.eps0, data.gamma_bar))
    a = contraction_ratio(grid, data, bump03, membrane, cfg, seed=3)
    b = contraction_ratio(grid, data, bump03, membrane, cfg, seed=3)
    c = contraction_ratio(grid, data, bump03, membrane, cfg, seed=4)
    assert a["ratios"] == b["ratios"]
    assert a["ratios"] != c["ratios"]


def test_contraction_zero_data_linear_model_is_constant_map(linear, zero_prof):
    grid = DNGrid.square(2.0, 0.25)
    data = make_zero_data(grid)
    cfg = PicardConfig(delta=0.1)
    res = contraction_ratio(grid, data, zero_prof, linear, cfg, seed=2)
    assert res["ratios"] == [0.0] * 5
    assert res["in_ball"] is True


def _contraction_reference(grid, data, profile, model, cfg, order, n_seeds, seed):
    # Every seed drawn first, then every image formed, all held at once.
    gb = data.gamma_bar
    rng = np.random.default_rng(seed)
    seeds = [_seed_state(grid, cfg.delta, gb, rng)[0] for _ in range(n_seeds)]
    images = [picard_apply(s, data, grid, model, profile, order) for s in seeds]
    ratios = []
    for a, b, ta, tb in zip(seeds[:-1], seeds[1:], images[:-1], images[1:]):
        den = picard_metric(a, b, gb)
        num = picard_metric(ta, tb, gb)
        ratios.append(float(num / den) if den > 0.0 else 0.0)
    inside = all(in_ball(s, cfg.delta, gb) for s in seeds + images)
    return ratios, inside


@pytest.mark.parametrize("order", ["forward", "reversed"])
@pytest.mark.parametrize("seed", [0, 5])
@pytest.mark.parametrize("shrink", [1.0, 0.1], ids=["ball", "outside"])
def test_streamed_contraction_matches_all_at_once(membrane, bump03, order,
                                                  seed, shrink):
    # shrink = 0.1 puts delta^2 well below the data size, so the images
    # leave the ball and in_ball must come out False both ways.
    grid, data = _scenario(membrane, bump03)
    cfg = PicardConfig(
        delta=shrink * delta_from_smallness(data.eps0, data.gamma_bar))
    res = contraction_ratio(grid, data, bump03, membrane, cfg, order=order,
                            n_seeds=5, seed=seed)
    ratios, inside = _contraction_reference(grid, data, bump03, membrane, cfg,
                                            order, 5, seed)
    assert res["ratios"] == ratios
    assert res["in_ball"] is inside
    assert inside is (shrink == 1.0)


def test_contraction_memory_does_not_grow_with_seeds(peak_fields, membrane,
                                                    bump03):
    grid, data = _scenario(membrane, bump03, radius=3.0, h=0.05)
    cfg = PicardConfig(delta=delta_from_smallness(data.eps0, data.gamma_bar))

    def peak(n_seeds):
        return peak_fields(lambda: contraction_ratio(
            grid, data, bump03, membrane, cfg, n_seeds=n_seeds, seed=1), grid)

    peak(2)  # warm any one-time allocations
    assert peak(12) <= peak(2) + 2


def _seed_state_formed(grid, delta, gamma_bar, rng):
    """_seed_state with each bump's jet_sup taken from its formed fields,
    which are then copied scaled: the reference for the 1-D factors."""
    def bump(bound):
        mu_u, mu_b = rng.uniform(-0.5, 0.5, size=2) * grid.u_max
        w_u, w_b = rng.uniform(0.35, 0.9, size=2) * (grid.u_max + 1.0)
        sign = rng.choice((-1.0, 1.0))
        gu = np.exp(-(((grid.u - mu_u) / w_u) ** 2))
        gb = np.exp(-(((grid.ub - mu_b) / w_b) ** 2))
        dgu = -2.0 * (grid.u - mu_u) / w_u**2 * gu
        dgb = -2.0 * (grid.ub - mu_b) / w_b**2 * gb
        f = sign * gu[:, None] * gb[None, :]
        f_u = sign * dgu[:, None] * gb[None, :]
        f_ub = sign * gu[:, None] * dgb[None, :]
        cap = bound / jet_sup(grid, f, f_u, f_ub, gamma_bar)
        return cap * f, cap * f_u, cap * f_ub

    psi, dpsi_u, dpsi_ub = bump(0.8 * delta * delta)
    psib, dpsib_u, dpsib_ub = bump(0.8 * delta)
    zeros = np.zeros_like(psi)
    return DNState(grid, psi, psib, zeros,
                   dpsi_u, dpsi_ub, dpsib_u, dpsib_ub, zeros, zeros)


@pytest.mark.parametrize("radius,h", [(2.0, 0.1), (3.0, 0.05)])
def test_seed_states_match_formed_fields(radius, h):
    # Twenty draws from one generator, so the bumps' centres, widths and
    # signs vary; every field equals the reference bit for bit, and the
    # ball check read off the factors is in_ball of the formed fields.
    grid = DNGrid.square(radius, h)
    got_rng, want_rng = np.random.default_rng(7), np.random.default_rng(7)
    for _ in range(20):
        got, inside = _seed_state(grid, 0.3, 0.5, got_rng)
        want = _seed_state_formed(grid, 0.3, 0.5, want_rng)
        for name, arr in want.arrays().items():
            assert np.array_equal(getattr(got, name), arr), name
        assert inside is in_ball(want, 0.3, 0.5) is True
    assert not got.xi.flags.writeable and got.xi.strides == (0, 0)


@given(seed=st.integers(0, 2**32 - 1), gamma=st.floats(0.1, 3.0))
@settings(max_examples=40)
def test_separable_jet_sup_is_jet_sup_of_formed_fields(seed, gamma):
    # Factors of either sign over six decades, with zeros and ties.
    grid = DNGrid.square(2.0, 0.1)
    rng = np.random.default_rng(seed)
    n = grid.n_nodes
    a, da, b, db = (rng.standard_normal(n) * 10.0 ** rng.uniform(-3, 3)
                    for _ in range(4))
    a[rng.integers(n)] = 0.0
    db[rng.integers(n, size=3)] = -db[0]
    want = jet_sup(grid, a[:, None] * b[None, :], da[:, None] * b[None, :],
                   a[:, None] * db[None, :], gamma)
    assert _separable_jet_sup(grid, a, da, b, db, gamma) == want
    # a scale applied after the product, as the seeds apply theirs
    scale = 10.0 ** rng.uniform(-3, 3)
    want = jet_sup(grid, (a[:, None] * b[None, :]) * scale,
                   (da[:, None] * b[None, :]) * scale,
                   (a[:, None] * db[None, :]) * scale, gamma)
    assert _separable_jet_sup(grid, a, da, b, db, gamma, scale) == want


def test_reversed_order_degrades_contraction(membrane):
    # Inflating the background by x4 makes the stage order visible: the
    # reversed map's worst ratio sits well above the forward one's while
    # both still contract.
    prof = bump_profile(1.2, width=6.0)
    grid, data = _scenario(membrane, prof)
    cfg = PicardConfig(delta=delta_from_smallness(data.eps0, data.gamma_bar))
    fwd = contraction_ratio(grid, data, prof, membrane, cfg, seed=1)
    rev = contraction_ratio(grid, data, prof, membrane, cfg, order="reversed", seed=1)
    assert max(fwd["ratios"]) < 1.0
    assert max(rev["ratios"]) >= 1.1 * max(fwd["ratios"])


# ----------------------------------------------------- data dependence


def test_lipschitz_in_the_data(membrane, bump03):
    # Solutions launched from data of size eps stay within C eps of the
    # background in the iteration metric, with C stable across decades.
    grid = DNGrid.square(3.0, 0.1)
    zero = march(make_zero_data(grid, gamma_bar=1.0), grid, membrane, bump03)
    consts = []
    for eps in (1e-3, 1e-4, 1e-5):
        rect = perturbed_data(bump03, eps=eps, center=0.5, width=1.2)
        data, _ = build_diagonal_data(rect, grid, membrane, bump03)
        sol = march(data, grid, membrane, bump03)
        consts.append(picard_metric(sol, zero, data.gamma_bar) / eps)
    top, bot = max(consts), min(consts)
    assert top / bot < 1.3
