"""Rectangular reference solver, pullback comparison, flux and phase diagnostics."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import nullwave.crossval as crossval_mod
from nullwave import grid as grid_mod
from nullwave.background import algebraic_profile, bump_profile, phase_function
from nullwave.crossval import (
    N_GHOST,
    RectGrid,
    RectState,
    _bilinear,
    _cycle_stops,
    flux_residual,
    phase_shift,
    pullback_compare,
    rect_solve,
)
from nullwave.data_gauge import (
    RectInitialData,
    _pulse_functions,
    background_data,
    build_diagonal_data,
    perturbed_data,
    solve_phi_tt,
)
from nullwave.dn_core import march
from nullwave.errors import (
    CFLViolation,
    GridMismatch,
    HyperbolicityLoss,
    InsufficientDomain,
    InversionFailure,
    OutOfImage,
)
from nullwave.geometry import (full_field_jet, integrate_frame,
                               reconstruct_coords)
from nullwave.grid import DNGrid
from nullwave.nonlinearity import polynomial_model
from nullwave.oracles import background_rect_state, phase_relabel


def _dn_pipeline(model, profile, radius, h, rect_data):
    grid = DNGrid.square(radius, h)
    data, gauge = build_diagonal_data(rect_data, grid, model, profile)
    state = march(data, grid, model, profile)
    frame = integrate_frame(state, gauge, model, profile)
    coords = reconstruct_coords(frame, model, profile)
    return state, coords


def _gaussian_pair(amp, phi0_aligned):
    # Two unit-width pulses at x = +-2.5 heading toward each other; with
    # phi0_aligned their time derivatives reinforce at the crossing.
    bump = lambda x, c: np.exp(-((np.asarray(x, float) - c) ** 2))
    dbump = lambda x, c: -2.0 * (np.asarray(x, float) - c) * bump(x, c)
    s = 1.0 if phi0_aligned else -1.0
    return RectInitialData(
        phi0=lambda x: np.zeros_like(np.asarray(x, float)),
        phi0p=lambda x: amp * (bump(x, 2.5) - s * bump(x, -2.5)),
        phi0pp=lambda x: amp * (dbump(x, 2.5) - s * dbump(x, -2.5)),
        phi1=lambda x: amp * (bump(x, 2.5) + s * bump(x, -2.5)),
        phi1p=lambda x: amp * (dbump(x, 2.5) + s * dbump(x, -2.5)),
    )


# ------------------------------------------------------------------ solver


def test_rect_grid_validation():
    with pytest.raises(GridMismatch):
        RectGrid(1.0, -1.0, 0.1, 1.0)
    with pytest.raises(GridMismatch):
        RectGrid(-1.0, 1.0, 0.0, 1.0)
    with pytest.raises(GridMismatch):
        RectGrid(-1.0, 1.0, 0.1, -1.0)
    with pytest.raises(GridMismatch):
        RectGrid(-1.0, 1.0, 0.1, 0.0)
    with pytest.raises(GridMismatch):
        RectGrid(-1.0, 1.0, 0.1, 1.0, cfl=1.5)
    with pytest.raises(GridMismatch):
        RectGrid(-1.0, 1.0, 0.3, 1.0)  # dx does not divide the extent
    with pytest.raises(GridMismatch, match="evenly divide"):
        RectGrid(-3.5, 3.5, 0.3, 0.6)


def test_linear_pulse_matches_dalembert(linear, zero_prof):
    data = perturbed_data(zero_prof, eps=0.5, center=0.0, width=2.0, direction="left")
    zeta, _, _ = _pulse_functions("bump", 0.5, 0.0, 2.0, 1.0)
    errs = {}
    for dx in (0.1, 0.05):
        st = rect_solve(data, linear, RectGrid(-8.0, 8.0, dx, 1.5), zero_prof,
                        dissipation=0.0)
        exact = zeta(st.x[None, :] + st.t[:, None])
        errs[dx] = np.max(np.abs(st.phi - exact))
    assert errs[0.1] <= 2e-3
    assert 1.6 <= np.log2(errs[0.1] / errs[0.05]) <= 2.4


def test_membrane_background_is_preserved(membrane, bump03):
    errs = {}
    for dx in (0.1, 0.05):
        st = rect_solve(background_data(bump03), membrane,
                        RectGrid(-6.0, 6.0, dx, 1.5), bump03)
        arg = st.t[:, None] - st.x[None, :]
        errs[dx] = max(
            np.max(np.abs(st.phi - bump03.zeta(arg))),
            np.max(np.abs(st.Phi0 - bump03.dzeta(arg))),
            np.max(np.abs(st.Phi1 + bump03.dzeta(arg))),
        )
    assert errs[0.1] <= 1e-4
    assert 1.6 <= np.log2(errs[0.1] / errs[0.05]) <= 2.4


@pytest.mark.parametrize("profile", [
    bump_profile(0.3, width=4.0),  # support |t - x| < 4 covers the ghosts
    algebraic_profile(0.3),
], ids=["bump", "algebraic"])
def test_ghost_values_match_full_row(monkeypatch, membrane, profile):
    # rect_solve evaluates the background at its ghost nodes only; every
    # value must be bitwise the one of an evaluation on the whole row
    grid = RectGrid(-3.0, 3.0, 0.1, 0.3)
    x_full = grid.x_min + grid.dx * np.arange(-N_GHOST, grid.n_x + N_GHOST)
    ghosts = np.r_[:N_GHOST, -N_GHOST:0]
    real = crossval_mod._background_rows
    calls = []

    def spy(prof, t, x):
        rows = real(prof, t, x)
        calls.append((t, x, rows))
        return rows

    monkeypatch.setattr(crossval_mod, "_background_rows", spy)
    rect_solve(background_data(profile), membrane, grid, profile)
    assert len(calls) > 10
    for t, x, rows in calls:
        assert np.array_equal(x, x_full[ghosts])
        for got, full in zip(rows, real(profile, t, x_full)):
            assert np.array_equal(got.view(np.int64), full[ghosts].view(np.int64))
    assert all(np.all(rows[1] != 0.0) for _, _, rows in calls)


def test_perturbed_self_convergence_order2(membrane, bump03):
    data = perturbed_data(bump03, eps=1e-2, center=0.5, width=1.2)
    final = {}
    for dx in (0.1, 0.05, 0.025):
        st = rect_solve(data, membrane, RectGrid(-6.0, 6.0, dx, 1.5), bump03)
        final[dx] = st.phi[-1]
    d1 = np.max(np.abs(final[0.1] - final[0.05][::2]))
    d2 = np.max(np.abs(final[0.05][::2] - final[0.025][::4]))
    assert 1.6 <= np.log2(d1 / d2) <= 2.4


def test_phi1_compatibility_second_order(membrane, bump03):
    data = perturbed_data(bump03, eps=1e-2, center=0.5, width=1.2)
    errs = {}
    for dx in (0.1, 0.05):
        st = rect_solve(data, membrane, RectGrid(-6.0, 6.0, dx, 1.0), bump03)
        dxphi = (st.phi[:, 2:] - st.phi[:, :-2]) / (2.0 * dx)
        errs[dx] = np.max(np.abs(dxphi - st.Phi1[:, 1:-1]))
    assert errs[0.1] <= 1e-3
    assert 1.6 <= np.log2(errs[0.1] / errs[0.05]) <= 2.4


def test_hyperbolicity_loss_on_steep_data(zero_prof):
    # Phi0 = Phi1 keeps sigma = 0 (inside the coefficient domain) while
    # 2 f' Phi0^2 pushes g00 through zero.
    bump = lambda x: np.exp(-np.asarray(x, float) ** 2)
    dbump = lambda x: -2.0 * np.asarray(x, float) * bump(x)
    bad = RectInitialData(
        phi0=lambda x: np.zeros_like(np.asarray(x, float)),
        phi0p=lambda x: 2.0 * bump(x),
        phi0pp=lambda x: 2.0 * dbump(x),
        phi1=lambda x: 2.0 * bump(x),
        phi1p=lambda x: 2.0 * dbump(x),
    )
    with pytest.raises(HyperbolicityLoss):
        rect_solve(bad, polynomial_model(0.25), RectGrid(-8.0, 8.0, 0.1, 0.5),
                   zero_prof)


def test_cfl_violation_when_cone_widens(zero_prof):
    # Colliding pulses with aligned Phi0: at the crossing sigma < 0 opens
    # the acoustic cone well past the initial speeds, so the step chosen
    # at t = 0 stops satisfying the bound mid-run.
    with pytest.raises(CFLViolation):
        rect_solve(_gaussian_pair(0.55, phi0_aligned=True), polynomial_model(0.25),
                   RectGrid(-10.0, 10.0, 0.1, 4.0), zero_prof)


# -------------------------------------------------------------- flux residual


def test_flux_residual_zero_state(membrane):
    z = np.zeros((5, 7))
    st = RectState(np.linspace(0.0, 1.0, 5), np.linspace(-1.0, 1.0, 7), z, z, z)
    assert flux_residual(st, membrane) == 0.0


def test_flux_residual_background_order2(membrane, bump03):
    # dt deliberately incommensurate with dx so the two centered
    # differences cannot cancel along the travelling direction.
    res = {}
    for dx in (0.1, 0.05):
        grid = RectGrid(-6.0, 6.0, dx, 0.96)
        n_t = int(round(0.96 / (0.6 * dx)))
        res[dx] = flux_residual(background_rect_state(bump03, grid, n_t=n_t), membrane)
    assert res[0.1] <= 2e-4
    assert 1.6 <= np.log2(res[0.1] / res[0.05]) <= 2.4


def test_flux_residual_tracks_solver_order(membrane, bump03):
    data = perturbed_data(bump03, eps=1e-2, center=0.5, width=1.2)
    res = {}
    for dx in (0.1, 0.05):
        st = rect_solve(data, membrane, RectGrid(-6.0, 6.0, dx, 1.0), bump03)
        res[dx] = flux_residual(st, membrane)
    assert 1.4 <= np.log2(res[0.1] / res[0.05]) <= 2.6


def test_flux_residual_needs_history(membrane):
    z = np.zeros((2, 7))
    st = RectState(np.linspace(0.0, 0.1, 2), np.linspace(-1.0, 1.0, 7), z, z, z)
    with pytest.raises(InsufficientDomain):
        flux_residual(st, membrane)


# ------------------------------------------------------------- pullback


def test_pullback_background_hits_interpolation_floor(membrane, bump03):
    # Exact rectangular background against the reconstructed background:
    # the only residue is the map inversion itself, far below the
    # bilinear error estimate.
    state, coords = _dn_pipeline(membrane, bump03, 3.0, 0.05,
                                 background_data(bump03))
    rect = background_rect_state(bump03, RectGrid(-1.5, 1.5, 0.05, 1.2), n_t=24)
    rep = pullback_compare(state, coords, rect, membrane, bump03)
    assert rep["n_skipped"] == 0
    assert max(rep["sup_diff"].values()) <= 1e-12
    assert rep["interp_error"] >= 0.0


def test_pullback_linear_within_combined_scheme_error(linear, zero_prof):
    data = perturbed_data(zero_prof, eps=0.3, center=0.0, width=1.5,
                          direction="left")
    state, coords = _dn_pipeline(linear, zero_prof, 3.0, 0.05, data)
    rect = rect_solve(data, linear, RectGrid(-8.0, 8.0, 0.05, 1.2), zero_prof,
                      dissipation=0.0)
    rep = pullback_compare(state, coords, rect, linear, zero_prof)
    # both routes are independently O(h^2)-exact against d'Alembert, so
    # their mutual difference is bounded by the error sum
    assert rep["n_compared"] > 1000
    assert rep["n_skipped"] > 0  # rect domain is deliberately wider than the image
    assert all(v <= 5e-3 for v in rep["sup_diff"].values())
    assert all(v >= 0.0 for v in rep["l1_diff"].values())
    assert set(rep) == {"sup_diff", "l1_diff", "interp_error", "n_compared",
                        "n_skipped", "newton"}


def _second_difference_sup(F):
    """Whole-field reference for one field's term of the sampling floor."""
    du = np.max(np.abs(F[2:, :] - 2.0 * F[1:-1, :] + F[:-2, :]))
    db = np.max(np.abs(F[:, 2:] - 2.0 * F[:, 1:-1] + F[:, :-2]))
    return float(du + db)


def test_pullback_interp_error_reads_the_jet(membrane, bump03):
    # the sampling floor forms Phi0 and Phi1 by full_field_jet's expressions,
    # one row block at a time, and equals the whole-field value bit for bit
    data = perturbed_data(bump03, eps=1e-2, center=0.5, width=1.2)
    state, coords = _dn_pipeline(membrane, bump03, 3.0, 0.1, data)
    rect = rect_solve(data, membrane, RectGrid(-2.0, 2.0, 0.1, 0.6), bump03)
    rep = pullback_compare(state, coords, rect, membrane, bump03)
    jet = full_field_jet(state, membrane, bump03)
    fields = (state.xi, jet["Phi0"], jet["Phi1"])
    assert rep["interp_error"] == 0.125 * max(map(_second_difference_sup, fields))
    assert rep["interp_error"] > 0.0


def test_pullback_joint_refinement_order2(membrane, bump03):
    data = perturbed_data(bump03, eps=1e-2, center=0.5, width=1.2)
    sups = {}
    for h in (0.1, 0.05):
        state, coords = _dn_pipeline(membrane, bump03, 3.0, h, data)
        rect = rect_solve(data, membrane, RectGrid(-8.0, 8.0, h, 1.2), bump03)
        rep = pullback_compare(state, coords, rect, membrane, bump03)
        sups[h] = max(rep["sup_diff"].values())
    assert sups[0.1] <= 1e-3
    assert 1.6 <= np.log2(sups[0.1] / sups[0.05]) <= 2.6


def test_pullback_disjoint_domains_raise(membrane, bump03):
    state, coords = _dn_pipeline(membrane, bump03, 3.0, 0.1,
                                 background_data(bump03))
    rect = background_rect_state(bump03, RectGrid(20.0, 24.0, 0.5, 1.0), n_t=4)
    with pytest.raises(OutOfImage):
        pullback_compare(state, coords, rect, membrane, bump03)


@pytest.fixture(scope="module")
def pinned_case(membrane, bump03):
    # The rect domain is far wider than the radius-3 image: 3,496 nodes are
    # skipped, so walkers run into the collar.
    data = perturbed_data(bump03, eps=1e-2, center=0.5, width=1.2)
    state, coords = _dn_pipeline(membrane, bump03, 3.0, 0.1, data)
    rect = rect_solve(data, membrane, RectGrid(-8.0, 8.0, 0.1, 1.2), bump03)
    return state, coords, rect


def _pullback_all_nodes(dn, cmap, rect, profile, model, max_newton,
                        newton_tol=1e-11):
    """Reference pullback that re-evaluates every node on every iteration.

    Returns (n_compared, n_skipped, sup_diff, l1_diff).
    """
    grid = cmap.grid
    n, h = grid.n_nodes, grid.h
    T = np.repeat(rect.t, rect.x.size)
    X = np.tile(rect.x, rect.t.size)
    ub0 = T - X
    Vg = np.asarray(phase_relabel(profile, model, grid.u), dtype=float)
    Zg = np.asarray(phase_function(profile, model,
                                   np.clip(ub0, grid.ub_min, grid.ub_max)), dtype=float)
    u = np.clip(np.interp(T + X + Zg, Vg, grid.u), grid.u_min, grid.u_max)
    ub = np.clip(ub0, grid.ub_min, grid.ub_max)

    # the map's tangents in the grid chart as whole grids, formed from the
    # frame: d(t,x)/du = V' Omega Lbar, d(t,x)/dubar = Omega L
    fr = cmap.frame
    jac_u_t, jac_u_x = (fr.v_prime[:, None] * (fr.Omega * Lb)
                        for Lb in (fr.Lb0, fr.Lb1))
    jac_ub_t, jac_ub_x = (fr.Omega * L for L in (fr.L0, fr.L1))

    scale = 1.0 + np.abs(T) + np.abs(X)
    active = np.ones(T.shape, dtype=bool)
    for _ in range(max_newton):
        iu = np.clip(((u - grid.u_min) / h).astype(int), 0, n - 2)
        jb = np.clip(((ub - grid.ub_min) / h).astype(int), 0, n - 2)
        su = (u - grid.u_min) / h - iu
        rb = (ub - grid.ub_min) / h - jb
        rt = _bilinear(cmap.t, iu, jb, su, rb) - T
        rx = _bilinear(cmap.x, iu, jb, su, rb) - X
        active = np.maximum(np.abs(rt), np.abs(rx)) > newton_tol * scale
        if not np.any(active):
            break
        a = active
        jut = _bilinear(jac_u_t, iu[a], jb[a], su[a], rb[a])
        jbt = _bilinear(jac_ub_t, iu[a], jb[a], su[a], rb[a])
        jux = _bilinear(jac_u_x, iu[a], jb[a], su[a], rb[a])
        jbx = _bilinear(jac_ub_x, iu[a], jb[a], su[a], rb[a])
        det = jut * jbx - jbt * jux
        det = np.where(np.abs(det) < 1e-300, np.nan, det)
        u[a] -= (jbx * rt[a] - jbt * rx[a]) / det
        ub[a] -= (-jux * rt[a] + jut * rx[a]) / det
        u = np.clip(np.where(np.isfinite(u), u, grid.u_min - 2 * h),
                    grid.u_min - 2 * h, grid.u_max + 2 * h)
        ub = np.clip(np.where(np.isfinite(ub), ub, grid.ub_min - 2 * h),
                     grid.ub_min - 2 * h, grid.ub_max + 2 * h)

    slack = 1e-9 * (1.0 + abs(grid.u_max))
    inside = ((u >= grid.u_min - slack) & (u <= grid.u_max + slack)
              & (ub >= grid.ub_min - slack) & (ub <= grid.ub_max + slack))
    stuck = inside & active
    if np.any(stuck):
        k = int(np.argmax(stuck))
        raise InversionFailure(
            f"map inversion stalled at (t, x) = ({T[k]:.4g}, {X[k]:.4g}); "
            "the reconstructed map is close to degenerate there"
        )
    covered = inside & ~active
    uc = np.clip(u[covered], grid.u_min, grid.u_max)
    bc = np.clip(ub[covered], grid.ub_min, grid.ub_max)
    iu = np.clip(((uc - grid.u_min) / h).astype(int), 0, n - 2)
    jb = np.clip(((bc - grid.ub_min) / h).astype(int), 0, n - 2)
    su = (uc - grid.u_min) / h - iu
    rb = (bc - grid.ub_min) / h - jb
    zp_b = np.asarray(profile.dzeta(bc), dtype=float)
    psi_s = _bilinear(dn.psi, iu, jb, su, rb)
    psib_s = _bilinear(dn.psib, iu, jb, su, rb)
    samples = {
        "phi": np.asarray(profile.zeta(bc), dtype=float)
               + _bilinear(dn.xi, iu, jb, su, rb),
        "Phi0": 0.5 * (psi_s + psib_s) + zp_b,
        "Phi1": 0.5 * (psi_s - psib_s) - zp_b,
    }
    cell = rect.dt * rect.dx
    sup_diff, l1_diff = {}, {}
    for name in ("phi", "Phi0", "Phi1"):
        d = np.abs(samples[name] - getattr(rect, name).ravel()[covered])
        sup_diff[name] = float(np.max(d))
        l1_diff[name] = float(cell * np.sum(d))
    n_compared = int(np.count_nonzero(covered))
    return n_compared, covered.size - n_compared, sup_diff, l1_diff


# Caps 9-16, eight in a row, stop the cycling walkers at every phase of
# cycles up to length 8.
@pytest.mark.parametrize("max_newton", [3, 40, *range(9, 17)])
def test_pullback_live_walkers_match_all_nodes(pinned_case, membrane, bump03,
                                               max_newton):
    state, coords, rect = pinned_case
    rep = pullback_compare(state, coords, rect, membrane, bump03,
                           max_newton=max_newton)
    want = _pullback_all_nodes(state, coords, rect, bump03, membrane, max_newton)
    assert rep["n_skipped"] > 0
    assert (rep["n_compared"], rep["n_skipped"], rep["sup_diff"],
            rep["l1_diff"]) == want


# Capped before convergence, and an unreachable tolerance: interior
# walkers whose steps round to nothing retire still unconverged.
@pytest.mark.parametrize("max_newton, newton_tol", [
    (1, 1e-11), (2, 1e-11), (40, 0.0), *((cap, 0.0) for cap in range(9, 17))])
def test_pullback_cap_fails_like_all_nodes(pinned_case, membrane, bump03,
                                           max_newton, newton_tol):
    state, coords, rect = pinned_case
    with pytest.raises(InversionFailure) as want:
        _pullback_all_nodes(state, coords, rect, bump03, membrane, max_newton,
                            newton_tol)
    with pytest.raises(InversionFailure) as got:
        pullback_compare(state, coords, rect, membrane, bump03,
                         newton_tol=newton_tol, max_newton=max_newton)
    assert str(got.value) == str(want.value)
    if max_newton == 1:
        assert "at (t, x) = (0.04, -2.9)" in str(got.value)


def test_pullback_newton_counters(pinned_case, membrane, bump03):
    state, coords, rect = pinned_case
    newton = pullback_compare(state, coords, rect, membrane, bump03)["newton"]
    live = newton["live"]
    assert live[0] == rect.phi.size
    assert all(b <= a for a, b in zip(live, live[1:]))
    assert newton["iterations"] == len(live) <= 40
    assert all(isinstance(k, int) for k in live)
    # the walkers that the collar holds on cycles retire before the cap
    assert newton["iterations"] < 40


@pytest.fixture(scope="module")
def coarse_case(pinned_case, membrane, bump03):
    # pinned_case's double-null solution against a coarse rectangle that is
    # also wider than the image: few enough walkers to step one at a time.
    state, coords, _ = pinned_case
    data = perturbed_data(bump03, eps=1e-2, center=0.5, width=1.2)
    rect = rect_solve(data, membrane, RectGrid(-4.0, 4.0, 0.2, 0.8), bump03)
    return state, coords, rect


# the converging run, and the caps and tolerance of the failing runs of
# test_pullback_cap_fails_like_all_nodes that stop cycles at every phase
NEWTON_RUNS = [(40, 1e-11), *((cap, 0.0) for cap in range(9, 17))]


def _pullback_outcome(case, membrane, bump03, elems, max_newton, newton_tol):
    """pullback_compare's dict, or its InversionFailure message, with
    grid.BLOCK_ELEMS = elems."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(grid_mod, "BLOCK_ELEMS", elems)
        try:
            return pullback_compare(*case, membrane, bump03,
                                    newton_tol=newton_tol,
                                    max_newton=max_newton)
        except InversionFailure as exc:
            return str(exc)


@pytest.fixture(scope="module")
def one_chunk(coarse_case, membrane, bump03):
    """Each NEWTON_RUNS outcome with every walker in one chunk, every
    quadrature panel in one block and the whole grid in one row block."""
    return {run: _pullback_outcome(coarse_case, membrane, bump03, 1 << 60,
                                   *run) for run in NEWTON_RUNS}


def test_chunk_reference_runs_converge_and_fail(one_chunk):
    want = one_chunk[NEWTON_RUNS[0]]
    assert want["n_skipped"] > 0 and want["newton"]["iterations"] < 40
    assert all(isinstance(one_chunk[run], str) for run in NEWTON_RUNS[1:])


@given(data=st.data())
@settings(max_examples=30)
def test_pullback_is_chunk_invariant(coarse_case, one_chunk, membrane, bump03,
                                     data):
    # Chunks of one walker up to all of them (grid.BLOCK_ELEMS // 8), which
    # also block the phase quadrature's panels and the floor's rows: the
    # dict, newton["live"] included, and the InversionFailure message are
    # those of one chunk, bit for bit.
    walkers = data.draw(st.integers(1, coarse_case[2].phi.size),
                        label="walkers")
    run = data.draw(st.sampled_from(NEWTON_RUNS), label="max_newton, tol")
    got = _pullback_outcome(coarse_case, membrane, bump03, 8 * walkers, *run)
    assert got == one_chunk[run]


def _orbit(start, transient, period, steps):
    """Positions of a synthetic walker after 0..steps steps: transient
    distinct points from start, then a cycle of the given period."""
    s = np.arange(steps + 1)
    return start + np.where(s < transient, s,
                            transient + (s - transient) % period)


def _retire_synthetic(orbits, cap):
    """(step, position) at which each orbit retires, driving _cycle_stops
    the way pullback_compare does; a walker still live at the cap retires
    there."""
    live = np.arange(len(orbits))
    checkpoint = (orbits[:, 0], -orbits[:, 0])
    stop = np.full(live.size, cap, dtype=np.min_scalar_type(cap))
    out = {}
    for k in range(1, cap + 1):
        pos = orbits[live, k]
        checkpoint, going = _cycle_stops(k, cap, (pos, -pos), checkpoint, stop)
        out.update((int(w), (k, int(orbits[w, k]))) for w in live[going])
        keep = ~going
        live, stop = live[keep], stop[keep]
        checkpoint = tuple(c[keep] for c in checkpoint)
    out.update((int(w), (cap, int(orbits[w, cap]))) for w in live)
    return out


def test_cycle_stops_retire_in_phase():
    # Periods 1-8 entered after 0-12 transient steps, each orbit on its own
    # positions.  At every cap of a window of 8, each orbit retires at a
    # step congruent to the cap modulo its period, where the cap would
    # leave it, and before the cap: Brent's checkpoint at step 16 lies on
    # every cycle, so each is found by step 24.
    cases = [(t, p) for t in range(13) for p in range(1, 9)]
    orbits = np.array([_orbit(1000 * n, t, p, 40)
                       for n, (t, p) in enumerate(cases)], dtype=np.int64)
    for cap in range(33, 41):
        got = _retire_synthetic(orbits, cap)
        for n, (t, p) in enumerate(cases):
            step, where = got[n]
            assert step < cap and (cap - step) % p == 0, (t, p, cap, step)
            assert where == orbits[n, cap], (t, p, cap)


# ------------------------------------------------------------- phase shift


def test_phase_shift_vanishes_on_background(membrane, bump03):
    _, coords = _dn_pipeline(membrane, bump03, 3.0, 0.1, background_data(bump03))
    assert abs(phase_shift(coords)) <= 1e-12


def test_phase_shift_vanishes_linear(linear, zero_prof):
    data = perturbed_data(zero_prof, eps=0.3, center=0.0, width=1.5,
                          direction="left")
    _, coords = _dn_pipeline(linear, zero_prof, 3.0, 0.1, data)
    assert abs(phase_shift(coords)) <= 1e-12


def test_phase_shift_converges_under_domain_doubling(membrane, bump03):
    data = perturbed_data(bump03, eps=5e-2, center=0.5, width=1.2)
    shifts = {}
    for radius in (6.0, 12.0):
        _, coords = _dn_pipeline(membrane, bump03, radius, 0.1, data)
        shifts[radius] = phase_shift(coords)
    assert abs(shifts[12.0]) > 1e-7
    assert abs(shifts[12.0] - shifts[6.0]) <= 0.05 * abs(shifts[12.0])


def test_phase_shift_needs_enough_rows(membrane, bump03):
    _, coords = _dn_pipeline(membrane, bump03, 1.0, 0.5, background_data(bump03))
    with pytest.raises(InsufficientDomain):
        phase_shift(coords)


# ------------------------------------------------------- bootstrap oracle


def test_slice_acceleration_matches_time_stepping(membrane, bump03):
    # The algebraic phi_tt from the slice solve must agree with a
    # one-sided second-order difference quotient of the evolving solver.
    data = perturbed_data(bump03, eps=1e-2, center=0.5, width=1.2)
    xs = np.linspace(-2.0, 2.0, 9)
    want, _ = solve_phi_tt(membrane, data.phi1(xs), data.phi0p(xs),
                           data.phi1p(xs), data.phi0pp(xs))
    st = rect_solve(data, membrane, RectGrid(-6.0, 6.0, 0.02, 0.05), bump03)
    quot = (-3.0 * st.Phi0[0] + 4.0 * st.Phi0[1] - st.Phi0[2]) / (2.0 * st.dt)
    got = np.interp(xs, st.x, quot)
    assert np.max(np.abs(got - want)) <= 1e-4
