"""Frame transport, coordinate reconstruction and degeneracy monitoring."""

import dataclasses
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import SEED_PHASES, reversal_pair, time_reversed
from nullwave import geometry
from nullwave.data_gauge import (background_data, build_diagonal_data,
                                 build_gauge_slice, perturbed_data)
from nullwave.dn_core import march
from nullwave.errors import (FrameDegenerate, FrameTransportStall, GridMismatch,
                             InnerFixedPointDivergence)
from nullwave.geometry import (
    degeneracy_monitor,
    full_field_jet,
    integrate_frame,
    reconstruct_coords,
)
from nullwave.background import (algebraic_profile, background_L,
                                 bump_profile, phase_function,
                                 phase_relabel_velocity, table_profile)
from nullwave.grid import DNGrid
from nullwave.nonlinearity import (
    acoustic_metric,
    eval_coeffs,
    membrane_model,
    polynomial_model,
)
from nullwave.oracles import (background_frame_exact, phase_relabel,
                              reduced_transport_exact, solve_model_system)
from nullwave.state import Phi0_of, Phi1_of, sigma_of


def _pipeline(model, profile, radius, h, eps=0.0, **pulse):
    grid = DNGrid.square(radius, h)
    rect = background_data(profile) if eps == 0.0 else perturbed_data(
        profile, eps=eps, **pulse)
    data, gauge = build_diagonal_data(rect, grid, model, profile)
    state = march(data, grid, model, profile)
    frame = integrate_frame(state, gauge, model, profile)
    return grid, data, gauge, state, frame


# ---------------------------------------------------------------------------
# transport RHS against an explicit Christoffel contraction


def _transport_rhs(jet, L, Lb):
    """(d_ub L, d_u Lbar), (t, x)-stacked, at the frame values L and Lb.

    The jet supplies full_field_jet's keys; the RHS is _frame_rhs on the
    coefficients of _transport_coeffs, the path integrate_frame runs.
    """
    cf = np.empty((len(geometry._CF_KEYS),) + np.broadcast_shapes(
        *(np.shape(v) for v in jet.values())))
    geometry._transport_coeffs(jet, cf)
    return geometry._frame_rhs(cf, np.asarray(L, dtype=float),
                               np.asarray(Lb, dtype=float))


def _manufactured_point_jets(model, rng, n):
    """Random frame/jet samples consistent with some scalar field jet.

    Draws Phi, a symmetric gradient dPhi and two independent null vectors of
    the acoustic metric, then *defines* the grid-null derivatives through
    the directional identities d_ub F = Omega L(F), d_u F = Omega Lbar(F).
    On such data the transport RHS must equal -Omega Gamma(L, L) (and the
    mirror), with Gamma the Christoffel symbols of g = eta + H Phi Phi.
    """
    Phi0 = rng.uniform(-0.4, 0.4, n)
    Phi1 = rng.uniform(-0.4, 0.4, n)
    a00 = rng.uniform(-0.5, 0.5, n)    # d_t Phi_0
    a01 = rng.uniform(-0.5, 0.5, n)    # d_x Phi_0 = d_t Phi_1
    a11 = rng.uniform(-0.5, 0.5, n)    # d_x Phi_1
    sigma = -Phi0 ** 2 + Phi1 ** 2
    met = acoustic_metric(model, Phi0, Phi1)
    co = eval_coeffs(model, sigma)

    disc = np.sqrt(met.g01 ** 2 - met.g00 * met.g11)
    v_plus = (-met.g01 + disc) / met.g11
    v_minus = (-met.g01 - disc) / met.g11
    sL = rng.uniform(0.5, 1.5, n) * rng.choice([-1.0, 1.0], n)
    sB = rng.uniform(0.5, 1.5, n) * rng.choice([-1.0, 1.0], n)
    L = (sL, sL * v_plus)
    Lb = (sB, sB * v_minus)

    def dot(g, V, W):
        return (g.g00 * V[0] * W[0] + g.g01 * (V[0] * W[1] + V[1] * W[0])
                + g.g11 * V[1] * W[1])

    Om = 1.0 / dot(met, L, Lb)
    st = 2.0 * (-Phi0 * a00 + Phi1 * a01)
    sx = 2.0 * (-Phi0 * a01 + Phi1 * a11)

    def along(V, ft, fx):
        return Om * (V[0] * ft + V[1] * fx)

    jet = {
        "Phi0": Phi0, "Phi1": Phi1,
        "dPhi0_u": along(Lb, a00, a01), "dPhi1_u": along(Lb, a01, a11),
        "dPhi0_ub": along(L, a00, a01), "dPhi1_ub": along(L, a01, a11),
        "phi_u": along(Lb, Phi0, Phi1), "phi_ub": along(L, Phi0, Phi1),
        "sig_u": along(Lb, st, sx), "sig_ub": along(L, st, sx),
        "H": co.H, "Hp": co.Hp,
    }

    # Gamma^a_{bg} of g = eta + H Phi Phi, using the symmetry of dPhi
    Phi_dn = (Phi0, Phi1)
    ds = (st, sx)
    dPhi = ((a00, a01), (a01, a11))
    inv = ((met.inv00, met.inv01), (met.inv01, met.inv11))

    def gamma_contract(V):
        out = []
        for a_ in range(2):
            acc = 0.0
            for b_ in range(2):
                for g_ in range(2):
                    T = sum(inv[a_][d_] * (
                        co.Hp * (ds[b_] * Phi_dn[d_] * Phi_dn[g_]
                                 + ds[g_] * Phi_dn[d_] * Phi_dn[b_]
                                 - ds[d_] * Phi_dn[b_] * Phi_dn[g_])
                        + 2.0 * co.H * Phi_dn[d_] * dPhi[b_][g_])
                        for d_ in range(2))
                    acc = acc + 0.5 * T * V[b_] * V[g_]
            out.append(acc)
        return out

    want_L = [-Om * c for c in gamma_contract(L)]
    want_Lb = [-Om * c for c in gamma_contract(Lb)]
    return jet, L, Lb, want_L, want_Lb


@pytest.mark.parametrize("make_model,seed", [
    (membrane_model, 11),
    (lambda: polynomial_model(0.15, -0.05, 0.02), 12),  # H' != 0 branch
])
def test_transport_rhs_matches_christoffel_contraction(make_model, seed):
    model = make_model()
    rng = np.random.default_rng(seed)
    jet, L, Lb, want_L, want_Lb = _manufactured_point_jets(model, rng, 400)
    gotL, gotB = _transport_rhs(jet, L, Lb)
    for got, want in zip([*gotL, *gotB], want_L + want_Lb):
        scale = 1.0 + float(np.max(np.abs(want)))
        assert float(np.max(np.abs(got - want))) <= 1e-10 * scale


# ---------------------------------------------------------------------------
# background exactness


def test_background_frame_is_exact(membrane, bump03):
    grid, _, gauge, state, frame = _pipeline(membrane, bump03, 3.0, 0.1)
    H0 = float(eval_coeffs(membrane, 0.0).H)
    zp2 = np.asarray(bump03.dzeta(grid.ub)) ** 2
    assert np.max(np.abs(frame.L0 - (-1.0 - H0 * zp2)[None, :])) < 1e-12
    assert np.max(np.abs(frame.L1 - (1.0 - H0 * zp2)[None, :])) < 1e-12
    assert np.max(np.abs(frame.Lb0 + 1.0)) < 1e-13
    assert np.max(np.abs(frame.Lb1 + 1.0)) < 1e-13
    assert np.max(np.abs(frame.Omega + 0.5)) < 1e-13
    vp = phase_relabel_velocity(bump03, membrane, grid.u)
    assert np.array_equal(frame.v_prime, vp)
    # the frame hands on the gauge's V' and the Lring_B it deviates from
    assert frame.v_prime is gauge.v_prime
    _, ring0, ring1 = background_L(membrane, bump03, grid.ub)
    assert frame.ring.shape == (2, grid.n_nodes)
    assert np.array_equal(frame.ring.view(np.int64),
                          np.array([ring0, ring1]).view(np.int64))
    assert frame.nullity["L"] < 1e-12 and frame.nullity["Lb"] < 1e-12


@given(kind=st.sampled_from(["bump", "algebraic"]), A=st.floats(-0.5, 0.5),
       center=st.floats(-1.5, 1.5), width=st.floats(1.0, 6.0),
       gamma=st.floats(0.2, 2.0), radius=st.sampled_from([2.0, 3.0]),
       poly=st.booleans())
@settings(max_examples=20)
def test_background_exact_over_random_profiles(membrane, kind, A, center,
                                               width, gamma, radius, poly):
    # Criterion 3 over random backgrounds, at its tolerances: the exact
    # travelling wave marches to zero perturbation, its slaved sigma
    # included, and the transported frame is the closed-form one.  The
    # polynomial model has H(0) != 0 and H' != 0.
    model = polynomial_model(0.15, -0.05, 0.02) if poly else membrane
    prof = (bump_profile(A, center=center, width=width, gamma_bar=gamma)
            if kind == "bump" else algebraic_profile(A, gamma_bar=gamma))
    grid, _, _, state, frame = _pipeline(model, prof, radius, 0.1)
    zp = prof.dzeta(grid.ub)
    for f in (state.psi, state.psib, state.xi,
              sigma_of(state.psi, state.psib, zp[None, :])):
        assert np.max(np.abs(f)) <= 1e-12
    bg = background_frame_exact(float(eval_coeffs(model, 0.0).H), zp)
    want = {"L0": bg["L"][0], "L1": bg["L"][1], "Lb0": bg["Lb"][0],
            "Lb1": bg["Lb"][1], "Omega": bg["Omega"]}
    for name, ref in want.items():
        dev = getattr(frame, name) - ref    # ref varies along ubar only
        assert np.max(np.abs(dev)) <= 1e-10, name


def test_background_coords_are_exact(membrane, bump03):
    grid, _, _, state, frame = _pipeline(membrane, bump03, 3.0, 0.1)
    coords = reconstruct_coords(frame, membrane, bump03)
    V = phase_relabel(bump03, membrane, grid.u)
    Z = phase_function(bump03, membrane, grid.ub)
    # the map carries the relabeling and phase function it was built on
    assert np.array_equal(coords.V.view(np.int64), V.view(np.int64))
    assert np.array_equal(coords.Z.view(np.int64), Z.view(np.int64))
    t_ring = 0.5 * (V[:, None] - Z[None, :] + grid.ub[None, :])
    x_ring = 0.5 * (V[:, None] - Z[None, :] - grid.ub[None, :])
    assert np.max(np.abs(coords.t - t_ring)) < 1e-12
    assert np.max(np.abs(coords.x - x_ring)) < 1e-12
    assert np.max(np.abs(coords.detj + 0.5)) < 1e-12
    assert coords.curl_sup < 1e-12
    report = degeneracy_monitor(frame, coords)
    assert report["ok"] is True and report["first_failure"] is None
    assert report["sup_frame_deviation"] < 1e-12
    assert report["thresholds"]["detj_floor"] == 0.05


@given(data=st.data(), kind=st.sampled_from(["bump", "algebraic", "table"]),
       poly=st.booleans(), u_min=st.floats(-3.0, 2.5),
       h=st.floats(0.05, 0.5))
@settings(max_examples=40)
def test_relabeling_is_the_mirrored_phase(membrane, data, kind, poly, u_min,
                                          h):
    # reconstruct_coords forms V(u) = u + Z(-u) as grid.u + Z(grid.ub)[::-1]:
    # grid.ub is -grid.u reversed bit for bit and the phase quadrature
    # depends only on the set of points, so it is the reference's V bitwise,
    # on grids that need not be symmetric about 0.
    N = data.draw(st.integers(2, int((3.0 - u_min) / h)))
    grid = DNGrid(u_min, u_min + N * h, h)
    model = (polynomial_model(*data.draw(st.lists(
        st.floats(-0.2, 0.2), min_size=1, max_size=3))) if poly else membrane)
    A = data.draw(st.floats(-0.5, 0.5))
    if kind == "bump":
        prof = bump_profile(A, center=data.draw(st.floats(-1.5, 1.5)),
                            width=data.draw(st.floats(0.5, 6.0)))
    elif kind == "algebraic":
        prof = algebraic_profile(A, gamma_bar=data.draw(st.floats(0.2, 2.0)))
    else:
        a = data.draw(st.floats(-4.0, 0.0))
        xs = np.linspace(a, a + data.draw(st.floats(0.5, 6.0)),
                         data.draw(st.integers(2, 9)))
        column = st.lists(st.floats(-1.0, 1.0), min_size=xs.size,
                          max_size=xs.size)
        prof = table_profile(xs, np.zeros_like(xs), np.array(data.draw(column)),
                             np.array(data.draw(column)))
    V = grid.u + phase_function(prof, model, grid.ub)[::-1]
    ref = phase_relabel(prof, model, grid.u)
    assert np.array_equal(V.view(np.int64), ref.view(np.int64))


def test_linear_model_geometry_is_flat(linear, zero_prof):
    grid, _, _, state, frame = _pipeline(linear, zero_prof, 2.0, 0.25)
    n = grid.n_nodes
    assert np.array_equal(frame.L0, np.full((n, n), -1.0))
    assert np.array_equal(frame.L1, np.full((n, n), 1.0))
    assert np.array_equal(frame.Lb0, np.full((n, n), -1.0))
    assert np.array_equal(frame.Lb1, np.full((n, n), -1.0))
    assert np.array_equal(frame.Omega, np.full((n, n), -0.5))
    coords = reconstruct_coords(frame, linear, zero_prof)
    assert np.array_equal(coords.t, 0.5 * (grid.u[:, None] + grid.ub[None, :]))
    assert np.array_equal(coords.x, 0.5 * (grid.u[:, None] - grid.ub[None, :]))
    assert np.array_equal(coords.detj, np.full((n, n), -0.5))
    assert coords.curl_sup == 0.0


# ---------------------------------------------------------------------------
# perturbed runs


def test_published_diagonal_is_pinned(membrane, bump03):
    grid, _, _, state, frame = _pipeline(membrane, bump03, 2.0, 0.1,
                                         eps=1e-2, width=1.5)
    coords = reconstruct_coords(frame, membrane, bump03)
    diag = grid.diagonal()
    assert np.all(coords.t[diag] == 0.0)
    assert np.array_equal(coords.x[diag], grid.u)


def test_curl_and_nullity_converge_second_order(membrane, bump03):
    sups = {}
    for h in (0.1, 0.05):
        grid, _, _, state, frame = _pipeline(membrane, bump03, 2.0, h,
                                             eps=1e-2, width=1.5)
        coords = reconstruct_coords(frame, membrane, bump03)
        sups[h] = (coords.curl_sup, max(frame.nullity.values()))
    curl_ratio = sups[0.1][0] / sups[0.05][0]
    null_ratio = sups[0.1][1] / sups[0.05][1]
    assert 2.5 < curl_ratio < 6.0
    assert 2.5 < null_ratio < 6.0


def test_model_system_matches_reduced_oracle(membrane, bump03):
    grid, _, gauge, _, _ = _pipeline(membrane, bump03, 2.0, 0.1,
                                     eps=1e-2, width=1.5)
    mf = solve_model_system(gauge, grid, membrane, bump03)
    H0 = float(eval_coeffs(membrane, 0.0).H)
    zp = np.asarray(bump03.dzeta(grid.ub))
    w = 2.0 + (mf.L0 - mf.L1)
    w0 = 2.0 + (gauge.L0 - gauge.L1)
    cbm = gauge.Lb0 - gauge.Lb1
    for i in (0, 3, grid.N // 2, grid.N):
        for j in (0, grid.N // 3, grid.N):
            want = reduced_transport_exact(
                float(w0[i]), float(cbm[i]), H0,
                float(zp[j]), float(zp[grid.N - i]))
            assert w[i, j] == pytest.approx(want, rel=1e-13, abs=1e-15)
    # Lbar is frozen to its diagonal value along each row
    assert np.array_equal(mf.Lb0, np.broadcast_to(gauge.Lb0[:, None], w.shape))


def test_model_tracks_full_transport(membrane, bump03):
    """Reduced-vs-full mismatch stays within 10 (delta eps + h^2), eps-driven.

    The reduced system drops terms of size O(delta eps) (and both solvers
    carry O(h^2)), so the mismatch must obey that budget and shrink with
    the data: a tenfold smaller pulse must shrink it several-fold.
    """
    delta = float(np.max(np.abs(np.asarray(bump03.dzeta(
        np.arange(-3.0, 3.0, 0.01))))))
    errs = {}
    for eps in (1e-3, 1e-4):
        grid, data, gauge, state, frame = _pipeline(membrane, bump03, 3.0,
                                                    0.05, eps=eps, width=1.5)
        mf = solve_model_system(gauge, grid, membrane, bump03)
        err = max(float(np.max(np.abs(mf.L0 - frame.L0))),
                  float(np.max(np.abs(mf.L1 - frame.L1))))
        assert err <= 10.0 * (delta * data.eps0 + grid.h ** 2)
        errs[eps] = err
    assert errs[1e-3] / errs[1e-4] > 2.5


# ---------------------------------------------------------------------------
# the front sweep of the transport


def _deviations(grid, frame, model, profile):
    """(lam, bg, rbg) of a published frame in the grid normalization.

    lam holds the deviations L_A - Lring_A and Lbar - Lbar_ring as one
    (frame, component, u, ubar) array; bg is Lring_A by component and rbg
    its d_ub, the same for both components (module docstring formulas).
    """
    H0 = float(eval_coeffs(model, 0.0).H)
    zp = np.asarray(profile.dzeta(grid.ub), dtype=float)
    zpp = np.asarray(profile.d2zeta(grid.ub), dtype=float)
    inv_vp = 1.0 / frame.v_prime[:, None]
    bg = np.array([-1.0 - H0 * zp ** 2, 1.0 - H0 * zp ** 2])[:, None, :] * inv_vp
    rbg = ((-2.0 * H0) * (zp * zpp))[None, :] * inv_vp
    L_A = np.array([frame.L0, frame.L1]) * inv_vp
    lam = np.array([L_A - bg, [frame.Lb0 + 1.0, frame.Lb1 + 1.0]])
    return lam, bg, rbg


def _deviation_rhs(model, jet, bg, rbg, lam):
    """d_ub of the L deviation and d_u of the Lbar one, by _transport_rhs."""
    R = _transport_rhs(jet, bg + lam[0], lam[1] - 1.0)
    R[0] -= rbg
    return R


def test_frame_satisfies_trapezoid_transport(membrane, bump03):
    # Every front of both triangles must meet the transport's trapezoid rule,
    #   lam(P)  = lam(S)  + h/2 (R_L(S) + R_L(P)),   S the ubar-predecessor,
    #   lamb(P) = lamb(W) + h/2 (R_B(W) + R_B(P)),   W the u-predecessor,
    # with the RHS recomputed from the published frame.  A front stops once
    # its last update is within FRAME_TOL (1 + sup|deviation|) and the cell
    # coupling is O(h), so the residual stays below that bound; a front left
    # after one iteration misses it by orders of magnitude.
    grid, _, _, state, frame = _pipeline(membrane, bump03, 2.0, 0.05,
                                         eps=1e-2, width=1.5)
    lam, bg, rbg = _deviations(grid, frame, membrane, bump03)
    R = _deviation_rhs(membrane, full_field_jet(state, membrane, bump03),
                       bg, rbg, lam)
    tol = geometry.FRAME_TOL * (1.0 + float(np.max(np.abs(lam))))
    for d in (1, -1):
        hh = 0.5 * grid.h * d
        for m, (i, j) in enumerate(grid.fronts(d), 1):
            resid_L = lam[0][:, i, j] - lam[0][:, i, j - d] \
                - hh * (R[0][:, i, j - d] + R[0][:, i, j])
            resid_B = lam[1][:, i, j] - lam[1][:, i - d, j] \
                - hh * (R[1][:, i - d, j] + R[1][:, i, j])
            for resid in (resid_L, resid_B):
                assert np.max(np.abs(resid)) <= tol, (d, m)


def test_integrate_frame_memory_budget(peak_fields, membrane, bump03):
    # Peak traced memory of one transport, in (N+1)^2 float fields, on a
    # grid that fits in one row block: the 13-slot coefficient stack while
    # the block's jet (12) and its coefficients are alive.  Forming the
    # coefficients into a stack of their own and copying it would add 13.
    grid, _, gauge, state, _ = _pipeline(membrane, bump03, 3.0, 0.05,
                                         eps=1e-3, width=1.5)
    assert peak_fields(lambda: integrate_frame(state, gauge, membrane, bump03),
                       grid) <= 32


def test_legs_read_rows_and_index_pairs_alike(membrane, bump03):
    # A row slice is read through views, an index pair by np.take at its
    # flat index: the same nodes give the same bits either way, one
    # component at a time or several, and tangents' u-leg is V' times the
    # Lbar leg, its ubar-leg the L leg.
    grid, _, _, _, frame = _pipeline(membrane, bump03, 2.0, 0.1,
                                     eps=1e-2, width=1.5)
    names = ("Lb0", "Lb1", "L0", "L1")
    rows = slice(3, 11)
    i, j = np.mgrid[rows, 0:grid.n_nodes]
    by_rows, by_pairs = frame.legs(names, rows), frame.legs(names, i, j)
    for k, X in enumerate(names):
        assert np.array_equal(by_rows[k], by_pairs[k]), X
        assert np.array_equal(frame.legs([X], rows)[0], by_rows[k]), X
        assert np.array_equal(by_rows[k],
                              frame.Omega[rows] * getattr(frame, X)[rows]), X
    rng = np.random.default_rng(5)
    iu = rng.integers(0, grid.n_nodes, 50)
    jb = rng.integers(0, grid.n_nodes, 50)
    legs = frame.legs(names, iu, jb)
    vp = frame.v_prime[iu]
    for got, want in zip(frame.tangents(iu, jb),
                         (vp * legs[0], vp * legs[1], legs[2], legs[3])):
        assert np.array_equal(got, want)


@pytest.mark.parametrize("model", [membrane_model(),
                                   polynomial_model(0.15, -0.05, 0.02)],
                         ids=["membrane", "polynomial"])
@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=8, phases=SEED_PHASES)
def test_frame_and_map_commute_with_time_reversal(zero_prof, model, seed):
    # Time reversal (i, j) -> (N - j, N - i), t -> -t, on the march of
    # reversal_pair's data and of its reversal (test_dn_core's
    # test_march_commutes_with_time_reversal): the mirror's L is
    # (Lb0, -Lb1) at the image node and its Lbar is (L0, -L1); Omega, detj
    # and x are invariant, t changes sign and the two nullity sups trade
    # places.  The gauge slice is build_gauge_slice's for the data's Phi on
    # the diagonal, which the map fixes; its mirror maps the frame so and
    # trades d_t u for d_t ubar.  Worst cases over 40 seeds a model: L and
    # Lbar bit for bit; Omega 1.1e-16 (one ulp, in 4 of 80 draws: g(L,
    # Lbar) forms H phiL phiLb left to right, and the reflection swaps the
    # last two factors; with H (phiL phiLb) Omega is bitwise too), detj
    # 2.2e-16; t and x 2.2e-16 (the column route sums each column from
    # row 0, the row route each row from column 0).
    tol = 1e-15
    grid = DNGrid.square(2.0, 0.05)
    data, reversed_data = reversal_pair(grid.u, seed)
    Phi0 = Phi0_of(data.psi, data.psib, 0.0)
    Phi1 = Phi1_of(data.psi, data.psib, 0.0)
    zero = np.zeros_like(grid.u)
    gauge = build_gauge_slice(SimpleNamespace(
        sample=lambda x: (zero, Phi1, zero, Phi0, zero)),
        grid, model, zero_prof)
    frame = integrate_frame(march(data, grid, model, zero_prof), gauge,
                            model, zero_prof)
    mirrored = dataclasses.replace(
        gauge, du_t_grid=gauge.dub_t, dub_t=gauge.du_t_grid,
        L0=gauge.Lb0, L1=-gauge.Lb1, Lb0=gauge.L0, Lb1=-gauge.L1)
    mirror = integrate_frame(march(reversed_data, grid, model, zero_prof),
                             mirrored, model, zero_prof)
    coords, mirror_coords = (reconstruct_coords(f, model, zero_prof)
                             for f in (frame, mirror))
    images = {"L0": (frame.Lb0, 1.0), "L1": (frame.Lb1, -1.0),
              "Lb0": (frame.L0, 1.0), "Lb1": (frame.L1, -1.0),
              "Omega": (frame.Omega, 1.0)}
    maps = {"t": (coords.t, -1.0), "x": (coords.x, 1.0),
            "detj": (coords.detj, 1.0)}
    for got, table in ((mirror, images), (mirror_coords, maps)):
        for name, (F, sign) in table.items():
            assert np.max(np.abs(getattr(got, name)
                                 - time_reversed(F, sign))) <= tol, name
    assert mirror.nullity["L"] == pytest.approx(frame.nullity["Lb"],
                                                rel=0, abs=tol)
    assert mirror.nullity["Lb"] == pytest.approx(frame.nullity["L"],
                                                 rel=0, abs=tol)


# ---------------------------------------------------------------------------
# degeneracy and failure paths


def test_degeneracy_monitor_flags_first_bad_node(membrane, bump03):
    grid, _, _, state, frame = _pipeline(membrane, bump03, 1.0, 0.25)
    coords = reconstruct_coords(frame, membrane, bump03)

    bad_omega = frame.Omega.copy()
    bad_omega[2, 3] = -0.05
    rep = degeneracy_monitor(dataclasses.replace(frame, Omega=bad_omega),
                             coords)
    assert not rep["ok"]
    assert rep["first_failure"]["i"] == 2 and rep["first_failure"]["j"] == 3
    assert rep["first_failure"]["checks"] == ["omega"]
    assert rep["first_failure"]["u"] == grid.u[2]

    bad_detj = coords.detj.copy()
    bad_detj[1, 1] = 0.01
    rep = degeneracy_monitor(frame, dataclasses.replace(coords, detj=bad_detj))
    assert not rep["ok"] and rep["first_failure"]["checks"] == ["detj"]

    bad_l0 = frame.L0.copy()
    bad_l0[0, 0] = 0.05
    rep = degeneracy_monitor(dataclasses.replace(frame, L0=bad_l0), coords)
    assert not rep["ok"] and rep["first_failure"]["checks"] == ["L0"]
    assert rep["min_abs_L0"] == pytest.approx(0.05)


def test_nan_in_the_frame_shows_in_curl(membrane, bump03):
    # L^1 enters only the x routes of the coordinate map: its row route
    # carries the NaN, and the curl must too, though the t routes agree.
    # (The nullity is formed where the frame is: a NaN there raises
    # FrameDegenerate first, see test_frame_degenerate_*.)
    _, _, _, _, frame = _pipeline(membrane, bump03, 1.0, 0.25)
    L1 = frame.L1.copy()
    L1[2, 3] = np.nan
    nan_frame = dataclasses.replace(frame, L1=L1)
    coords = reconstruct_coords(nan_frame, membrane, bump03)
    assert np.all(np.isfinite(coords.t))
    assert np.isnan(coords.curl_sup)


def test_frame_degenerate_on_sign_flip(linear, zero_prof):
    grid = DNGrid.square(1.0, 0.25)
    data, gauge = build_diagonal_data(background_data(zero_prof), grid,
                                      linear, zero_prof)
    state = march(data, grid, linear, zero_prof)
    flipped = dataclasses.replace(gauge, L0=np.full(grid.n_nodes, 3.0))
    with pytest.raises(FrameDegenerate):
        integrate_frame(state, flipped, linear, zero_prof)


def test_gauge_grid_mismatch(membrane, bump03):
    small = DNGrid.square(1.0, 0.25)
    big = DNGrid.square(2.0, 0.25)
    _, gauge_small = build_diagonal_data(background_data(bump03), small,
                                         membrane, bump03)
    data_big, _ = build_diagonal_data(background_data(bump03), big,
                                      membrane, bump03)
    state_big = march(data_big, big, membrane, bump03)
    with pytest.raises(GridMismatch):
        integrate_frame(state_big, gauge_small, membrane, bump03)


def test_frame_transport_stall_names_the_earliest_front(membrane, bump03):
    # A NaN in dxi_ub reaches only its own node's transport coefficients,
    # so the fixed point stalls on that node's front.  Front m of both
    # triangles goes in step, so a NaN on past front 2 is named before one
    # on future front 5.
    grid, _, gauge, state, _ = _pipeline(membrane, bump03, 1.0, 0.25)
    N = grid.N
    past, future = (1, N - 3), (5, N)
    dxi_ub = state.dxi_ub.copy()
    dxi_ub[past] = dxi_ub[future] = np.nan
    nan_state = dataclasses.replace(state, dxi_ub=dxi_ub)
    with pytest.raises(FrameTransportStall) as err:
        integrate_frame(nan_state, gauge, membrane, bump03)
    assert str(err.value) == (
        f"frame transport stalled at {grid.where(*past)} (last update nan)")


@pytest.mark.parametrize("nodes", [((1, -3), (3, -5)), ((4, -1), (6, -3))],
                         ids=["past", "future"])
def test_frame_transport_stall_names_the_least_u_on_a_tie(membrane, bump03,
                                                          nodes):
    # Two NaN updates on one front tie for the largest: the error names the
    # one of least u, on the past front too, whose half the walk holds
    # mirrored (u descending).
    grid, _, gauge, state, _ = _pipeline(membrane, bump03, 1.0, 0.25)
    (i0, dj0), (i1, dj1) = nodes
    first, second = (i0, grid.N + dj0), (i1, grid.N + dj1)
    assert sum(first) == sum(second)
    dxi_ub = state.dxi_ub.copy()
    dxi_ub[first] = dxi_ub[second] = np.nan
    nan_state = dataclasses.replace(state, dxi_ub=dxi_ub)
    with pytest.raises(FrameTransportStall) as err:
        integrate_frame(nan_state, gauge, membrane, bump03)
    assert str(err.value) == (
        f"frame transport stalled at {grid.where(*first)} (last update nan)")


def test_frame_transport_stall_names_the_node(membrane, bump03, monkeypatch):
    grid, _, gauge, state, frame = _pipeline(membrane, bump03, 2.0, 0.05,
                                             eps=1e-2, width=1.5)
    # Replay the single iteration of the first future front from the
    # converged diagonal: the named node is the cell with the largest update.
    lam, bg, rbg = _deviations(grid, frame, membrane, bump03)
    jet = full_field_jet(state, membrane, bump03)
    R = _deviation_rhs(membrane, jet, bg, rbg, lam)
    i, j = next(grid.fronts(1))
    start = np.array([lam[0][:, i, j - 1], lam[1][:, i - 1, j]])
    R_start = np.array([R[0][:, i, j - 1], R[1][:, i - 1, j]])
    R_here = _deviation_rhs(membrane, {k: v[i, j] for k, v in jet.items()},
                            bg[:, i, j], rbg[i, j], start)
    worst = int(np.argmax(np.max(np.abs(R_start + R_here), axis=(0, 1))))

    monkeypatch.setattr(geometry, "FRAME_MAX_ITER", 1)
    with pytest.raises(FrameTransportStall) as err:
        integrate_frame(state, gauge, membrane, bump03)
    # still caught where the march's inner stall is
    assert isinstance(err.value, InnerFixedPointDivergence)
    assert (f"stalled at node (u={grid.u[i[worst]]:.6g}, "
            f"ubar={grid.ub[j[worst]]:.6g})") in str(err.value)
