import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (REVERSED, SEED_PHASES, make_compatible_data,
                      make_zero_data, reversal_pair, time_reversed)
from nullwave import dn_core
from nullwave.data_gauge import build_diagonal_data, perturbed_data
from nullwave.dn_core import (
    march,
    rhs_wave,
    sigma_wave_residual,
    verify_envelopes,
)
from nullwave.errors import (GridMismatch, HyperbolicityLoss,
                             InnerFixedPointDivergence)
from nullwave.grid import DNGrid
from nullwave.nonlinearity import Nonlinearity, membrane_model, polynomial_model
from nullwave.state import DiagonalData, DNState, sigma_of


# (a, a', a'') and (b, b', b'') of dalembert_data's default solution
GAUSS_03 = (lambda u: 0.3 * np.exp(-u * u),
            lambda u: -0.6 * u * np.exp(-u * u),
            lambda u: (-0.6 + 1.2 * u * u) * np.exp(-u * u))
SINE_02 = (lambda v: 0.2 * np.sin(v),
           lambda v: 0.2 * np.cos(v),
           lambda v: -0.2 * np.sin(v))


SOURCES = ("psi", "psib", "xi")


def _jets(state):
    return (state.psi, state.psib, state.dpsi_u, state.dpsi_ub,
            state.dpsib_u, state.dpsib_ub, state.dxi_u, state.dxi_ub)


def dalembert_data(grid, a=GAUSS_03, b=SINE_02):
    """Diagonal data of an exact flat-space solution psi = 2a'(u),
    psib = 2b'(ubar), xi = a(u) + b(ubar); a and b are (f, f', f'')."""
    s = grid.u
    (a, ap, app), (b, bp, bpp) = a, b
    zero = np.zeros_like(s)
    data = DiagonalData(
        s=s,
        psi=2 * ap(s), psib=2 * bp(-s), xi=a(s) + b(-s),
        sigma=-(2 * ap(s)) * (2 * bp(-s)),
        dpsi_u=2 * app(s), dpsi_ub=zero.copy(),
        dpsib_u=zero.copy(), dpsib_ub=2 * bpp(-s),
        dxi_u=ap(s), dxi_ub=bp(-s),
        gamma_bar=0.5,
    )
    exact = {
        "psi": lambda U, UB: 2 * ap(U) + 0 * UB,
        "psib": lambda U, UB: 2 * bp(UB) + 0 * U,
        "xi": lambda U, UB: a(U) + b(UB),
    }
    return data, exact


def test_march_linear_dalembert(linear, zero_prof):
    errs = {}
    for h in (0.05, 0.025):
        grid = DNGrid.square(2.0, h)
        data, exact = dalembert_data(grid)
        st_ = march(data, grid, linear, zero_prof)
        U, UB = grid.u[:, None], grid.ub[None, :]
        errs[h] = max(
            np.max(np.abs(st_.psi - exact["psi"](U, UB))),
            np.max(np.abs(st_.psib - exact["psib"](U, UB))),
            np.max(np.abs(st_.xi - exact["xi"](U, UB))),
        )
    assert errs[0.05] < 2e-3
    order = np.log2(errs[0.05] / errs[0.025])
    assert 1.7 < order < 2.3


def test_march_linear_derivatives_exact(linear, zero_prof):
    # with F == 0 the derivative transports are exact copies
    grid = DNGrid.square(1.5, 0.05)
    data, _ = dalembert_data(grid)
    st_ = march(data, grid, linear, zero_prof)
    shape = st_.psi.shape
    assert np.array_equal(st_.dpsi_u, np.broadcast_to(data.dpsi_u[:, None], shape))
    assert np.array_equal(st_.dpsib_ub,
                          np.broadcast_to(data.dpsib_ub[::-1][None, :], shape))
    assert np.all(st_.dpsi_ub == 0.0)
    assert np.all(st_.dpsib_u == 0.0)


def _dalembert_draw(seed):
    """(A, c, w, B, k, p, radius) of the test below, from one integer
    seed (SEED_PHASES)."""
    rng = np.random.default_rng(seed)
    return (rng.uniform(-0.5, 0.5), rng.uniform(-1.0, 1.0),
            rng.uniform(0.7, 2.0), rng.uniform(0.05, 0.5),
            rng.uniform(0.5, 2.0), rng.uniform(0.0, 6.3),
            (2.0, 3.0)[rng.integers(2)])


@given(draw=st.integers(0, 2**32 - 1).map(_dalembert_draw))
@example(draw=(0.0, -1.0, 0.7, 0.05, 0.5, 0.0, 2.0))
@example(draw=(-0.5, -1.0, 2.0, 0.05, 0.5, 0.0, 2.0))
@example(draw=(0.5, 1.0, 2.0, 0.5, 2.0, 6.3, 3.0))
@example(draw=(0.5, -1.0, 0.7, 0.05, 0.5, 0.0, 2.0))
@example(draw=(-0.5, 1.0, 0.7, 0.05, 0.5, 0.0, 3.0))
@settings(max_examples=10, phases=SEED_PHASES)
def test_march_linear_exact_over_random_data(linear, zero_prof, draw):
    # Criterion 1 over random smooth solutions a(u) + b(ubar), a a
    # Gaussian A exp(-((u - c) / w)^2), b a sine B sin(k ubar + p): with
    # F == 0 the derivative transports are bitwise copies of the data, and
    # the fields meet d'Alembert at second order.  The error at h 0.05 is
    # held to h^2 times sup|a''| + sup|b''| = 2|A|/w^2 + B k^2, scaled by
    # 0.6: over the examples and seeds 0-149 it was at most 0.461 of that,
    # at the steepest Gaussians (|A| = 0.5, w = 0.7; error 2.37e-3).  The
    # examples put every range at its ends.
    A, c, w, B, k, p, radius = draw

    def gauss(u):
        return A * np.exp(-((u - c) / w) ** 2)

    a = (gauss, lambda u: -2.0 * (u - c) / w ** 2 * gauss(u),
         lambda u: (4.0 * (u - c) ** 2 / w ** 4 - 2.0 / w ** 2) * gauss(u))
    b = (lambda v: B * np.sin(k * v + p), lambda v: B * k * np.cos(k * v + p),
         lambda v: -B * k * k * np.sin(k * v + p))
    errs = {}
    for h in (0.05, 0.025):
        grid = DNGrid.square(radius, h)
        data, exact = dalembert_data(grid, a, b)
        st_ = march(data, grid, linear, zero_prof)
        shape = st_.psi.shape
        assert np.array_equal(st_.dpsi_u,
                              np.broadcast_to(data.dpsi_u[:, None], shape))
        assert np.array_equal(
            st_.dpsib_ub, np.broadcast_to(data.dpsib_ub[::-1][None, :], shape))
        assert np.all(st_.dpsi_ub == 0.0) and np.all(st_.dpsib_u == 0.0)
        U, UB = grid.u[:, None], grid.ub[None, :]
        errs[h] = max(np.max(np.abs(getattr(st_, name) - f(U, UB)))
                      for name, f in exact.items())
    assert errs[0.05] < 0.6 * 0.05 ** 2 * (2 * abs(A) / w ** 2 + B * k ** 2)
    assert 1.7 < np.log2(errs[0.05] / errs[0.025]) < 2.3


def test_march_zero_data_stays_zero(membrane, bump03):
    grid = DNGrid.square(3.0, 0.1)
    st_ = march(make_zero_data(grid), grid, membrane, bump03)
    for name, arr in st_.arrays().items():
        assert np.all(arr == 0.0), name


@pytest.mark.parametrize("model", [
    membrane_model(),
    polynomial_model(0.15, -0.05, 0.02),  # H' != 0: F_xi is live
], ids=["membrane", "polynomial"])
def test_march_satisfies_box_scheme(model, bump03):
    # Every stored cell must meet the scheme's per-cell equations with F
    # recomputed from the stored fields, to within the cell tolerance: a
    # front that stopped iterating too early would leave a larger residual.
    grid = DNGrid.square(2.0, 0.05)
    h = grid.h
    qq = 0.25 * h * h
    st_ = march(make_compatible_data(grid, bump03), grid, model, bump03)
    sources = rhs_wave(
        model, bump03.dzeta(grid.ub)[None, :], bump03.d2zeta(grid.ub)[None, :],
        st_.psi, st_.psib, st_.dpsi_u, st_.dpsi_ub, st_.dpsib_u, st_.dpsib_ub,
        st_.dxi_u, st_.dxi_ub,
    )
    tol = dn_core.CELL_TOL * (1.0 + max(
        np.max(np.abs(getattr(st_, name))) for name in ("psi", "psib", "xi")))
    for name, F in zip(("psi", "psib", "xi"), sources):
        f = getattr(st_, name)
        fu, fub = getattr(st_, f"d{name}_u"), getattr(st_, f"d{name}_ub")
        for d in (1, -1):
            hh = 0.5 * h * d
            for m, (i, j) in enumerate(grid.fronts(d), 1):
                iw, js = i - d, j - d
                u_transport = fub[i, j] - fub[iw, j] - hh * (F[iw, j] + F[i, j])
                ub_transport = fu[i, j] - fu[i, js] - hh * (F[i, js] + F[i, j])
                if m == 1:  # averaged one-leg rule
                    cell = f[i, j] \
                        - 0.5 * (f[i, js] + hh * (fub[i, js] + fub[i, j])) \
                        - 0.5 * (f[iw, j] + hh * (fu[iw, j] + fu[i, j]))
                else:  # four-corner rule
                    cell = f[i, j] - f[iw, j] - f[i, js] + f[iw, js] \
                        - qq * (F[i, j] + F[iw, j] + F[i, js] + F[iw, js])
                for resid in (u_transport, ub_transport, cell):
                    assert np.max(np.abs(resid)) <= tol, (name, d, m)


def _retry_case(membrane, bump03):
    grid = DNGrid.square(2.0, 0.05)
    data, _ = build_diagonal_data(perturbed_data(bump03, eps=1e-3),
                                  grid, membrane, bump03)
    return data, grid


def test_march_damped_retry_rescues_short_plain_budget(membrane, bump03,
                                                       monkeypatch):
    data, grid = _retry_case(membrane, bump03)
    ref = march(data, grid, membrane, bump03)
    monkeypatch.setattr(dn_core, "N_PLAIN", 2)
    monkeypatch.setattr(dn_core, "N_DAMPED", 40)
    st_ = march(data, grid, membrane, bump03)
    for name in ref.arrays():
        gap = np.max(np.abs(getattr(st_, name) - getattr(ref, name)))
        assert gap <= 1e-10, name


def test_march_retry_exhausted_names_the_node(membrane, bump03, monkeypatch):
    data, grid = _retry_case(membrane, bump03)
    monkeypatch.setattr(dn_core, "N_PLAIN", 1)
    monkeypatch.setattr(dn_core, "N_DAMPED", 1)
    with pytest.raises(InnerFixedPointDivergence, match=r"node \(u=.*, ubar=.*\)"):
        march(data, grid, membrane, bump03)


def test_march_output_frozen(membrane, bump03):
    grid = DNGrid.square(1.0, 0.1)
    st_ = march(make_zero_data(grid), grid, membrane, bump03)
    with pytest.raises(ValueError):
        st_.psi[0, 0] = 1.0


def test_march_grid_mismatch(membrane, bump03):
    grid = DNGrid.square(1.0, 0.1)
    other = DNGrid.square(1.0, 0.05)
    data = make_zero_data(other)
    with pytest.raises(GridMismatch):
        march(data, grid, membrane, bump03)


def test_march_domain_wall_raises(membrane, zero_prof):
    # constant data with sigma = -psi psib = -1.69 < -1 on the whole slice
    grid = DNGrid.square(1.0, 0.1)
    n = grid.n_nodes
    ones = np.ones(n)
    data = DiagonalData(
        s=grid.u.copy(), psi=1.3 * ones, psib=1.3 * ones, xi=0 * ones,
        sigma=-1.69 * ones,
        dpsi_u=0 * ones, dpsi_ub=0 * ones, dpsib_u=0 * ones,
        dpsib_ub=0 * ones, dxi_u=0 * ones, dxi_ub=0 * ones,
        gamma_bar=0.5,
    )
    with pytest.raises(HyperbolicityLoss):
        march(data, grid, membrane, zero_prof)


def test_march_into_custom_wall_names_the_node(zero_prof):
    # f = 0 with a wall at sigma = 1e-6: two d'Alembert pulses, psi moving
    # along u = 0.6 and psib along ubar = 0.6, keep sigma below the wall on
    # the data slice but meet at (0.6, 0.6), where sigma = 0.04.
    walled = Nonlinearity("custom", np.zeros_like, np.zeros_like,
                          np.zeros_like, sigma_max=1e-6)

    def bump(x):
        return 0.2 * np.exp(-(((x - 0.6) / 0.15) ** 2))

    grid = DNGrid.square(1.5, 0.05)
    s, z = grid.u, np.zeros(grid.n_nodes)
    pulse = bump(s)
    dpulse = -2.0 * (s - 0.6) / 0.15**2 * pulse
    mirrored = pulse[::-1]  # the pulse at ubar = -s
    data = DiagonalData(
        s=s.copy(), psi=pulse, psib=-mirrored, xi=z.copy(),
        sigma=pulse * mirrored,
        dpsi_u=dpulse, dpsi_ub=z.copy(), dpsib_u=z.copy(),
        dpsib_ub=-dpulse[::-1], dxi_u=z.copy(), dxi_ub=z.copy(),
        gamma_bar=0.5,
    )
    assert np.max(data.sigma) < 1e-6
    with pytest.raises(HyperbolicityLoss,
                       match=r"at node \(u=(\S+), ubar=(\S+)\)") as err:
        march(data, grid, walled, zero_prof)
    u, ub = (float(v) for v in
             re.search(r"u=(\S+), ubar=(\S+)\)", str(err.value)).groups())
    # the exact solution has sigma = bump(u) bump(ubar) past the wall there
    assert bump(u) * bump(ub) > 1e-6


WALLED = Nonlinearity("custom", np.zeros_like, np.zeros_like, np.zeros_like,
                      sigma_max=1e-6)


def _wall_node(grid, zero_prof, psi_at, psib_at):
    """(u, ubar) of the node march names on WALLED for a psi pulse along
    u = psi_at and a psib pulse along each ubar in psib_at.  f = 0, so
    the pulses travel unchanged and sigma = P(u) Q(ubar) crosses the wall
    1e-6 only near where they meet, off the data slice; the named node
    is checked to be past the wall in the exact solution."""
    def bump(x, at):
        return 0.2 * np.exp(-(((x - at) / 0.15) ** 2))

    def dbump(x, at):
        return -2.0 * (x - at) / 0.15**2 * bump(x, at)

    def Q(ub):
        return sum(bump(ub, at) for at in psib_at)

    s, z = grid.u, np.zeros(grid.n_nodes)
    P, dP = bump(s, psi_at), dbump(s, psi_at)
    dQ = sum(dbump(-s, at) for at in psib_at)       # at ubar = -s
    data = DiagonalData(
        s=s.copy(), psi=P, psib=-Q(-s), xi=z.copy(), sigma=P * Q(-s),
        dpsi_u=dP, dpsi_ub=z.copy(), dpsib_u=z.copy(), dpsib_ub=-dQ,
        dxi_u=z.copy(), dxi_ub=z.copy(), gamma_bar=0.5,
    )
    assert np.max(data.sigma) < 1e-6
    with pytest.raises(HyperbolicityLoss) as err:
        march(data, grid, WALLED, zero_prof)
    u, ub = (float(v) for v in
             re.search(r"u=(\S+), ubar=(\S+)\)", str(err.value)).groups())
    assert bump(u, psi_at) * Q(ub) > 1e-6
    return u, ub


@pytest.mark.parametrize("psi_at,past_at,future_at,first", [
    (-0.2, -1.2, 1.8, "past"),     # the past half fails at an earlier front
    (0.0, -1.2, 1.2, "future"),    # both fail at the same front
])
def test_march_raises_at_the_first_front_either_half_fails(
        zero_prof, psi_at, past_at, future_at, first):
    # Each half's failing node comes from a run where only that half
    # fails; with both psib pulses the walk names the one on the earlier
    # front m, the future one on a tie.  A walk of the whole future
    # triangle first would name the future node in both cases.
    grid = DNGrid.square(2.5, 0.025)
    past = _wall_node(grid, zero_prof, psi_at, (past_at,))
    future = _wall_node(grid, zero_prof, psi_at, (future_at,))
    assert past[0] + past[1] < 0.0 < future[0] + future[1]
    m_past, m_future = (round(abs(u + ub) / grid.h) for u, ub in (past, future))
    assert (m_past < m_future) if first == "past" else (m_past == m_future)
    both = _wall_node(grid, zero_prof, psi_at, (past_at, future_at))
    assert both == (past if first == "past" else future)


def test_solve_front_halves_match_their_solo_solves(membrane, bump03):
    # Any front of both triangles, from the marched state, solved as one
    # array and one half at a time: each half's unknowns, sources and
    # converged mask agree bit for bit, plain and damped, also on fronts
    # where the halves stop after different numbers of iterations.
    grid = DNGrid.square(2.0, 0.1)
    data = make_compatible_data(grid, bump03, amp=0.2)
    st_ = march(data, grid, membrane, bump03)
    zp, zpp = bump03.dzeta(grid.ub), bump03.d2zeta(grid.ub)
    comps = [np.array([getattr(st_, f"{p}{n}{q}") for n in SOURCES])
             for p, q in (("", ""), ("d", "_u"), ("d", "_ub"))]
    comps.append(np.array(rhs_wave(membrane, zp[None, :], zpp[None, :],
                                   *_jets(st_))))
    hh = 0.5 * grid.h * np.array([[1.0], [-1.0]])
    sW, sS = grid.predecessors()

    def joint(m):
        """Front m of both halves, the past one mirrored; m = 0 is the
        diagonal."""
        if m == 0:
            i, j = grid.diagonal()
            return np.array([i, i[::-1]]), np.array([j, j[::-1]])
        (fi, fj), (pi, pj) = (list(grid.fronts(d))[m - 1] for d in (1, -1))
        return np.array([fi, pi[::-1]]), np.array([fj, pj[::-1]])

    def solve(cells, z, hh, W, S, D, damp, n_it, half=slice(None)):
        return dn_core._solve_front(
            membrane, grid, [x[half] for x in cells], [x[half] for x in z],
            hh[half], [x[:, half] for x in W], [x[:, half] for x in S],
            None if D is None else [x[:, half] for x in D], damp, n_it)

    def stop_count(*args, half):
        return next(n for n in range(1, dn_core.N_PLAIN + 1)
                    if solve(*args, 1.0, n, half=half)[2].all())

    staggered = 0
    for m in range(1, grid.N + 1):
        cells = joint(m)
        i, j = cells
        prev = [c[:, i_, j_] for c in comps for i_, j_ in [joint(m - 1)]]
        W, S = [x[..., sW] for x in prev], [x[..., sS] for x in prev]
        if m == 1:
            D = None        # the first front's across-corners are off the walk
        else:
            oi, oj = joint(m - 2)
            D = (comps[0][:, oi, oj][..., 1:-1], comps[3][:, oi, oj][..., 1:-1])
        args = (cells, (zp[j], zpp[j]), hh, W, S, D)
        for damp in (1.0, 0.5):
            both = solve(*args, damp, dn_core.N_PLAIN)
            assert both[3] == [None, None]
            for h in (0, 1):
                half = slice(h, h + 1)
                one = solve(*args, damp, dn_core.N_PLAIN, half=half)
                assert np.array_equal(one[0], both[0][:, :, half]), (m, h)
                assert np.array_equal(one[1], both[1][:, half]), (m, h)
                assert np.array_equal(one[2], both[2][half]), (m, h)
        staggered += len({stop_count(*args, half=slice(h, h + 1))
                          for h in (0, 1)}) == 2
    assert staggered > 0


@pytest.mark.parametrize("model", [membrane_model(),
                                   polynomial_model(0.15, -0.05, 0.02)],
                         ids=["membrane", "polynomial"])
@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=8, phases=SEED_PHASES)
def test_march_commutes_with_time_reversal(zero_prof, model, seed):
    # Each triangle is walked from the diagonal alone, so the past triangle
    # of the march equals, bit for bit, the future triangle of the march
    # from the time-reversed data, mapped back; the diagonal nodes are
    # fixed by the map.
    grid = DNGrid.square(2.0, 0.05)
    data, reversed_data = reversal_pair(grid.u, seed)
    state = march(data, grid, model, zero_prof)
    mirror = march(reversed_data, grid, model, zero_prof)
    n = np.arange(grid.n_nodes)
    future = n[:, None] + n[None, :] >= grid.N
    for name, (src, sign) in REVERSED.items():
        image = time_reversed(getattr(state, src), sign)
        assert np.array_equal(getattr(mirror, name)[future],
                              image[future]), name


def test_domain_of_dependence_two_quadrants(membrane, zero_prof):
    # data edited at s > s0 only changes nodes whose dependence interval
    # reaches past s0: u > s0 in the future triangle, ubar > -s0 in the past
    grid = DNGrid.square(2.0, 0.1)
    base = make_compatible_data(grid, zero_prof, amp=0.02)
    k0 = int(0.7 * grid.N)

    bumped = {}
    for name in base.__dataclass_fields__:
        val = getattr(base, name)
        bumped[name] = val.copy() if isinstance(val, np.ndarray) else val
    for name in ("psi", "dpsi_u"):
        arr = bumped[name]
        arr[k0 + 1:] = arr[k0 + 1:] + 0.01
    bumped["sigma"] = sigma_of(bumped["psi"], bumped["psib"],
                               zero_prof.dzeta(-grid.u))
    edited = DiagonalData(**bumped)

    st_a = march(base, grid, membrane, zero_prof)
    st_b = march(edited, grid, membrane, zero_prof)

    ii = np.arange(grid.N + 1)[:, None]
    jj = np.arange(grid.N + 1)[None, :]
    future = ii + jj >= grid.N
    past = ii + jj <= grid.N
    untouched_future = future & (ii <= k0)
    untouched_past = past & (jj >= grid.N - k0)
    changed_somewhere = False
    for name in st_a.arrays():
        a, b = getattr(st_a, name), getattr(st_b, name)
        assert np.array_equal(a[untouched_future], b[untouched_future]), name
        assert np.array_equal(a[untouched_past], b[untouched_past]), name
        changed_somewhere |= not np.array_equal(a, b)
    assert changed_somewhere


def test_sigma_wave_residual_second_order(membrane, bump03):
    sups = {}
    for h in (0.05, 0.025):
        grid = DNGrid.square(2.0, h)
        data = make_compatible_data(grid, bump03)
        st_ = march(data, grid, membrane, bump03)
        sups[h] = sigma_wave_residual(st_, membrane, bump03)
    order = np.log2(sups[0.05] / sups[0.025])
    assert 1.6 < order < 2.4


def test_rhs_wave_linear_is_zero(linear):
    f1, f2, f3 = rhs_wave(linear, 0.3, 0.1,
                          0.2, -0.1, 0.5, 0.4, 0.3, 0.2, 0.1, 0.6)
    assert f1 == 0.0 and f2 == 0.0 and f3 == 0.0
    assert sigma_of(0.2, -0.1, 0.3) == pytest.approx(-0.2 * (0.6 - 0.1))


def test_rhs_wave_membrane_spot_value(membrane):
    # at sigma = 0.25 the membrane has G = -0.8 (frozen); check F_psi
    psi, psib, zp = 0.5, -0.5, 0.0  # sigma = -0.5 * -0.5 = 0.25
    du, dub = (0.3, 0.2, 0.1, -0.4), None
    dpsi_u, dpsi_ub, dpsib_u, dpsib_ub = du
    f1, f2, f3 = rhs_wave(membrane, zp, 0.0, psi, psib,
                          dpsi_u, dpsi_ub, dpsib_u, dpsib_ub, 0.0, 0.0)
    assert sigma_of(psi, psib, zp) == pytest.approx(0.25)
    s_u = -dpsi_u * psib - psi * dpsib_u
    s_ub = -dpsi_ub * psib - psi * dpsib_ub
    assert f1 == pytest.approx(-0.5 * -0.8 * (s_u * dpsi_ub + dpsi_u * s_ub), rel=1e-12)
    assert f2 == pytest.approx(-0.5 * -0.8 * (s_u * dpsib_ub + dpsib_u * s_ub), rel=1e-12)
    assert f3 == 0.0  # membrane H' == 0 decouples xi


@pytest.mark.parametrize("sources", [
    ("psi",), ("psib",), ("xi",), ("xi", "psi"), ("psib", "xi"),
])
def test_rhs_wave_selector_is_a_bitwise_slice(bump03, sources):
    # A partial selection returns the chosen sources, without sigma, in
    # the fixed psi, psib, xi order, each bitwise equal to the full call's.
    model = polynomial_model(0.15, -0.05, 0.02)  # H' != 0: F_xi is live
    grid = DNGrid.square(1.0, 0.1)
    rng = np.random.default_rng(4)
    jets = [0.05 * rng.standard_normal((grid.n_nodes, grid.n_nodes))
            for _ in range(8)]
    zp = bump03.dzeta(grid.ub)[None, :]
    zpp = bump03.d2zeta(grid.ub)[None, :]
    full = rhs_wave(model, zp, zpp, *jets)
    got = rhs_wave(model, zp, zpp, *jets, sources=sources)
    want = [f for name, f in zip(("psi", "psib", "xi"), full) if name in sources]
    assert len(full) == 3 and len(got) == len(want)
    for a, b in zip(got, want):
        assert np.array_equal(a, b)


def test_rhs_wave_rejects_unknown_source(membrane):
    with pytest.raises(ValueError):
        rhs_wave(membrane, 0.0, 0.0, 0.1, 0.1, 0, 0, 0, 0, 0, 0, sources=("phi",))


def test_rhs_wave_raises_outside_domain(membrane):
    with pytest.raises(HyperbolicityLoss):
        rhs_wave(membrane, 0.0, 0.0, 1.3, 1.3, 0, 0, 0, 0, 0, 0)


@given(
    psi=st.floats(-0.3, 0.3), psib=st.floats(-0.3, 0.3),
    dpsi_u=st.floats(-0.5, 0.5), dpsi_ub=st.floats(-0.5, 0.5),
    dpsib_u=st.floats(-0.5, 0.5), dpsib_ub=st.floats(-0.5, 0.5),
    dxi_u=st.floats(-0.5, 0.5), dxi_ub=st.floats(-0.5, 0.5),
    zp=st.floats(-0.4, 0.4), zpp=st.floats(-0.4, 0.4),
)
@settings(max_examples=80, deadline=None)
def test_rhs_wave_odd_in_u_derivatives(membrane, psi, psib, dpsi_u, dpsi_ub,
                                       dpsib_u, dpsib_ub, dxi_u, dxi_ub, zp, zpp):
    # flipping every d_u input flips every right side (sigma_of does not
    # see the derivatives)
    a1, b1, c1 = rhs_wave(membrane, zp, zpp, psi, psib,
                          dpsi_u, dpsi_ub, dpsib_u, dpsib_ub, dxi_u, dxi_ub)
    a2, b2, c2 = rhs_wave(membrane, zp, zpp, psi, psib,
                          -dpsi_u, dpsi_ub, -dpsib_u, dpsib_ub, -dxi_u, dxi_ub)
    assert a1 == pytest.approx(-a2, abs=1e-15)
    assert b1 == pytest.approx(-b2, abs=1e-15)
    assert c1 == pytest.approx(-c2, abs=1e-15)


def test_rhs_wave_swap_symmetry_without_background(membrane):
    # with zp = zpp = 0 the system is symmetric under u <-> ubar
    args = (0.15, -0.2, 0.31, -0.12, 0.27, 0.08, 0.4, -0.3)
    psi, psib, du1, dub1, du2, dub2, du3, dub3 = args
    a1, b1, c1 = rhs_wave(membrane, 0.0, 0.0, psi, psib,
                          du1, dub1, du2, dub2, du3, dub3)
    a2, b2, c2 = rhs_wave(membrane, 0.0, 0.0, psi, psib,
                          dub1, du1, dub2, du2, dub3, du3)
    assert a1 == pytest.approx(a2, rel=1e-13)
    assert b1 == pytest.approx(b2, rel=1e-13)
    assert c1 == pytest.approx(c2, rel=1e-13)


def test_verify_envelopes_hand_values():
    grid = DNGrid.square(1.0, 0.5)
    st_ = DNState.zeros(grid)
    st_.psi[:] = 0.25
    st_.dpsi_ub[:] = 0.1
    fit = verify_envelopes(st_, 1.0)
    # weighted ubar sup: 0.1 * (1 + 1)^2 = 0.4 beats the plain 0.25
    assert fit["psi"] == pytest.approx(0.4, rel=1e-12)
    assert fit["psib"] == 0.0 and fit["xi"] == 0.0
    assert fit["delta"] == fit["psi"]
    assert fit["gamma_bar"] == 1.0


def test_verify_envelopes_linear_in_amplitude(membrane, bump03):
    grid = DNGrid.square(1.5, 0.05)
    data = make_compatible_data(grid, bump03, amp=1e-3)
    st_ = march(data, grid, membrane, bump03)
    fit1 = verify_envelopes(st_, 0.5)
    doubled = DNState(grid, *[2.0 * a for a in st_.arrays().values()])
    fit2 = verify_envelopes(doubled, 0.5)
    for key in ("psi", "psib", "xi", "delta"):
        assert fit2[key] == pytest.approx(2.0 * fit1[key], rel=1e-12)
