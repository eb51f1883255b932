"""Double-null evolution of the perturbation system from t=0 data.

The unknowns are the perturbation fields (psi, psib, xi) and their null
derivatives on the square grid.  Writing s = sigma, zp = zeta'(ubar),
zpp = zeta''(ubar), the semilinear system integrated here is

    d_u d_ub psi  = F_psi  = -G/2 (s_u psi_ub + psi_u s_ub)
    d_u d_ub psib = F_psib = -G s_u zpp - G/2 (s_u psib_ub + psib_u s_ub)
    d_u d_ub xi   = F_xi   = -c (s_u xi_ub + xi_u s_ub + zp s_u),
                             c = s kappa H'/4

(subscripts u, ub are the null derivatives), with sigma slaved
algebraically, never integrated (state.sigma_of, dsigma_u_of,
dsigma_ub_of):

    s    = -psi (2 zp + psib)
    s_u  = -psi_u (2 zp + psib) - psi psib_u
    s_ub = -psi_ub (2 zp + psib) - psi (2 zpp + psib_ub)

and G, kappa, H' the coefficients of the model at s
(nonlinearity.Coefficients).  rhs_wave evaluates the right side.

Data lives on the anti-diagonal i + j = N (the t=0 slice, where u = s and
ubar = -s).  march() fills the future and past triangles of the square
with a cell-by-cell characteristic scheme and returns a frozen DNState.
At a node P with known u-predecessor W, ubar-predecessor S and
across-corner D, the mixed derivative F = d_u d_ub(field) is integrated
with

    d_ub field (P) = d_ub field (W) + h/2 (F_W + F_P)       (u transport)
    d_u  field (P) = d_u  field (S) + h/2 (F_S + F_P)       (ubar transport)
    field (P)      = field(W) + field(S) - field(D)
                     + h^2/4 (F_P + F_W + F_S + F_D)        (cell integral)

(all signs flip on the backward sweep into the past triangle).  On the first
front off the diagonal the across-corner D is not available and the value is
taken as the average of the two one-leg trapezoid integrations instead.

The fronts i + j = N +- m and the slices of the previous front that hold W
and S come from DNGrid.fronts and DNGrid.predecessors, which the frame
transport (geometry.integrate_frame) walks as well.  D lies on the front
before, so the sweep carries its last two fronts, sources included.  F_P
depends on the unknowns at P, so each front runs a small fixed-point loop
vectorized over its cells and fields: plain iterations until every cell's
update is within CELL_TOL of its size (N_PLAIN caps them), then a damped
retry from the predictor for any cell that has not converged (N_DAMPED caps
that).  The sweep fills a DNState in place and raises the named errors
itself, at the first failing node of the front: HyperbolicityLoss where
sigma leaves the model's admissible range, InnerFixedPointDivergence where a
cell is still unconverged after the retry.

The linear solves of the global iteration (picard._frozen_solve) satisfy the
same per-cell equations with F known on every node, which makes them closed
form, with no front sweep.
"""

from __future__ import annotations

import numpy as np

from .background import WaveProfile
from .errors import HyperbolicityLoss, InnerFixedPointDivergence
from .grid import DNGrid, jet_sup, map_row_blocks, row_blocks
from .nonlinearity import Nonlinearity, coefficients, eval_coeffs
from .state import (FIELD_NAMES, DiagonalData, DNState, dsigma_u_of,
                    dsigma_ub_of, sigma_of)


N_PLAIN = 8
N_DAMPED = 8
CELL_TOL = 1e-12

SOURCES = ("psi", "psib", "xi")


def _rhs_arrays(model, zp, zpp, psi, psib, psi_u, psi_ub, psib_u, psib_ub,
                xi_u, xi_ub, sources=SOURCES):
    """(ok, sigma, *F): the Coefficients mask ok at sigma and the sources.

    sources selects which of F_psi, F_psib, F_xi are formed; they are
    returned in that fixed order, whatever the order of the selector.  Each
    selected source is evaluated by the same expression whatever else is
    selected, so a partial selection is bitwise a slice of the full one.
    Coefficients forms its quotients on first read: G only for the psi
    and psib sources, H' only for the xi source.
    """
    sig = sigma_of(psi, psib, zp)
    s_u = dsigma_u_of(psi, psib, psi_u, psib_u, zp)
    s_ub = dsigma_ub_of(psi, psib, psi_ub, psib_ub, zp, zpp)
    co = coefficients(model, sig)
    out = [co.ok, sig]
    if "psi" in sources:
        out.append(-0.5 * co.G * (s_u * psi_ub + psi_u * s_ub))
    if "psib" in sources:
        out.append(-co.G * s_u * zpp - 0.5 * co.G * (s_u * psib_ub + psib_u * s_ub))
    if "xi" in sources:
        out.append(-(0.25 * sig * co.kappa * co.Hp)
                   * (s_u * xi_ub + xi_u * s_ub + zp * s_u))
    return tuple(out)


def _require_admissible(okm, grid, ii, jj):
    """Raise HyperbolicityLoss at the first node (ii, jj) outside okm."""
    if not np.all(okm):
        bad = int(np.argmin(okm))
        raise HyperbolicityLoss(
            "sigma left the admissible range (domain wall or kappa <= 0) at "
            + grid.where(ii[bad], jj[bad])
        )


def _sweep(grid, direction, model, zp, zpp, state):
    """Sweep one time direction front by front, filling state in place.

    direction = +1 fills the future triangle i+j > N, -1 the past one.
    The unknowns of a set of cells are held as one (3, 3, cells) array:
    field (psi, psib, xi) by component (value, d_u, d_ub).  A finished
    front is one (4, 3, cells) array, component (value, d_u, d_ub, F) by
    field: W and S are slices of the last one, D is [1:-1] of the one before.
    """
    h, d = grid.h, direction
    hh = 0.5 * h * d
    qq = 0.25 * h * h
    fields = [[getattr(state, n) for n in (name, f"d{name}_u", f"d{name}_ub")]
              for name in ("psi", "psib", "xi")]
    sW, sS = grid.predecessors(d)

    def rhs(j, U):
        (p, pu, pub), (b, bu, bub), (_, xu, xub) = U
        return _rhs_arrays(model, zp[j], zpp[j], p, b, pu, pub, bu, bub, xu, xub)

    def store(here, U):
        """Write U into state at here; return the front with its sources."""
        okm, _, *sources = rhs(here[1], U)
        _require_admissible(okm, grid, *here)
        for (V, VU, VUB), (v, vu, vub) in zip(fields, U):
            V[here], VU[here], VUB[here] = v, vu, vub
        return np.concatenate((U.swapaxes(0, 1), [sources]))

    here = grid.diagonal()
    prev = store(here, np.array([[A[here] for A in fld] for fld in fields]))

    for m, (ii, jj) in enumerate(grid.fronts(d), 1):
        first = m == 1
        W, S = prev[..., sW], prev[..., sS]
        # On the first front the corner (i - d, j - d) is on the other
        # sweep's first front: 0 on the future sweep, which runs first, and
        # that sweep's values on the past one.  Only the predictor reads it.
        D = (np.array([[V[ii - d, jj - d] for V, *_ in fields]]) if first
             else older[..., 1:-1])

        def solve_subset(sel, damp, n_it):
            """At most n_it fixed-point iterations for the selected cells.

            The loop stops once every selected cell's update is within
            CELL_TOL * scale.  The stop is front-wide: a cell that converged
            early keeps iterating until the slowest cell has, so its result
            depends on the subset it runs in, but only below that tolerance.
            Returns the unknowns and the mask of converged cells.
            """
            i, j = ii[sel], jj[sel]
            V_w, VU_w, VUB_w, F_w = W[..., sel]
            V_s, VU_s, VUB_s, F_s = S[..., sel]
            V_c, F_c = D[0][..., sel], D[-1][..., sel]
            corner = V_w + V_s - V_c
            cur = np.stack((corner, VU_s, VUB_w), axis=1)
            new = np.empty_like(cur)
            good = np.zeros(i.shape, dtype=bool)
            for _ in range(n_it):
                okm, _, *sources = rhs(j, cur)
                _require_admissible(okm, grid, i, j)
                f = np.array(sources)
                n_u = VU_s + hh * (F_s + f)
                n_ub = VUB_w + hh * (F_w + f)
                if first:
                    new[:, 0] = 0.5 * (V_s + hh * (VUB_s + n_ub)) \
                        + 0.5 * (V_w + hh * (VU_w + n_u))
                else:
                    new[:, 0] = corner + qq * (f + F_w + F_s + F_c)
                new[:, 1], new[:, 2] = n_u, n_ub
                if damp != 1.0:
                    new = cur + damp * (new - cur)
                change = np.max(np.abs(new - cur), axis=(0, 1))
                cur, new = new, cur
                scale = 1.0 + np.max(np.abs(cur[:, 0]), axis=0)
                good = change <= CELL_TOL * scale
                if np.all(good):
                    break
            return cur, good

        sol, good = solve_subset(slice(None), 1.0, N_PLAIN)
        if not np.all(good):
            fail = ~good
            sol[:, :, fail], good[fail] = solve_subset(fail, 0.5, N_DAMPED)
            if not np.all(good):
                bad = int(np.argmin(good))
                raise InnerFixedPointDivergence(
                    "cell fixed point did not converge at "
                    f"{grid.where(ii[bad], jj[bad])}; "
                    "reduce h or the data amplitude"
                )
        older, prev = prev, store((ii, jj), sol)


def march(data: DiagonalData, grid: DNGrid, model: Nonlinearity,
          profile: WaveProfile) -> DNState:
    """Solve the double-null system on the full square from diagonal data.

    Parameters
    ----------
    data : DiagonalData
        Perturbation fields sampled at s = grid.u on the t=0 diagonal.
    grid : DNGrid
        Square grid; data.s must coincide with grid.u.
    model : Nonlinearity
        Coefficient family of the equation.
    profile : WaveProfile
        Background travelling profile zeta entering through zeta'(ubar),
        zeta''(ubar).

    Returns
    -------
    DNState of the nine unknowns, with read-only arrays.  The slaved null
    form is not stored: state.sigma_of forms it from psi and psib.

    Raises
    ------
    GridMismatch
        If data.s are not the nodes of grid (DNGrid.require_nodes).
    HyperbolicityLoss, InnerFixedPointDivergence
        From the sweep, naming the first failing node.
    """
    grid.require_nodes(data.s, "diagonal data")
    state = DNState.zeros(grid)
    diag = grid.diagonal()
    for name in FIELD_NAMES:
        getattr(state, name)[diag] = getattr(data, name)

    zp = np.asarray(profile.dzeta(grid.ub), dtype=float)
    zpp = np.asarray(profile.d2zeta(grid.ub), dtype=float)
    for direction in (1, -1):
        _sweep(grid, direction, model, zp, zpp, state)
    return state.freeze()


def rhs_wave(model: Nonlinearity, zp, zpp, psi, psib,
             dpsi_u, dpsi_ub, dpsib_u, dpsib_ub, dxi_u, dxi_ub,
             sources=SOURCES):
    """Right side of the system at given field values.

    zp, zpp are zeta'(ubar), zeta''(ubar) at the same points as the fields
    (scalars or broadcastable arrays).  Returns (F_psi, F_psib, F_xi) by
    default; sources names a subset of ("psi", "psib", "xi") to form only
    those, and the return is then the selected sources in that order, each
    bitwise equal to its full-selection value.  The slaved sigma is formed
    block by block for the coefficients but not returned (state.sigma_of).
    Fields on a 2-D grid are evaluated one row block at a time
    (grid.map_row_blocks), so the temporaries stay block-sized; every
    element sees the same arithmetic, so the result does not depend on the
    block size.  Raises
    HyperbolicityLoss where the slaved sigma leaves the admissible range,
    naming the first bad value in row-major order; ValueError for an
    unknown source name.
    """
    if not set(sources) <= set(SOURCES):
        raise ValueError(f"sources must be drawn from {SOURCES}, got {sources!r}")
    args = [np.asarray(a, dtype=float) for a in (
        zp, zpp, psi, psib, dpsi_u, dpsi_ub, dpsib_u, dpsib_ub, dxi_u, dxi_ub)]
    shape = np.broadcast_shapes(*(a.shape for a in args))
    if len(shape) == 2:
        return map_row_blocks(lambda *a: _checked_rhs(model, a, sources),
                              shape, *args)
    return _checked_rhs(model, args, sources)


def _checked_rhs(model, args, sources):
    """The sources F of _rhs_arrays, raising at the first inadmissible node."""
    okm, sig, *formed = _rhs_arrays(model, *args, sources)
    if not np.all(okm):
        bad = np.asarray(sig)[~okm]
        raise HyperbolicityLoss(
            f"sigma outside admissible range in rhs_wave (first bad value {bad.flat[0]:.6g})"
        )
    return tuple(formed)


def verify_envelopes(state: DNState, gamma_bar: float) -> dict:
    """Fitted amplitude of each perturbation field on the solved square.

    For each of psi, psib, xi the fit is grid.jet_sup of its jet: the
    largest of the plain field's sup and the decay norms of its u- and
    ubar-derivatives.  The fits are linear in the field amplitudes
    (doubling the solution doubles them).
    """
    g = state.grid
    out = {"gamma_bar": float(gamma_bar)}
    for name, du, dub in (
        ("psi", "dpsi_u", "dpsi_ub"),
        ("psib", "dpsib_u", "dpsib_ub"),
        ("xi", "dxi_u", "dxi_ub"),
    ):
        out[name] = jet_sup(g, getattr(state, name), getattr(state, du),
                            getattr(state, dub), gamma_bar)
    out["delta"] = float(np.max([out["psi"], out["psib"], out["xi"]]))
    return out


def sigma_wave_residual(state: DNState, model: Nonlinearity,
                        profile: WaveProfile) -> float:
    """Residual of the null-form wave identity satisfied by sigma.

    The slaved sigma of an exact solution obeys

        d_u d_ub s + G d_u s d_ub s
                   + d_u Psi d_ub Psib + d_ub Psi d_u Psib = 0

    with Psi = psi and Psib = psib + 2 zeta'(ubar) the full characteristic
    derivatives.  Here d_u s, d_ub s are composed from the stored fields and
    d_u d_ub s is a centered difference of d_ub s in u, so the residual of
    the marched solution shrinks at the scheme's second order.  Returns
    its sup over the interior u-range, formed one row block at a time with
    one row of halo on either side for the centered difference (the
    coefficient G is evaluated on the halo rows too, so every node's sigma
    is checked).  The block maxima are reduced by np.max, so the sup is
    exact and a NaN shows.
    """
    g = state.grid
    n = g.n_nodes
    zp = np.asarray(profile.dzeta(g.ub), dtype=float)[None, :]
    zpp = np.asarray(profile.d2zeta(g.ub), dtype=float)[None, :]
    sups = []
    for blk in row_blocks(n, n, halo=1):
        mid = slice(blk.start + 1, blk.stop - 1)
        psi, psib = state.psi[blk], state.psib[blk]
        s_ub = dsigma_ub_of(psi, psib, state.dpsi_ub[blk], state.dpsib_ub[blk],
                            zp, zpp)
        s_u = dsigma_u_of(psi[1:-1], psib[1:-1], state.dpsi_u[mid],
                          state.dpsib_u[mid], zp)
        d_u_d_ub = (s_ub[2:, :] - s_ub[:-2, :]) / (2.0 * g.h)
        G = eval_coeffs(model, sigma_of(psi, psib, zp)).G[1:-1]
        null_form = (G * s_u * s_ub[1:-1]
                     + state.dpsi_u[mid] * (state.dpsib_ub[mid] + 2.0 * zpp)
                     + state.dpsi_ub[mid] * state.dpsib_u[mid])
        sups.append(np.max(np.abs(d_u_d_ub + null_form)))
    return float(np.max(sups))
