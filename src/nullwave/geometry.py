"""Null-frame transport, coordinate reconstruction, degeneracy monitoring.

The marched state lives in the flat null chart (u, ubar) and only knows the
perturbation fields.  This module rebuilds the geometry on top of it:

* full-field jets: Phi_mu = (d_t phi, d_x phi), the scalar gradient, the
  null form sigma and their grid-null derivatives from a DNState plus the
  travelling background,
* the characteristic frame (L, Lbar): (t, x)-components of the two null
  directions of the perturbed acoustic metric, transported along ubar
  (resp. u) by first-order ODEs quadratic in the frame,
* the inverse coordinate map: d(t,x)/du = Omega Lbar and d(t,x)/dubar =
  Omega L are integrated along both coordinate families and averaged; the
  route mismatch ("curl") is reported as a consistency error,
* degeneracy monitoring: window checks on Omega, the frame components and
  the Jacobian determinant certifying that (u, ubar) -> (t, x) stays a
  diffeomorphism on the computed block.

Everything integrates in deviation ("well-balanced") form: the exact
travelling-wave frame

    Lring_B(ubar) = (-1 - H0 zeta'(ubar)^2,  1 - H0 zeta'(ubar)^2),
    Lbar_ring     = (-1, -1),      Omega_ring_B = -1/2,

is subtracted before quadrature, so a pure background run reproduces those
values to rounding on any grid, and a small perturbation costs
O(eps + h^2) instead of O(h^2) absolute error on the background part.

Normalizations.  Two scalings of the u-family appear:

* grid (A): u is the t=0-anchored coordinate of the data slice, the one the
  state arrays and the step h live in; the transports are integrated here;
* background-matched (B): u_B = V(u), V' = 1 + H0 zeta'(-u)^2; the
  published NullFrame uses it, so far from the data the frame approaches
  the travelling values above independent of where the slice was anchored.

Per u-row they differ by the factor V'(u):

    L_B = V' L_A,    Lbar_B = Lbar_A,    Omega_B = Omega_A / V'.

Transport right-hand side.  With S_L = L^mu d_ub Phi_mu and
Om_inv = g(L, Lbar) = -L^0 Lb^0 + L^1 Lb^1 + H (Phi.L)(Phi.Lbar):

    d_ub L^mu = -[ H S_L (d_u phi L^mu + d_ub phi Lb^mu)
                   + Om_inv H' d_ub phi ( L^mu (d_u phi d_ub sigma
                                                - d_u sigma d_ub phi / 2)
                                          + Lb^mu d_ub sigma d_ub phi / 2 ) ]

and the d_u Lbar^mu equation is its mirror under u <-> ub, L <-> Lbar.
The same expression is valid in both normalizations with their own Om_inv.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .background import background_L, WaveProfile, phase_function
from .data_gauge import GaugeSlice
from .errors import FrameDegenerate, FrameTransportStall
from .grid import DNGrid, cumsum_cols, cumtrap_rows, row_blocks
from .nonlinearity import Nonlinearity, eval_coeffs
from .state import (DNState, Phi0_of, Phi1_of, dsigma_u_of, dsigma_ub_of,
                    sigma_of)

__all__ = [
    "FRAME_TOL", "FRAME_MAX_ITER", "OMEGA_WINDOW", "FRAME_FLOOR", "DETJ_FLOOR",
    "NullFrame", "CoordMap",
    "full_field_jet", "integrate_frame", "reconstruct_coords",
    "nullity_residual", "degeneracy_monitor",
]

FRAME_TOL = 1e-12       # relative tolerance of the per-node fixed point
FRAME_MAX_ITER = 8      # iterations before the cell is declared stuck

OMEGA_WINDOW = (-2.0, -0.1)   # acceptable range for Omega_B
FRAME_FLOOR = 0.1             # minimum |L_B^0| and |Lbar^0|
DETJ_FLOOR = 0.05             # minimum |det d(t,x)/d(u_B, ubar)|


# ---------------------------------------------------------------------------
# full-field jet


def full_field_jet(state: DNState, model: Nonlinearity,
                   profile: WaveProfile, rows=slice(None)) -> dict:
    """Physical fields and their grid-null derivatives on the grid's rows.

    Returns a dict of (len(rows), N+1) arrays, over the whole grid unless
    rows slices the u-rows:

    ``Phi0, Phi1``
        time and space derivative of the full scalar,
    ``dPhi0_u, dPhi1_u, dPhi0_ub, dPhi1_ub``
        their d_u and d_ubar derivatives,
    ``phi_u, phi_ub``
        null derivatives of the full scalar itself,
    ``sig_u, sig_ub``
        null derivatives of sigma,
    ``H, Hp``
        metric coefficient H(sigma) and its derivative.

    All background contributions enter through zeta'(ubar), zeta''(ubar),
    so a zero state reproduces the travelling wave exactly.  The work is
    elementwise, so a block of rows holds the whole grid's values bitwise.
    """
    grid = state.grid
    zp = np.asarray(profile.dzeta(grid.ub), dtype=float)[None, :]
    zpp = np.asarray(profile.d2zeta(grid.ub), dtype=float)[None, :]
    psi, psib = state.psi[rows], state.psib[rows]
    dpsi_u, dpsib_u = state.dpsi_u[rows], state.dpsib_u[rows]
    dpsi_ub, dpsib_ub = state.dpsi_ub[rows], state.dpsib_ub[rows]

    co = eval_coeffs(model, sigma_of(psi, psib, zp))
    H, Hp = co.H, co.Hp
    del co  # the other coefficients are not needed while the jet is formed
    return {
        "Phi0": Phi0_of(psi, psib, zp),
        "Phi1": Phi1_of(psi, psib, zp),
        "dPhi0_u": 0.5 * (dpsi_u + dpsib_u),
        "dPhi1_u": 0.5 * (dpsi_u - dpsib_u),
        "dPhi0_ub": 0.5 * (dpsi_ub + dpsib_ub) + zpp,
        "dPhi1_ub": 0.5 * (dpsi_ub - dpsib_ub) - zpp,
        "phi_u": state.dxi_u[rows],
        "phi_ub": state.dxi_ub[rows] + zp,
        "sig_u": dsigma_u_of(psi, psib, dpsi_u, dpsib_u, zp),
        "sig_ub": dsigma_ub_of(psi, psib, dpsi_ub, dpsib_ub, zp, zpp),
        "H": H,
        "Hp": Hp,
    }


# order of the coefficient grids stacked by _transport_coeffs
_CF_KEYS = ("Phi0", "Phi1", "dPhi0_u", "dPhi1_u", "dPhi0_ub", "dPhi1_ub", "H",
           "HU", "HUB", "q1_ub", "q2_ub", "q1_u", "q2_u")


def _transport_coeffs(jet: dict, cf: np.ndarray) -> None:
    """Frame-independent coefficient grids of the transport right-hand side.

    The RHS is linear in (L, Lbar) for fixed scalar coefficients:

        d_ub L    = -[(S_L  HU  + Om_inv q1_ub) L + (S_L  HUB + Om_inv q2_ub) Lbar]
        d_u  Lbar = -[(S_Lb HUB + Om_inv q1_u ) Lbar + (S_Lb HU + Om_inv q2_u) L]

    with HU = H d_u phi, HUB = H d_ub phi and the q's carrying the H' part.
    Writes the 13 grids into cf, in the order of _CF_KEYS, slot by slot:
    cf may be a view of a block of a larger stack, so that no second set
    of them is ever alive.
    """
    H, Hp = jet["H"], jet["Hp"]
    pu, pub = jet["phi_u"], jet["phi_ub"]
    su, sub = jet["sig_u"], jet["sig_ub"]
    for row, key in zip(cf, _CF_KEYS[:7]):
        row[...] = jet[key]
    cf[7] = H * pu
    cf[8] = H * pub
    cf[9] = Hp * pub * (pu * sub - 0.5 * su * pub)
    cf[10] = Hp * pub * (0.5 * sub * pub)
    cf[11] = Hp * pu * (pub * su - 0.5 * sub * pu)
    cf[12] = Hp * pu * (0.5 * su * pu)


def _frame_rhs(cf, L, Lb):
    """Full transport RHS from stacked coefficients and (t, x)-stacked frames.

    Returns one array: [0] is d_ub L, [1] is d_u Lbar, each by component.
    """
    Phi0, Phi1, dPhi0_u, dPhi1_u, dPhi0_ub, dPhi1_ub, H, \
        HU, HUB, q1_ub, q2_ub, q1_u, q2_u = cf
    phiL = Phi0 * L[0] + Phi1 * L[1]
    phiLb = Phi0 * Lb[0] + Phi1 * Lb[1]
    om_inv = -(L[0] * Lb[0]) + L[1] * Lb[1] + H * phiL * phiLb
    SL = L[0] * dPhi0_ub + L[1] * dPhi1_ub
    SB = Lb[0] * dPhi0_u + Lb[1] * dPhi1_u
    aL = SL * HU + om_inv * q1_ub
    bL = SL * HUB + om_inv * q2_ub
    aB = SB * HUB + om_inv * q1_u
    bB = SB * HU + om_inv * q2_u
    return -np.array([aL * L + bL * Lb, aB * Lb + bB * L])


# ---------------------------------------------------------------------------
# frame integration


@dataclass(frozen=True)
class NullFrame:
    """Characteristic frame on the grid, background-matched normalization.

    L points along increasing ubar (tangent to the u-level curves), Lbar
    along increasing u.  Components are (t, x).  Omega is the conformal
    factor 1 / g(L_B, Lbar_B); v_prime the gauge slice's per-row V'(u);
    ring the (2, N+1) background frame Lring_B(ubar) the transport deviates
    from, by component, which the map and the monitor read too.
    """

    grid: DNGrid
    L0: np.ndarray
    L1: np.ndarray
    Lb0: np.ndarray
    Lb1: np.ndarray
    Omega: np.ndarray
    v_prime: np.ndarray
    ring: np.ndarray


def integrate_frame(state: DNState, gauge: GaugeSlice, model: Nonlinearity,
                    profile: WaveProfile) -> NullFrame:
    """Transport the null frame from the data diagonal over the whole grid.

    Works on the deviations lam = L_A - Lring_A, lamb = Lbar - Lbar_ring in
    the grid normalization, held as one (frame, component, cell) array:
    frame (L, Lbar) by component (t, x).  The fronts are those of the march,
    walked by DNGrid.fronts; each is advanced by the trapezoid rule and the
    implicit endpoint is resolved by a fixed point (the RHS is quadratic in
    the frame, the cell coupling is O(h)) that stops once the front's update
    is within FRAME_TOL of its size, at most FRAME_MAX_ITER iterations.
    Both predecessors of a front's nodes lie on the previous front, in the
    slices DNGrid.predecessors names, so its deviations and converged RHS
    are carried per front, in the same layout, as the march carries its
    fronts, and every cell costs one front sweep.  The 13 coefficient
    grids of _transport_coeffs are stacked one row block at a time and
    gathered with one index per front.  At the end the deviations become
    the frame in place, and the conformal factor is formed per row block.
    Publishes the background-matched frame; see the module docstring for
    the normalization bookkeeping.  V'(u) is the gauge slice's, solved on
    the grid's nodes (checked).

    Raises FrameTransportStall naming the node with the largest last
    update if a front stalls, FrameDegenerate naming the first node in
    row-major order where g(L, Lbar) reaches zero (the two null directions
    collapse).
    """
    grid = state.grid
    n = grid.n_nodes
    grid.require_nodes(gauge.x, "gauge slice")

    cf = np.empty((len(_CF_KEYS), n, n))
    for blk in row_blocks(n, n):
        _transport_coeffs(full_field_jet(state, model, profile, blk),
                          cf[:, blk])

    H0, ring0, ring1 = background_L(model, profile, grid.ub)
    ring = np.array([ring0, ring1])                  # Lring_B by component
    zp = np.asarray(profile.dzeta(grid.ub), dtype=float)
    zpp = np.asarray(profile.d2zeta(grid.ub), dtype=float)
    rbg = (-2.0 * H0) * (zp * zpp)                   # d_ub Lring_B, both comps
    vp = gauge.v_prime                               # V'(u) on the same nodes
    inv_vp = 1.0 / vp

    def deviation_rhs(i, j):
        """The deviations' RHS on the nodes (i, j), as a function of them."""
        cfh = cf[:, i, j]
        bg = inv_vp[i] * ring[:, j]                  # Lring_A
        rbg_h = inv_vp[i] * rbg[j]                   # d_ub Lring_A

        def rhs(dev):
            R = _frame_rhs(cfh, bg + dev[0], -1.0 + dev[1])
            R[0] -= rbg_h
            return R
        return rhs, bg

    lam = np.empty((2, 2, n, n))

    i, j = grid.diagonal()
    rhs, bg = deviation_rhs(i, j)
    dev = np.array([[gauge.L0, gauge.L1], [gauge.Lb0, gauge.Lb1]])
    dev[0] = dev[0] * inv_vp - bg
    dev[1] += 1.0
    lam[..., i, j] = dev
    diagonal = dev, rhs(dev)                         # deviations, their RHS

    for d in (1, -1):
        hh = 0.5 * grid.h * d
        # Lbar comes from the u-predecessor, L from the ubar-predecessor
        sB, sL = grid.predecessors(d)
        prev, prev_R = diagonal
        for ii, jj in grid.fronts(d):
            rhs, _ = deviation_rhs(ii, jj)
            cur = np.array([prev[0][:, sL], prev[1][:, sB]])
            base = cur + hh * np.array([prev_R[0][:, sL], prev_R[1][:, sB]])
            for _ in range(FRAME_MAX_ITER):
                new = base + hh * rhs(cur)
                change = np.max(np.abs(new - cur), axis=(0, 1))
                cur = new
                if change.max() <= FRAME_TOL * (1.0 + np.max(np.abs(cur))):
                    break
            else:
                bad = int(np.argmax(change))
                raise FrameTransportStall(
                    f"frame transport stalled at {grid.where(ii[bad], jj[bad])} "
                    f"(last update {change[bad]:.3e})")
            prev, prev_R = cur, rhs(cur)
            lam[..., ii, jj] = cur

    L, Lb = lam                # L_B = Lring_B + vp lam, Lbar = -1 + lamb
    L *= vp[:, None]
    L += ring[:, None, :]
    Lb += -1.0
    Omega = np.empty((n, n))
    for blk in row_blocks(n, n):
        Phi0, Phi1, *_, H = cf[:7, blk]              # see _CF_KEYS
        (L0, L1), (Lb0, Lb1) = L[:, blk], Lb[:, blk]
        phiL = Phi0 * L0 + Phi1 * L1
        phiLb = Phi0 * Lb0 + Phi1 * Lb1
        om_inv = -(L0 * Lb0) + L1 * Lb1 + H * phiL * phiLb
        ok = np.isfinite(om_inv) & (om_inv < 0.0)
        if not np.all(ok):
            i, j = np.unravel_index(np.argmin(ok), ok.shape)
            raise FrameDegenerate(
                f"g(L, Lbar) lost its sign at (u, ubar) = "
                f"({grid.u[blk.start + i]:.6g}, {grid.ub[j]:.6g})")
        np.divide(1.0, om_inv, out=Omega[blk])

    return NullFrame(grid, L[0], L[1], Lb[0], Lb[1], Omega, vp, ring)


# ---------------------------------------------------------------------------
# coordinate reconstruction


@dataclass(frozen=True)
class CoordMap:
    """Reconstructed (t, x) over the grid plus Jacobian diagnostics.

    detj is det d(t,x)/d(u_B, ubar) (background value -1/2); curl_sup the
    sup-mismatch between the two integration routes, an O(h^2) consistency
    error of the reconstruction.  jac_* are the tangents in the *grid*
    chart, d(t,x)/du = Omega_A Lbar and d(t,x)/dubar = Omega_A L, kept for
    Newton inversion of the map.  Z = Z(grid.ub) is the phase function
    the map was built on, and V = grid.u + Z[::-1] the relabeling
    V(u) = u + Z(-u) read off it: grid.ub is -grid.u reversed bit for bit,
    and the quadrature depends only on the set of points, so this is
    Z(-u) exactly.  Both are kept for the pullback's seed and the phase
    shift.
    """

    grid: DNGrid
    t: np.ndarray
    x: np.ndarray
    detj: np.ndarray
    curl_sup: float
    jac_u_t: np.ndarray
    jac_u_x: np.ndarray
    jac_ub_t: np.ndarray
    jac_ub_x: np.ndarray
    V: np.ndarray
    Z: np.ndarray


def reconstruct_coords(frame: NullFrame, model: Nonlinearity,
                       profile: WaveProfile) -> CoordMap:
    """Integrate the inverse map (u, ubar) -> (t, x) from the data diagonal.

    The travelling-wave part is closed form,

        tring = (V(u) - Z(ubar) + ubar) / 2,
        xring = (V(u) - Z(ubar) - ubar) / 2,

    and only the deviation of the tangents from their background values is
    integrated (trapezoid), once along rows and once along columns, both
    anchored on the diagonal where t = 0 and x = u exactly.  The two routes
    are averaged; their sup-difference is returned as curl_sup (NaN if
    either route holds a NaN).  The column sums are carried down the rows
    (grid.cumsum_cols) with increments formed from the frame's rows; every
    row-local quantity, the background included, is formed in one row
    block pass, so the outputs and the column sums are the only full-size
    arrays.  V' and Lring_B are the frame's; model and profile enter only
    through Z, which gives V as well (see CoordMap).
    """
    grid = frame.grid
    n, h = grid.n_nodes, grid.h
    vp, Om = frame.v_prime, frame.Omega

    Z = np.asarray(phase_function(profile, model, grid.ub), dtype=float)
    V = grid.u + Z[::-1]                             # u + Z(-u)
    ring0, ring1 = frame.ring

    t, x, detj, jac_u_t, jac_u_x, jac_ub_t, jac_ub_x = (
        np.empty((n, n)) for _ in range(7))
    # tangents in the grid chart; u-leg = Omega_A Lbar = vp Omega_B Lbar_B,
    # ubar-leg = Omega_A L_A = Omega_B L_B.  Per component t (x): the
    # frame's L and Lbar, Lring_B, the sign of ubar in tring (xring), the
    # deviation that pins t = 0.0 (x = u) on the diagonal, and the outputs.
    _, jd = grid.diagonal()
    VZ = V - Z[jd]
    comps = ((frame.L0, frame.Lb0, ring0, 1.0,
              0.0 - 0.5 * (VZ + grid.ub[jd]), jac_u_t, jac_ub_t, t),
             (frame.L1, frame.Lb1, ring1, -1.0,
              grid.u - 0.5 * (VZ - grid.ub[jd]), jac_u_x, jac_ub_x, x))

    def u_leg_steps(Lb):
        """Trapezoid steps down the columns of vp (Omega Lbar - 1/2)."""
        def steps(r):
            s = slice(r.start, r.stop + 1)
            F = vp[s, None] * (Om[s] * Lb[s] - 0.5)
            return (0.5 * h) * (F[1:] + F[:-1])
        return steps

    r2 = [cumsum_cols(u_leg_steps(c[1]), (n, n), jd) for c in comps]

    curl = []
    for blk in row_blocks(n, n):
        Omb, vpb = Om[blk], vp[blk, None]
        for (L, Lb, ring, sign, dev_diag, jac_u, jac_ub, out), S2 in zip(
                comps, r2):
            jac_u[blk] = vpb * (Omb * Lb[blk])
            jac_ub[blk] = Omb * L[blk]
            r1 = dev_diag[blk, None] + cumtrap_rows(
                jac_ub[blk] + 0.5 * ring[None, :], h, jd[blk])
            r2b = dev_diag[::-1][None, :] + S2[blk]
            curl.append(np.max(np.abs(r1 - r2b)))
            bg = 0.5 * (V[blk, None] - Z[None, :] + sign * grid.ub[None, :])
            out[blk] = bg + 0.5 * (r1 + r2b)
        detj[blk] = Omb ** 2 * (frame.Lb0[blk] * frame.L1[blk]
                                - frame.Lb1[blk] * frame.L0[blk])

    return CoordMap(grid, t, x, detj, float(np.max(curl)),
                    jac_u_t, jac_u_x, jac_ub_t, jac_ub_x, V, Z)


# ---------------------------------------------------------------------------
# diagnostics


def nullity_residual(state: DNState, frame: NullFrame, model: Nonlinearity,
                     profile: WaveProfile) -> dict:
    """Sup of |g(L, L)| and |g(Lbar, Lbar)| over the grid.

    Both vanish identically for the exact frame; the discrete transport
    preserves them only up to its own O(h^2) error, so this is a cheap
    global consistency check that needs no reference solution.  The
    maxima are taken per row block and reduced by np.max, so a NaN shows.
    """
    n = state.grid.n_nodes
    zp = np.asarray(profile.dzeta(state.grid.ub), dtype=float)[None, :]
    sups = []
    for blk in row_blocks(n, n):
        psi, psib = state.psi[blk], state.psib[blk]
        Phi0 = Phi0_of(psi, psib, zp)
        Phi1 = Phi1_of(psi, psib, zp)
        H = eval_coeffs(model, sigma_of(psi, psib, zp)).H
        sups.append([np.max(np.abs(-(X0 ** 2) + X1 ** 2
                                   + H * (Phi0 * X0 + Phi1 * X1) ** 2))
                     for X0, X1 in ((frame.L0[blk], frame.L1[blk]),
                                    (frame.Lb0[blk], frame.Lb1[blk]))])
    gLL, gBB = np.max(sups, axis=0)
    return {"L": float(gLL), "Lb": float(gBB)}


def degeneracy_monitor(frame: NullFrame, coords: CoordMap) -> dict:
    """Check the frame and Jacobian against the degeneracy thresholds.

    Returns the report's geometry.degeneracy section.  "ok": True
    certifies that on every node Omega_B stays in OMEGA_WINDOW, |L_B^0|
    and |Lbar^0| above FRAME_FLOOR and |detj| above DETJ_FLOOR --
    together: the null coordinates remain a nondegenerate chart of the
    computed block.  The first failing node in row-major (u, ubar) order
    is reported with every check it trips.  sup_frame_deviation is the
    frame's sup distance from the background frame it carries (ring) and
    Lbar_ring = (-1, -1), NaN if the frame holds one.
    """
    grid = frame.grid
    bad = {
        "omega": ~((frame.Omega >= OMEGA_WINDOW[0])
                   & (frame.Omega <= OMEGA_WINDOW[1])),
        "L0": np.abs(frame.L0) < FRAME_FLOOR,
        "Lb0": np.abs(frame.Lb0) < FRAME_FLOOR,
        "detj": np.abs(coords.detj) < DETJ_FLOOR,
    }
    any_bad = np.zeros(frame.Omega.shape, dtype=bool)
    for mask in bad.values():
        any_bad |= mask

    first_failure = None
    if np.any(any_bad):
        i, j = np.unravel_index(int(np.argmax(any_bad)), any_bad.shape)
        first_failure = {
            "u": float(grid.u[i]),
            "ubar": float(grid.ub[j]),
            "i": int(i),
            "j": int(j),
            "checks": [name for name, mask in bad.items() if mask[i, j]],
        }

    ring0, ring1 = frame.ring
    sup_dev = float(np.max([np.max(np.abs(frame.L0 - ring0[None, :])),
                            np.max(np.abs(frame.L1 - ring1[None, :])),
                            np.max(np.abs(frame.Lb0 + 1.0)),
                            np.max(np.abs(frame.Lb1 + 1.0))]))

    return {
        "ok": first_failure is None,
        "first_failure": first_failure,
        "sup_frame_deviation": sup_dev,
        "omega_range": [float(np.min(frame.Omega)),
                        float(np.max(frame.Omega))],
        "min_abs_L0": float(np.min(np.abs(frame.L0))),
        "min_abs_Lb0": float(np.min(np.abs(frame.Lb0))),
        "min_abs_detj": float(np.min(np.abs(coords.detj))),
        "thresholds": {"omega_window": list(OMEGA_WINDOW),
                       "frame_floor": FRAME_FLOOR, "detj_floor": DETJ_FLOOR},
    }
