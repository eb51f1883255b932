"""Null-frame transport, coordinate reconstruction, degeneracy monitoring.

The marched state lives in the flat null chart (u, ubar) and only knows the
perturbation fields.  This module rebuilds the geometry on top of it:

* full-field jets: Phi_mu = (d_t phi, d_x phi), the scalar gradient, the
  null form sigma and their grid-null derivatives from a DNState plus the
  travelling background,
* the characteristic frame (L, Lbar): (t, x)-components of the two null
  directions of the perturbed acoustic metric, transported along ubar
  (resp. u) by first-order ODEs quadratic in the frame,
* the inverse coordinate map: its legs d(t,x)/du = V' Omega_B Lbar_B and
  d(t,x)/dubar = Omega_B L_B (NullFrame.legs) are integrated along both
  coordinate families and averaged, the mismatch ("curl") a consistency error,
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
from functools import partial

import numpy as np

from .background import background_L, WaveProfile, phase_function
from .data_gauge import GaugeSlice
from .errors import FrameDegenerate, FrameTransportStall
from .grid import (DNGrid, abs_max, both_halves, cumsum_cols, cumtrap_rows,
                   iterate_halves, row_blocks)
from .nonlinearity import Nonlinearity, eval_coeffs
from .state import DNState, Phi0_of, Phi1_of, sigma_jet

__all__ = [
    "FRAME_TOL", "FRAME_MAX_ITER", "OMEGA_WINDOW", "FRAME_FLOOR", "DETJ_FLOOR",
    "NullFrame", "CoordMap",
    "full_field_jet", "integrate_frame", "reconstruct_coords",
    "degeneracy_monitor",
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

    sig, sig_u, sig_ub = sigma_jet(psi, psib, dpsi_u, dpsi_ub, dpsib_u,
                                   dpsib_ub, zp, zpp)
    co = eval_coeffs(model, sig)
    H, Hp = co.H, co.Hp
    del sig, co  # the other coefficients are not needed while the jet is formed
    return {
        "Phi0": Phi0_of(psi, psib, zp),
        "Phi1": Phi1_of(psi, psib, zp),
        "dPhi0_u": 0.5 * (dpsi_u + dpsib_u),
        "dPhi1_u": 0.5 * (dpsi_u - dpsib_u),
        "dPhi0_ub": 0.5 * (dpsi_ub + dpsib_ub) + zpp,
        "dPhi1_ub": 0.5 * (dpsi_ub - dpsib_ub) - zpp,
        "phi_u": state.dxi_u[rows],
        "phi_ub": state.dxi_ub[rows] + zp,
        "sig_u": sig_u,
        "sig_ub": sig_ub,
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


def _g_L_Lbar(Phi0, Phi1, H, L, Lb):
    """(Phi.L, Phi.Lbar, g(L, Lbar)) of (t, x)-stacked frames L and Lb."""
    phiL = Phi0 * L[0] + Phi1 * L[1]
    phiLb = Phi0 * Lb[0] + Phi1 * Lb[1]
    return phiL, phiLb, -(L[0] * Lb[0]) + L[1] * Lb[1] + H * phiL * phiLb


def _frame_rhs(cf, L, Lb):
    """Full transport RHS from stacked coefficients and (t, x)-stacked frames.

    Returns one array: [0] is d_ub L, [1] is d_u Lbar, each by component.
    """
    Phi0, Phi1, dPhi0_u, dPhi1_u, dPhi0_ub, dPhi1_ub, H, \
        HU, HUB, q1_ub, q2_ub, q1_u, q2_u = cf
    om_inv = _g_L_Lbar(Phi0, Phi1, H, L, Lb)[2]
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
    from, by component, which the map and the monitor read too.  nullity
    holds sup |g(L, L)| and sup |g(Lbar, Lbar)| over the grid as "L" and
    "Lb": both vanish for the exact frame, and the discrete transport keeps
    them only up to its own O(h^2) error, so they are a global consistency
    check that needs no reference solution.
    """

    grid: DNGrid
    L0: np.ndarray
    L1: np.ndarray
    Lb0: np.ndarray
    Lb1: np.ndarray
    Omega: np.ndarray
    v_prime: np.ndarray
    ring: np.ndarray
    nullity: dict

    def legs(self, names, i, j=None):
        """[Omega_B X for X in names], X frame components such as "Lb0": the
        map's legs d(t,x)/dubar = Omega_B L_B, d(t,x)/du_B = Omega_B Lbar_B.
        With j None, i slices rows, read as views; else i and j are index
        arrays that broadcast, read by np.take at the flat i (N+1) + j."""
        if j is None:
            Om = self.Omega[i]
            return [Om * getattr(self, X)[i] for X in names]
        k = i * self.grid.n_nodes + j
        Om = np.take(self.Omega, k)
        return [Om * np.take(getattr(self, X), k) for X in names]

    def tangents(self, i, j):
        """(dt/du, dx/du, dt/dubar, dx/dubar) in the grid chart at the nodes
        (i, j): V' times the Lbar legs, then the L legs (NullFrame.legs)."""
        ut, ux, bt, bx = self.legs(("Lb0", "Lb1", "L0", "L1"), i, j)
        vp = np.take(self.v_prime, i)
        return vp * ut, vp * ux, bt, bx


def integrate_frame(state: DNState, gauge: GaugeSlice, model: Nonlinearity,
                    profile: WaveProfile) -> NullFrame:
    """Transport the null frame from the data diagonal over the whole grid.

    Works on the deviations lam = L_A - Lring_A, lamb = Lbar - Lbar_ring in
    the grid normalization, held as one (frame, component, half, cell)
    array: frame (L, Lbar) by component (t, x), over the halves of the
    march's walk (DNGrid.joint_fronts).  Each front is advanced by the
    trapezoid rule and the implicit endpoint is resolved by a fixed point
    (the RHS is quadratic in the frame, the cell coupling is O(h)).  Each
    half iterates until its update is within FRAME_TOL of its own size,
    at most FRAME_MAX_ITER times.  The last front's deviations and the RHS
    of each half's last iteration (at the iterate before the converged
    one, within FRAME_TOL of it) are carried to the next, so every cell
    costs one front sweep.  The 13 coefficient grids of _transport_coeffs
    are stacked one row block at a time and gathered with one index per
    front.  At the end the deviations become the frame in place, and one
    closing pass per row block contracts the frame with the metric:
    g(L, Lbar) gives the conformal factor, g(L, L) and g(Lbar, Lbar) the
    block's share of the nullity sups (NullFrame.nullity), reduced by
    np.max.  Publishes the background-matched frame; see the module
    docstring for the normalization bookkeeping.  V'(u) is the gauge
    slice's, solved on the grid's nodes (checked).

    Raises FrameTransportStall by the walk's rule: at the first m where
    either half of front m stalls, the future half's if both do, naming
    the node of least u among that half's largest last updates (a NaN
    update counts as the largest); FrameDegenerate naming the first node
    in row-major order where g(L, Lbar) reaches zero (the two null
    directions collapse).
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
        """The deviations' RHS on the nodes (i, j), as a function of them;
        sel picks a slice of the first axis of (i, j), the halves."""
        cfh = cf[:, i, j]
        bg = inv_vp[i] * ring[:, j]                  # Lring_A
        rbg_h = inv_vp[i] * rbg[j]                   # d_ub Lring_A

        def rhs(dev, sel=slice(None)):
            R = _frame_rhs(cfh[:, sel], bg[:, sel] + dev[0], -1.0 + dev[1])
            R[0] -= rbg_h[sel]
            return R
        return rhs, bg

    lam = np.empty((2, 2, n, n))

    i, j = grid.diagonal()
    rhs, bg = deviation_rhs(i, j)
    dev = np.array([[gauge.L0, gauge.L1], [gauge.Lb0, gauge.Lb1]])
    dev[0] = dev[0] * inv_vp - bg
    dev[1] += 1.0
    lam[..., i, j] = dev
    prev, prev_R = both_halves(dev), both_halves(rhs(dev))
    hh = 0.5 * grid.h * np.array([[1.0], [-1.0]])    # future, past
    # Lbar comes from the u-predecessor, L from the ubar-predecessor
    sB, sL = grid.predecessors()
    for ii, jj in grid.joint_fronts():
        rhs, _ = deviation_rhs(ii, jj)
        cur = np.array([prev[0][..., sL], prev[1][..., sB]])
        base = cur + hh * np.array([prev_R[0][..., sL], prev_R[1][..., sB]])
        R = np.empty_like(cur)                       # each half's last RHS
        change = np.empty(ii.shape)

        def step(a):
            R[:, :, a] = rhs(cur[:, :, a], a)
            new = base[:, :, a] + hh[a] * R[:, :, a]
            change[a] = np.max(np.abs(new - cur[:, :, a]), axis=(0, 1))
            cur[:, :, a] = new
            size = np.max(np.abs(new), axis=(0, 1, 3))
            return np.max(change[a], axis=1) <= FRAME_TOL * (1.0 + size)

        stalled = iterate_halves(step, 2, FRAME_MAX_ITER)
        if stalled:
            h = stalled[0]
            worst = np.max(change[h])
            at = np.isnan(change[h]) | (change[h] == worst)
            raise FrameTransportStall(
                "frame transport stalled at "
                f"{grid.where_least_u(at, ii[h], jj[h])} "
                f"(last update {worst:.3e})")
        prev, prev_R = cur, R
        lam[..., ii, jj] = cur

    L, Lb = lam                # L_B = Lring_B + vp lam, Lbar = -1 + lamb
    L *= vp[:, None]
    L += ring[:, None, :]
    Lb += -1.0
    Omega = np.empty((n, n))
    sups = []                                        # per block: g(L,L), g(Lb,Lb)
    for blk in row_blocks(n, n):
        Phi0, Phi1, *_, H = cf[:7, blk]              # see _CF_KEYS
        phiL, phiLb, om_inv = _g_L_Lbar(Phi0, Phi1, H, L[:, blk], Lb[:, blk])
        ok = np.isfinite(om_inv) & (om_inv < 0.0)
        if not np.all(ok):
            i, j = np.unravel_index(np.argmin(ok), ok.shape)
            raise FrameDegenerate(
                f"g(L, Lbar) lost its sign at (u, ubar) = "
                f"({grid.u[blk.start + i]:.6g}, {grid.ub[j]:.6g})")
        np.divide(1.0, om_inv, out=Omega[blk])
        sups.append([np.max(np.abs(-(X[0] ** 2) + X[1] ** 2 + H * p ** 2))
                     for X, p in ((L[:, blk], phiL), (Lb[:, blk], phiLb))])
    gLL, gBB = np.max(sups, axis=0)

    return NullFrame(grid, L[0], L[1], Lb[0], Lb[1], Omega, vp, ring,
                     {"L": float(gLL), "Lb": float(gBB)})


# ---------------------------------------------------------------------------
# coordinate reconstruction


@dataclass(frozen=True)
class CoordMap:
    """Reconstructed (t, x) over the grid plus Jacobian diagnostics.

    detj is det d(t,x)/d(u_B, ubar) (background value -1/2); curl_sup the
    sup-mismatch between the two integration routes, an O(h^2) consistency
    error of the reconstruction.  frame is the NullFrame the map was
    integrated from; its legs (NullFrame.legs) are the map's Jacobian, which
    the pullback's Newton forms where it needs it (NullFrame.tangents).
    Z = Z(grid.ub) is the phase function the map was built on, and
    V = grid.u + Z[::-1] the relabeling V(u) = u + Z(-u) read off it:
    grid.ub is -grid.u reversed bit for bit, and the quadrature depends
    only on the set of points, so this is Z(-u) exactly.  Both are kept
    for the pullback's seed and the phase shift.
    """

    frame: NullFrame
    t: np.ndarray
    x: np.ndarray
    detj: np.ndarray
    curl_sup: float
    V: np.ndarray
    Z: np.ndarray

    @property
    def grid(self) -> DNGrid:
        return self.frame.grid


def reconstruct_coords(frame: NullFrame, model: Nonlinearity,
                       profile: WaveProfile) -> CoordMap:
    """Integrate the inverse map (u, ubar) -> (t, x) from the data diagonal.

    The travelling-wave part is closed form,

        tring = (V(u) - Z(ubar) + ubar) / 2,
        xring = (V(u) - Z(ubar) - ubar) / 2,

    and only the legs' deviations from their background values are
    integrated (trapezoid): Omega_B L_B + Lring_B / 2 along rows and
    V' (Omega_B Lbar_B - 1/2) down columns (NullFrame.legs, read as row
    views), both anchored on the diagonal where t = 0 and x = u exactly.
    The routes are averaged; their sup-difference is curl_sup (NaN if
    either holds a NaN).  The column sums are carried down the rows
    (grid.cumsum_cols) one component at a time, and every row-local
    quantity is formed in one row block pass, so the outputs and the
    column sums are the only full-size arrays.  V' and Lring_B are the
    frame's; model and profile enter only through Z, which gives V too.
    """
    grid = frame.grid
    n, h = grid.n_nodes, grid.h

    Z = np.asarray(phase_function(profile, model, grid.ub), dtype=float)
    V = grid.u + Z[::-1]                             # u + Z(-u)

    t, x, detj = (np.empty((n, n)) for _ in range(3))
    # Per component t (x): its u-leg, the sign of ubar in tring (xring),
    # the diagonal deviation pinning t = 0.0 (x = u), and the output.
    _, jd = grid.diagonal()
    VZ = V - Z[jd]
    comps = (("Lb0", 1.0, 0.0 - 0.5 * (VZ + grid.ub[jd]), t),
             ("Lb1", -1.0, grid.u - 0.5 * (VZ - grid.ub[jd]), x))

    def u_leg_steps(X, r):
        """Trapezoid steps down the columns of the u-leg's deviation."""
        s = slice(r.start, r.stop + 1)
        F = frame.v_prime[s, None] * (frame.legs([X], s)[0] - 0.5)
        return (0.5 * h) * (F[1:] + F[:-1])

    r2 = [cumsum_cols(partial(u_leg_steps, c[0]), (n, n), jd, c[2][::-1])
          for c in comps]

    curl = []
    for blk in row_blocks(n, n):
        for (_, sign, dev, out), S2, ring, F in zip(
                comps, r2, frame.ring, frame.legs(("L0", "L1"), blk)):
            F += 0.5 * ring[None, :]                 # the leg's deviation
            r1 = cumtrap_rows(F, h, jd[blk], dev[blk])
            r2b = S2[blk]
            curl.append(abs_max(r1, r2b))
            bg = 0.5 * (V[blk, None] - Z[None, :] + sign * grid.ub[None, :])
            out[blk] = bg + 0.5 * (r1 + r2b)
        detj[blk] = frame.Omega[blk] ** 2 * (frame.Lb0[blk] * frame.L1[blk]
                                             - frame.Lb1[blk] * frame.L0[blk])

    return CoordMap(frame, t, x, detj, float(np.max(curl)), V, Z)


# ---------------------------------------------------------------------------
# diagnostics


def degeneracy_monitor(frame: NullFrame, coords: CoordMap) -> dict:
    """Check the frame and Jacobian against the degeneracy thresholds.

    Returns the report's geometry.degeneracy section.  "ok": True
    certifies that on every node Omega_B stays in OMEGA_WINDOW, |L_B^0|
    and |Lbar^0| above FRAME_FLOOR and |detj| above DETJ_FLOOR --
    together: the null coordinates remain a nondegenerate chart of the
    computed block.  The first failing node in row-major (u, ubar) order
    is reported with every check it trips.  sup_frame_deviation is the
    frame's sup distance from the background frame it carries (ring) and
    Lbar_ring = (-1, -1), NaN if the frame holds one.  The checks and the
    min_abs_* minima are taken one row block at a time; minima are exact
    and np.min keeps a NaN, so they are the whole-field values bit for bit.
    """
    grid = frame.grid
    n = grid.n_nodes
    floors = {"L0": (frame.L0, FRAME_FLOOR), "Lb0": (frame.Lb0, FRAME_FLOOR),
              "detj": (coords.detj, DETJ_FLOOR)}
    first_failure, mins = None, []
    for blk in row_blocks(n, n):
        om = frame.Omega[blk]
        bad = {"omega": ~((om >= OMEGA_WINDOW[0]) & (om <= OMEGA_WINDOW[1]))}
        block_mins = []
        for name, (X, floor) in floors.items():
            absx = np.abs(X[blk])
            bad[name] = absx < floor
            block_mins.append(np.min(absx))
        mins.append(block_mins)
        any_bad = np.logical_or.reduce(list(bad.values()))
        if first_failure is None and np.any(any_bad):
            i, j = np.unravel_index(int(np.argmax(any_bad)), any_bad.shape)
            first_failure = {
                "u": float(grid.u[blk.start + i]),
                "ubar": float(grid.ub[j]),
                "i": int(blk.start + i),
                "j": int(j),
                "checks": [name for name, mask in bad.items() if mask[i, j]],
            }
    min_L0, min_Lb0, min_detj = np.min(mins, axis=0)

    shape = frame.Omega.shape
    sup_dev = float(np.max([
        abs_max(X, np.broadcast_to(ref, shape)) for X, ref in (
            (frame.L0, frame.ring[0]), (frame.L1, frame.ring[1]),
            (frame.Lb0, -1.0), (frame.Lb1, -1.0))]))

    return {
        "ok": first_failure is None,
        "first_failure": first_failure,
        "sup_frame_deviation": sup_dev,
        "omega_range": [float(np.min(frame.Omega)),
                        float(np.max(frame.Omega))],
        "min_abs_L0": float(min_L0),
        "min_abs_Lb0": float(min_Lb0),
        "min_abs_detj": float(min_detj),
        "thresholds": {"omega_window": list(OMEGA_WINDOW),
                       "frame_floor": FRAME_FLOOR, "detj_floor": DETJ_FLOOR},
    }
