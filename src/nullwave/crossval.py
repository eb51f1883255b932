"""Rectangular-coordinate reference solver and comparison diagnostics.

Everything the double-null pipeline produces can be checked against an
independently discretized evolution in the original (t, x) coordinates.
The second-order equation is equivalent to the first-order system

  d_t phi  = Phi0
  d_t Phi1 = d_x Phi0
  d_t Phi0 = -(2 g01 d_x Phi0 + g11 d_x Phi1) / g00

with g = inverse acoustic metric at (Phi0, Phi1).  rect_solve integrates
it with Heun's method in time and fourth-order centered differences plus
sixth-order Kreiss-Oliger dissipation in space -- a different
discretization family from the characteristic march, so agreement between
the two routes is evidence rather than tautology.  Boundary values come
from the exact travelling background phi(t, x) = zeta(t - x), which stays
exact as long as the compactly supported perturbation has not reached the
three ghost cells.

pullback_compare closes the loop: it inverts the reconstructed coordinate
map (t, x)(u, ub) by Newton refinement of a bilinear interpolant, pulls
the double-null solution back onto the rectangular nodes, and returns sup
and L1 differences in a plain dict.  Each Newton iteration locates the
live walkers once and evaluates only them: a node leaves once its
residual converges, or once a Brent checkpoint finds it on an exact cycle
of the update (mostly a walker that the collar clip holds on one point or
bounces between a few), after the steps that leave it where the iteration
cap would.  The walkers are stepped and sampled in L2-sized chunks, each
forming its nodes' (t, x) from their flat index, so the whole-size
per-walker arrays are the positions, the live set and its checkpoints;
the result does not depend on the chunk size.  flux_residual applies
the divergence-form equation d_t(-e^f Phi0) + d_x(e^f Phi1) = 0 to any
rectangular state by centered differences.  phase_shift extracts the
asymptotic offset between the reconstructed u-level sets and the
background relation u = V^{-1}(t + x + Z(t - x)) across the wave zone.

Spatial work per step is vectorized over the grid; time stepping is
inherently sequential.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .background import WaveProfile, phase_function
from .errors import (
    CFLViolation,
    GridMismatch,
    HyperbolicityLoss,
    InsufficientDomain,
    InversionFailure,
    OutOfImage,
)
from .geometry import CoordMap
from .grid import flat_blocks, row_blocks
from .nonlinearity import Nonlinearity, acoustic_metric
from .state import DNState, Phi0_of, Phi1_of

__all__ = [
    "RectGrid",
    "RectState",
    "rect_solve",
    "flux_residual",
    "pullback_compare",
    "phase_shift",
]

N_GHOST = 3  # fourth-order stencil needs 2, the dissipation operator 3
SPEED_MARGIN = 0.1  # rect_solve's headroom on the initial speed
# phase_shift's late-u window (a fraction of the u-range) and settling test
PHASE_WINDOW, PHASE_ATOL, PHASE_RTOL = 0.15, 1e-8, 0.05
# the pullback's walker chunks hold grid.BLOCK_ELEMS // WALKER_WIDTH walkers:
# a Newton step forms about this many temporaries per walker
WALKER_WIDTH = 8


@dataclass(frozen=True)
class RectGrid:
    """Uniform (t, x) grid request: spatial extent, spacing, final time."""

    x_min: float
    x_max: float
    dx: float
    t_max: float
    cfl: float = 0.45

    def __post_init__(self):
        if not self.x_max > self.x_min:
            raise GridMismatch("need x_max > x_min")
        if not self.dx > 0.0:
            raise GridMismatch("dx must be positive")
        if not self.t_max > 0.0:
            raise GridMismatch("t_max must be positive")
        if not 0.0 < self.cfl < 1.0:
            raise GridMismatch("cfl must sit in (0, 1)")
        n = (self.x_max - self.x_min) / self.dx
        if abs(n - round(n)) > 1e-9 * (1.0 + n):
            raise GridMismatch("dx must evenly divide the x extent")

    @property
    def n_x(self) -> int:
        return int(round((self.x_max - self.x_min) / self.dx)) + 1

    @property
    def x(self) -> np.ndarray:
        return self.x_min + self.dx * np.arange(self.n_x)


@dataclass(frozen=True)
class RectState:
    """Solution history on the physical nodes: row k is time t[k]."""

    t: np.ndarray
    x: np.ndarray
    phi: np.ndarray
    Phi0: np.ndarray
    Phi1: np.ndarray

    @property
    def dt(self) -> float:
        return float(self.t[1] - self.t[0])

    @property
    def dx(self) -> float:
        return float(self.x[1] - self.x[0])


def _dx4(F: np.ndarray, dx: float) -> np.ndarray:
    """Fourth-order first derivative of a ghosted row, interior values."""
    return (8.0 * (F[4:-2] - F[2:-4]) - (F[5:-1] - F[1:-5])) / (12.0 * dx)


def _ko6(F: np.ndarray, dx: float, nu: float) -> np.ndarray:
    """Sixth-order Kreiss-Oliger dissipation on the interior nodes."""
    stencil = (
        F[:-6] - 6.0 * F[1:-5] + 15.0 * F[2:-4] - 20.0 * F[3:-3]
        + 15.0 * F[4:-2] - 6.0 * F[5:-1] + F[6:]
    )
    return (nu / (64.0 * dx)) * stencil


def _background_rows(profile: WaveProfile, t: float, x: np.ndarray):
    arg = t - x
    zp = np.asarray(profile.dzeta(arg), dtype=float)
    return np.asarray(profile.zeta(arg), dtype=float), zp, -zp


def _char_speed(model: Nonlinearity, Phi0, Phi1):
    met = acoustic_metric(model, Phi0, Phi1)
    if np.any(met.inv00 >= 0.0):
        raise HyperbolicityLoss("g00 >= 0 on the slice: no longer spacelike")
    root = np.sqrt(met.kappa)
    lam_p = (-met.inv01 + root) / met.inv00
    lam_m = (-met.inv01 - root) / met.inv00
    return met, float(np.max(np.maximum(np.abs(lam_p), np.abs(lam_m))))


def rect_solve(
    data,
    model: Nonlinearity,
    grid: RectGrid,
    profile: WaveProfile,
    dissipation: float = 0.02,
) -> RectState:
    """Evolve the first-order reduction on a rectangular grid.

    data supplies the t=0 fields; profile supplies the exact travelling
    background used for the ghost nodes, so the x extent must keep the
    perturbation causally away from the boundary for the whole run.
    dissipation is the Kreiss-Oliger coefficient (0 disables it; keep it
    off when comparing against closed-form linear solutions).

    The step is chosen as dt = cfl dx / (c0 (1 + SPEED_MARGIN)) from the
    initial characteristic speed c0, and the bound dt <= cfl dx / c_max
    is re-checked against the evolving state every step.  Raises
    HyperbolicityLoss if g00 >= 0 anywhere, CFLViolation if the speed
    outgrows the reserved margin.
    """
    dx = grid.dx
    x_full = grid.x_min + dx * np.arange(-N_GHOST, grid.n_x + N_GHOST)

    phi0, phi0p, _, phi1, _ = data.sample(x_full)
    phi = np.asarray(phi0, dtype=float).copy()
    P0 = np.asarray(phi1, dtype=float).copy()
    P1 = np.asarray(phi0p, dtype=float).copy()

    _, c0 = _char_speed(model, P0[N_GHOST:-N_GHOST], P1[N_GHOST:-N_GHOST])
    n_t = math.ceil(grid.t_max / (grid.cfl * dx / (c0 * (1.0 + SPEED_MARGIN))))
    dt = grid.t_max / n_t

    inner = slice(N_GHOST, -N_GHOST)
    hist = tuple(np.empty((n_t + 1, grid.n_x)) for _ in range(3))
    for rows, full in zip(hist, (phi, P0, P1)):
        rows[0] = full[inner]

    # the background is evaluated at the ghost nodes only
    ghosts = np.r_[:N_GHOST, grid.n_x + N_GHOST:grid.n_x + 2 * N_GHOST]
    x_ghost = x_full[ghosts]

    def fill_ghosts(t, arrs):
        for src, dst in zip(_background_rows(profile, t, x_ghost), arrs):
            dst[ghosts] = src

    def rhs(t, arrs):
        phi_f, P0_f, P1_f = arrs
        met, c_max = _char_speed(model, P0_f[inner], P1_f[inner])
        if dt * c_max > grid.cfl * dx * (1.0 + 1e-9):
            raise CFLViolation(
                f"characteristic speed {c_max:.4g} at t={t:.4g} exceeds the "
                f"step budget dt={dt:.4g}, dx={dx:.4g}, cfl={grid.cfl}"
            )
        dxP0 = _dx4(P0_f, dx)
        dxP1 = _dx4(P1_f, dx)
        dP0 = -(2.0 * met.inv01 * dxP0 + met.inv11 * dxP1) / met.inv00
        dP1 = dxP0.copy()
        if dissipation:
            dP0 += _ko6(P0_f, dx, dissipation)
            dP1 += _ko6(P1_f, dx, dissipation)
        return P0_f[inner].copy(), dP0, dP1

    cur = [phi, P0, P1]
    pred = [np.empty_like(phi) for _ in range(3)]
    for k in range(n_t):
        t0 = k * dt
        fill_ghosts(t0, cur)
        k1 = rhs(t0, cur)
        for c, p, r in zip(cur, pred, k1):
            p[inner] = c[inner] + dt * r
        fill_ghosts(t0 + dt, pred)
        k2 = rhs(t0 + dt, pred)
        for c, r1, r2 in zip(cur, k1, k2):
            c[inner] += 0.5 * dt * (r1 + r2)
        for rows, c in zip(hist, cur):
            rows[k + 1] = c[inner]

    t_axis = dt * np.arange(n_t + 1)
    return RectState(t_axis, grid.x, *hist)


def flux_residual(rect: RectState, model: Nonlinearity) -> float:
    """Sup of the divergence-form residual d_t(-e^f Phi0) + d_x(e^f Phi1).

    Centered differences in both directions, so O(dt^2 + dx^2) on smooth
    states and exactly zero on the zero state.  Formed one block of time
    rows at a time, with one row of halo on either side for the time
    difference, as dn_core.sigma_wave_residual is.  The block maxima are
    reduced by np.max, so the sup is the whole history's bit for bit and
    a NaN shows.
    """
    if min(rect.phi.shape) < 3:
        raise InsufficientDomain("need at least a 3x3 history for centered differences")
    sups = []
    for blk in row_blocks(*rect.phi.shape, halo=1):
        Phi0, Phi1 = rect.Phi0[blk], rect.Phi1[blk]
        w = np.exp(np.asarray(model.f(-Phi0**2 + Phi1**2), dtype=float))
        At = -w * Phi0
        Ax = w * Phi1
        dt_A = (At[2:, 1:-1] - At[:-2, 1:-1]) / (2.0 * rect.dt)
        dx_A = (Ax[1:-1, 2:] - Ax[1:-1, :-2]) / (2.0 * rect.dx)
        sups.append(np.max(np.abs(dt_A + dx_A)))
    return float(np.max(sups))


def _corners(iu, jb):
    """The four corner nodes of the cells (iu, jb): 00, 10, 01, 11."""
    return (iu, jb), (iu + 1, jb), (iu, jb + 1), (iu + 1, jb + 1)


def _blend(f00, f10, f01, f11, su, rb):
    """Bilinear blend of corner values at in-cell offsets (su, rb)."""
    return (
        f00 * (1 - su) * (1 - rb)
        + f10 * su * (1 - rb)
        + f01 * (1 - su) * rb
        + f11 * su * rb
    )


def _bilinear(F: np.ndarray, iu, jb, su, rb):
    """F blended at (su, rb) in the cells (iu, jb); the corners are read by
    np.take at their flat indices in F's C order, in _corners' order."""
    n = F.shape[1]
    k = iu * n + jb
    return _blend(*(np.take(F, k + d) for d in (0, n, 1, n + 1)), su, rb)


def _locate(grid, u, ub):
    """Cell indices (iu, jb) and in-cell offsets (su, rb) of points (u, ub)."""
    qu = (u - grid.u_min) / grid.h
    qb = (ub - grid.ub_min) / grid.h
    iu = np.clip(qu.astype(int), 0, grid.n_nodes - 2)
    jb = np.clip(qb.astype(int), 0, grid.n_nodes - 2)
    return iu, jb, qu - iu, qb - jb


def _newton_step(cmap: CoordMap, u, ub, cell, rt, rx):
    """Walkers at (u, ub), in cell = _locate(grid, u, ub) and with map
    residual (rt, rx), after one Newton step.

    The Jacobian is the bilinear blend of the frame's tangents
    (NullFrame.tangents), formed at the cells' four corners.  A singular
    Jacobian sends a walker to the collar corner.
    """
    grid, h = cmap.grid, cmap.grid.h
    iu, jb, su, rb = cell
    corners = [cmap.frame.tangents(*c) for c in _corners(iu, jb)]
    jut, jux, jbt, jbx = (_blend(*f, su, rb) for f in zip(*corners))
    det = jut * jbx - jbt * jux
    det = np.where(np.abs(det) < 1e-300, np.nan, det)
    du = (jbx * rt - jbt * rx) / det
    db = (-jux * rt + jut * rx) / det
    # confine walkers to a one-cell collar: points leaving the square
    # are heading out of the image and will be skipped by containment
    u = u - du
    ub = ub - db
    u = np.clip(np.where(np.isfinite(u), u, grid.u_min - 2 * h),
                grid.u_min - 2 * h, grid.u_max + 2 * h)
    ub = np.clip(np.where(np.isfinite(ub), ub, grid.ub_min - 2 * h),
                 grid.ub_min - 2 * h, grid.ub_max + 2 * h)
    return u, ub


def _cycle_stops(k, cap, pos, checkpoint, stop):
    """Brent's cycle check of the pullback walkers after step k (from 1).

    pos and checkpoint are (u, ub) pairs of int64 bit views: the walkers'
    positions after step k, and at the checkpoint, the last power-of-two
    step before k (step 0, the start, for k = 1).  stop holds the step at
    which each walker retires, cap until it is found on a cycle; it is
    updated in place.  A walker back at its checkpoint repeats a cycle
    whose length divides lam = k - checkpoint step, so iterating it on to
    step cap would leave it where step k + (cap - k) mod lam does: that
    step becomes its stop.  Returns the next checkpoint (pos when k is a
    power of two) and the mask of walkers that retire at step k.
    """
    lam = k - (0 if k == 1 else 1 << (k - 1).bit_length() - 1)
    back = ((pos[0] == checkpoint[0]) & (pos[1] == checkpoint[1])
            & (stop == cap))
    stop[back] = k + (cap - k) % lam
    if k & (k - 1) == 0:
        checkpoint = pos
    return checkpoint, stop == k


def _interp_floor(dn: DNState, profile: WaveProfile) -> float:
    """Bilinear sampling floor: 0.125 times the largest, over xi, Phi0 and
    Phi1 on the null grid, of sup |second u-difference| + sup |second
    ubar-difference|.

    Phi0 and Phi1 are formed one row block at a time, with one row of halo
    on either side for the u-differences; the ubar-differences take each
    row once, the first and last rows from the halo of the end blocks.
    Maxima are exact and np.max keeps a NaN, so this is the whole-field
    value bit for bit.
    """
    n = dn.grid.n_nodes
    zp = np.asarray(profile.dzeta(dn.grid.ub), dtype=float)[None, :]
    sups = []
    for blk in row_blocks(n, n, halo=1):
        rows = slice(0 if blk.start == 0 else 1, None if blk.stop == n else -1)
        psi, psib = dn.psi[blk], dn.psib[blk]
        sups.append([
            (np.max(np.abs(F[2:] - 2.0 * F[1:-1] + F[:-2])),
             np.max(np.abs(F[rows, 2:] - 2.0 * F[rows, 1:-1] + F[rows, :-2])))
            for F in (dn.xi[blk], Phi0_of(psi, psib, zp),
                      Phi1_of(psi, psib, zp))])
    du, db = np.max(sups, axis=0).T
    return 0.125 * float(np.max(du + db))


def _rect_nodes(rect: RectState, k):
    """(t, x) of the rectangular nodes at the row-major flat indices k."""
    it, ix = np.divmod(k, rect.x.size)
    return rect.t[it], rect.x[ix]


def pullback_compare(
    dn: DNState,
    cmap: CoordMap,
    rect: RectState,
    model: Nonlinearity,
    profile: WaveProfile,
    newton_tol: float = 1e-11,
    max_newton: int = 40,
) -> dict:
    """Pull the double-null solution back to rectangular nodes and diff it.

    Every rectangular node is located in the (u, ub) square by Newton
    iteration on the bilinear interpolant of the reconstructed map,
    seeded with the background relation u = V^{-1}(t + x + Z(t - x)),
    ub = t - x, with V on the grid read from cmap.V.  Nodes whose preimage
    leaves the square are skipped and counted; OutOfImage fires only when
    nothing overlaps.  Unconverged interior nodes raise InversionFailure,
    the near-degeneracy signal.

    Each iteration locates the live walkers in their cells once, starting
    from every node, and evaluates there the residual and, for the walkers
    still active, the Jacobian.  A walker leaves the live set when its
    residual passes newton_tol * (1 + |t| + |x|), or when it is found on a
    cycle (_cycle_stops): the update is a pure function of (u, ub, t, x)
    and the map, so a walker that a step returns bitwise to an earlier
    point repeats that cycle, active, for ever.  It takes the steps that
    bring it to the cycle's point at max_newton, and retires there with
    its last verdict.  Such walkers are mostly ones the collar clip holds
    on one point or bounces between a few.  At the max_newton cap a live
    walker keeps its last verdict and its (u, ub) after the last step, so
    the result is that of iterating every node max_newton times.
    newton["iterations"] counts the iterations run, which can end below
    the cap once no walker is live.

    Memory is bounded by the walkers' positions: an iteration walks the
    live walkers in chunks of grid.BLOCK_ELEMS // WALKER_WIDTH, and
    each chunk forms its nodes' (t, x) from their flat index, steps them
    and writes its survivors back into the front of the live arrays, in
    order.  Every walker sees the same arithmetic in any chunk, so the
    result does not depend on the chunk size.  The compared nodes are
    sampled chunk by chunk into one |difference| array per field, and each
    l1_diff is one np.sum over that array.

    Returns a dict: sup_diff and l1_diff per field (phi, Phi0, Phi1),
    interp_error (the bilinear sampling floor), n_compared, n_skipped and
    newton ("live": walkers evaluated per iteration, "iterations": count).
    """
    grid = cmap.grid
    interp = _interp_floor(dn, profile)
    n_walkers = rect.phi.size

    ub = (rect.t[:, None] - rect.x).ravel()
    np.clip(ub, grid.ub_min, grid.ub_max, out=ub)
    Zg = np.asarray(phase_function(profile, model, ub), dtype=float)
    u = np.empty(n_walkers)
    for c in flat_blocks(n_walkers, WALKER_WIDTH):
        T, X = _rect_nodes(rect, np.arange(c.start, c.stop))
        u[c] = np.interp(T + X + Zg[c], cmap.V, grid.u)
    del Zg
    np.clip(u, grid.u_min, grid.u_max, out=u)

    # live walkers, their stop steps and cycle checkpoints (_cycle_stops);
    # the start is the first checkpoint
    active = np.ones(n_walkers, dtype=bool)
    live = np.arange(n_walkers)
    stop = np.full(n_walkers, max_newton, dtype=np.min_scalar_type(max_newton))
    checkpoint = u.view(np.int64).copy(), ub.view(np.int64).copy()
    n_live = []
    while live.size and len(n_live) < max_newton:
        n_live.append(int(live.size))
        kept = 0
        for c in flat_blocks(live.size, WALKER_WIDTH):
            lc = live[c]
            T, X = _rect_nodes(rect, lc)
            ul, bl = u[lc], ub[lc]
            cell = _locate(grid, ul, bl)
            rt = _bilinear(cmap.t, *cell) - T
            rx = _bilinear(cmap.x, *cell) - X
            tol = newton_tol * (1.0 + np.abs(T) + np.abs(X))
            a = np.maximum(np.abs(rt), np.abs(rx)) > tol
            active[lc] = a
            lc, ul, bl = lc[a], ul[a], bl[a]
            cell = [q[a] for q in cell]  # frees the chunk's cells first
            un, bn = _newton_step(cmap, ul, bl, cell, rt[a], rx[a])
            u[lc] = un
            ub[lc] = bn
            sc = stop[c][a]
            cp, going = _cycle_stops(
                len(n_live), max_newton,
                (un.view(np.int64), bn.view(np.int64)),
                tuple(q[c][a] for q in checkpoint), sc)
            keep = ~going
            end = kept + int(np.count_nonzero(keep))
            live[kept:end] = lc[keep]
            stop[kept:end] = sc[keep]
            for q, p in zip(checkpoint, cp):
                q[kept:end] = p[keep]
            kept = end
        live, stop = live[:kept], stop[:kept]
        checkpoint = tuple(q[:kept] for q in checkpoint)

    slack = 1e-9 * (1.0 + abs(grid.u_max))
    inside = (
        (u >= grid.u_min - slack) & (u <= grid.u_max + slack)
        & (ub >= grid.ub_min - slack) & (ub <= grid.ub_max + slack)
    )
    stuck = inside & active
    if np.any(stuck):
        t, x = _rect_nodes(rect, int(np.argmax(stuck)))
        raise InversionFailure(
            f"map inversion stalled at (t, x) = ({t:.4g}, {x:.4g}); "
            "the reconstructed map is close to degenerate there"
        )
    covered = inside & ~active
    n_compared = int(np.count_nonzero(covered))
    n_skipped = int(covered.size - n_compared)
    if n_compared == 0:
        raise OutOfImage("no rectangular node lies in the image of the map")

    fields = ("phi", "Phi0", "Phi1")
    d = {name: np.empty(n_compared) for name in fields}
    done = 0
    for c in flat_blocks(n_walkers, WALKER_WIDTH):
        k = c.start + np.flatnonzero(covered[c])
        part = slice(done, done + k.size)
        done = part.stop
        uc = np.clip(u[k], grid.u_min, grid.u_max)
        bc = np.clip(ub[k], grid.ub_min, grid.ub_max)
        at = _locate(grid, uc, bc)
        zp_b = np.asarray(profile.dzeta(bc), dtype=float)
        psi_s = _bilinear(dn.psi, *at)
        psib_s = _bilinear(dn.psib, *at)
        samples = {
            "phi": np.asarray(profile.zeta(bc), dtype=float)
                   + _bilinear(dn.xi, *at),
            "Phi0": Phi0_of(psi_s, psib_s, zp_b),
            "Phi1": Phi1_of(psi_s, psib_s, zp_b),
        }
        for name in fields:
            diff = samples[name] - getattr(rect, name).ravel()[k]
            np.abs(diff, out=d[name][part])
    cell = rect.dt * rect.dx

    return {
        "sup_diff": {name: float(np.max(d[name])) for name in fields},
        "l1_diff": {name: float(cell * np.sum(d[name])) for name in fields},
        "interp_error": float(interp),
        "n_compared": n_compared,
        "n_skipped": n_skipped,
        "newton": {"iterations": len(n_live), "live": n_live},
    }


def phase_shift(cmap: CoordMap) -> float:
    """Asymptotic offset of the u-level sets across the wave zone.

    On the background the reconstructed map satisfies t + x + Z(ub) =
    V(u) identically, so D = [t + x + Z(ub)] - V(u) vanishes.  After a
    perturbation crosses the background wave, D settles to different
    constants on the two ub-edges of the domain; the difference is the
    phase shift.  V and Z are the CoordMap's own, and D is formed on
    the two edge columns only.  It is averaged over
    the top PHASE_WINDOW fraction of u-rows and must have settled there
    (spread within PHASE_ATOL + PHASE_RTOL |mean|), otherwise
    InsufficientDomain is raised.
    """
    grid = cmap.grid
    last, first = (cmap.t[:, k] + cmap.x[:, k] + cmap.Z[k] - cmap.V
                   for k in (-1, 0))
    per_row = last - first

    rows = grid.u >= grid.u_max - PHASE_WINDOW * (grid.u_max - grid.u_min)
    if np.count_nonzero(rows) < 3:
        raise InsufficientDomain("u-range too short to average the late-u window")
    vals = per_row[rows]
    mean = float(np.mean(vals))
    spread = float(np.max(vals) - np.min(vals))
    if spread > PHASE_ATOL + PHASE_RTOL * abs(mean):
        raise InsufficientDomain(
            f"phase shift has not settled: spread {spread:.3e} against mean {mean:.3e}; "
            "enlarge the double-null domain"
        )
    return mean
