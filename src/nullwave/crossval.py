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
residual converges, or once a step leaves it bitwise in place (mostly a
walker that the collar clip holds on one point).  flux_residual applies
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
    states and exactly zero on the zero state.
    """
    if rect.phi.shape[0] < 3 or rect.phi.shape[1] < 3:
        raise InsufficientDomain("need at least a 3x3 history for centered differences")
    sig = -rect.Phi0**2 + rect.Phi1**2
    w = np.exp(np.asarray(model.f(sig), dtype=float))
    At = -w * rect.Phi0
    Ax = w * rect.Phi1
    dt_A = (At[2:, 1:-1] - At[:-2, 1:-1]) / (2.0 * rect.dt)
    dx_A = (Ax[1:-1, 2:] - Ax[1:-1, :-2]) / (2.0 * rect.dx)
    return float(np.max(np.abs(dt_A + dx_A)))


def _bilinear(F: np.ndarray, iu, jb, su, rb):
    f00 = F[iu, jb]
    f10 = F[iu + 1, jb]
    f01 = F[iu, jb + 1]
    f11 = F[iu + 1, jb + 1]
    return (
        f00 * (1 - su) * (1 - rb)
        + f10 * su * (1 - rb)
        + f01 * (1 - su) * rb
        + f11 * su * rb
    )


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

    A singular Jacobian sends a walker to the collar corner.
    """
    grid, h = cmap.grid, cmap.grid.h
    jut = _bilinear(cmap.jac_u_t, *cell)
    jbt = _bilinear(cmap.jac_ub_t, *cell)
    jux = _bilinear(cmap.jac_u_x, *cell)
    jbx = _bilinear(cmap.jac_ub_x, *cell)
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


def _second_difference_sup(F: np.ndarray) -> float:
    du = np.max(np.abs(F[2:, :] - 2.0 * F[1:-1, :] + F[:-2, :]))
    db = np.max(np.abs(F[:, 2:] - 2.0 * F[:, 1:-1] + F[:, :-2]))
    return float(du + db)


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
    residual passes newton_tol * (1 + |t| + |x|), or when its clipped
    (u, ub) come out of a step bitwise unchanged: the update is a pure
    function of (u, ub, t, x) and the map, so it sits at a fixed
    point and keeps the verdict of its last evaluation.  Such walkers
    are mostly ones the collar clip holds on one point; walkers that
    keep moving along the collar stay live.  At the max_newton cap a
    live walker keeps its last verdict and its (u, ub) after the last
    step, so the result is that of iterating every node max_newton
    times.

    Returns a dict: sup_diff and l1_diff per field (phi, Phi0, Phi1),
    interp_error (the bilinear sampling floor), n_compared, n_skipped and
    newton ("live": walkers evaluated per iteration, "iterations": count).
    """
    grid = cmap.grid

    # bilinear sampling floor of phi, Phi0 and Phi1 on the null grid; each
    # field is freed as soon as its sup is taken
    zp = np.asarray(profile.dzeta(dn.grid.ub), dtype=float)[None, :]
    interp = 0.125 * max(
        _second_difference_sup(dn.xi),
        _second_difference_sup(Phi0_of(dn.psi, dn.psib, zp)),
        _second_difference_sup(Phi1_of(dn.psi, dn.psib, zp)),
    )

    T = np.repeat(rect.t, rect.x.size)
    X = np.tile(rect.x, rect.t.size)

    ub = np.clip(T - X, grid.ub_min, grid.ub_max)
    Zg = np.asarray(phase_function(profile, model, ub), dtype=float)
    u = np.clip(np.interp(T + X + Zg, cmap.V, grid.u), grid.u_min, grid.u_max)

    tol = newton_tol * (1.0 + np.abs(T) + np.abs(X))
    active = np.ones(T.shape, dtype=bool)
    live = np.arange(T.size)
    n_live = []
    while live.size and len(n_live) < max_newton:
        n_live.append(int(live.size))
        ul, bl = u[live], ub[live]
        cell = _locate(grid, ul, bl)
        rt = _bilinear(cmap.t, *cell) - T[live]
        rx = _bilinear(cmap.x, *cell) - X[live]
        a = np.maximum(np.abs(rt), np.abs(rx)) > tol[live]
        active[live] = a
        live, ul, bl = live[a], ul[a], bl[a]
        cell = [c[a] for c in cell]  # frees the full cells before the step
        un, bn = _newton_step(cmap, ul, bl, cell, rt[a], rx[a])
        u[live] = un
        ub[live] = bn
        # a walker whose step left it bitwise in place sits at a fixed
        # point of the update: it retires with its last active flag
        moved = ((un.view(np.int64) != ul.view(np.int64))
                 | (bn.view(np.int64) != bl.view(np.int64)))
        live = live[moved]

    slack = 1e-9 * (1.0 + abs(grid.u_max))
    inside = (
        (u >= grid.u_min - slack) & (u <= grid.u_max + slack)
        & (ub >= grid.ub_min - slack) & (ub <= grid.ub_max + slack)
    )
    converged = ~active
    stuck = inside & ~converged
    if np.any(stuck):
        k = int(np.argmax(stuck))
        raise InversionFailure(
            f"map inversion stalled at (t, x) = ({T[k]:.4g}, {X[k]:.4g}); "
            "the reconstructed map is close to degenerate there"
        )
    covered = inside & converged
    n_compared = int(np.count_nonzero(covered))
    n_skipped = int(covered.size - n_compared)
    if n_compared == 0:
        raise OutOfImage("no rectangular node lies in the image of the map")

    uc = np.clip(u[covered], grid.u_min, grid.u_max)
    bc = np.clip(ub[covered], grid.ub_min, grid.ub_max)
    at = _locate(grid, uc, bc)

    zeta_b = np.asarray(profile.zeta(bc), dtype=float)
    zp_b = np.asarray(profile.dzeta(bc), dtype=float)
    psi_s = _bilinear(dn.psi, *at)
    psib_s = _bilinear(dn.psib, *at)
    samples = {
        "phi": zeta_b + _bilinear(dn.xi, *at),
        "Phi0": Phi0_of(psi_s, psib_s, zp_b),
        "Phi1": Phi1_of(psi_s, psib_s, zp_b),
    }
    targets = {
        "phi": rect.phi.ravel()[covered],
        "Phi0": rect.Phi0.ravel()[covered],
        "Phi1": rect.Phi1.ravel()[covered],
    }
    cell = rect.dt * rect.dx
    sup_diff, l1_diff = {}, {}
    for name in ("phi", "Phi0", "Phi1"):
        d = np.abs(samples[name] - targets[name])
        sup_diff[name] = float(np.max(d))
        l1_diff[name] = float(cell * np.sum(d))

    return {
        "sup_diff": sup_diff,
        "l1_diff": l1_diff,
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
