"""Double-null evolution of the perturbation system from t=0 data.

The unknowns are the perturbation fields (psi, psib, xi) and their null
derivatives on the square grid.  Writing s = sigma, zp = zeta'(ubar),
zpp = zeta''(ubar), the semilinear system integrated here is

    d_u d_ub psi  = F_psi  = -G/2 (s_u psi_ub + psi_u s_ub)
    d_u d_ub psib = F_psib = -G s_u zpp - G/2 (s_u psib_ub + psib_u s_ub)
    d_u d_ub xi   = F_xi   = -c (s_u xi_ub + xi_u s_ub + zp s_u),
                             c = s kappa H'/4

(subscripts u, ub are the null derivatives), with sigma slaved
algebraically, never integrated (state.sigma_jet, which forms the shared
factor 2 zp + psib once):

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
front off the diagonal the across-corner D is not on the walk, so the value
is taken as the average of the two one-leg trapezoid integrations instead,
and the predictor is W + S.

The walk is DNGrid.joint_fronts, shared with the frame transport
(geometry.integrate_frame), from the first front on, so each triangle is
walked from the diagonal alone.  D lies on the front before, so the walk
carries its last two fronts: the last one whole, sources included, and the
one before only as the values and sources D reads.  F_P depends on the
unknowns at P, so each front runs a small fixed-point loop vectorized over
its cells and fields: plain iterations until every cell's update is within
CELL_TOL of its size (N_PLAIN caps them), then a damped retry from the
predictor for any cell that has not converged (N_DAMPED caps that).  Each
half has its own stop test (grid.iterate_halves) and its own retry.  The
stored F_P is the source at the last iterate, the one the final iteration
started from, within CELL_TOL of the converged cell: the right side is not
evaluated again at the stored unknowns, only their slaved sigma is checked
admissible.  The walk fills a DNState in place and raises, by the walk's
rule, HyperbolicityLoss where sigma leaves the model's admissible range and
InnerFixedPointDivergence where a cell is still unconverged after the
retry.

The linear solves of the global iteration (picard._frozen_solve) satisfy the
same per-cell equations with F known on every node, which makes them closed
form, with no front sweep.
"""

from __future__ import annotations

import numpy as np

from .background import WaveProfile
from .errors import HyperbolicityLoss, InnerFixedPointDivergence
from .grid import (DNGrid, both_halves, iterate_halves, jet_sup,
                   map_row_blocks, row_blocks)
from .nonlinearity import Nonlinearity, coefficients, eval_coeffs
from .state import FIELD_NAMES, DiagonalData, DNState, sigma_jet, sigma_of


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
    sig, s_u, s_ub = sigma_jet(psi, psib, psi_u, psi_ub, psib_u, psib_ub,
                               zp, zpp)
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


def _inadmissible(ok, grid, i, j):
    """HyperbolicityLoss at the node of least u outside ok, or None."""
    if np.all(ok):
        return None
    return HyperbolicityLoss(
        "sigma left the admissible range (domain wall or kappa <= 0) at "
        + grid.where_least_u(~ok, i, j))


def _front_rhs(model, zp, zpp, U):
    """_rhs_arrays at the unknowns U, component (value, d_u, d_ub) by field."""
    (p, b, _), (pu, bu, xu), (pub, bub, xub) = U
    return _rhs_arrays(model, zp, zpp, p, b, pu, pub, bu, bub, xu, xub)


def _solve_front(model, grid, cells, z, hh, W, S, D, damp, n_it):
    """At most n_it fixed-point iterations for the cells of each half.

    Every array carries the half before the cell: cells = (i, j) and
    z = (zeta'(ubar), zeta''(ubar)) at them are (halves, cells), hh the
    signed half step h/2 of each half, (halves, 1).  W and S are the
    (value, d_u, d_ub, F) of the cells' u- and ubar-predecessors, D the
    (value, F) of their across-corners, each (3, halves, cells) by field.
    On the first front D is None: the predictor is W + S, and the averaged
    one-leg rule replaces the four-corner one.

    A half stops once every one of its cells' update is within
    CELL_TOL * scale, or at its first iterate outside the admissible
    range (grid.iterate_halves).  The stop is half-wide: a cell that
    converged early keeps iterating until the slowest cell of its half
    has, so its result depends on the cells it runs with, but only below
    that tolerance, and never on the other half.  Returns the
    unknowns (3, 3, halves, cells), component (value, d_u, d_ub) by
    field; the sources of each half's last iteration (at the unknowns it
    started from, within CELL_TOL of the result); the mask of converged
    cells; and each half's HyperbolicityLoss, or None.
    """
    i, j = cells
    zp, zpp = z
    qq = 0.25 * grid.h * grid.h
    (V_w, VU_w, VUB_w, F_w), (V_s, VU_s, VUB_s, F_s) = W, S
    corner = V_w + V_s if D is None else V_w + V_s - D[0]
    cur = np.stack((corner, VU_s, VUB_w))
    new = np.empty_like(cur)
    F = np.empty_like(corner)
    good = np.zeros(i.shape, dtype=bool)
    errors = [None] * len(i)

    def step(a):
        c, n, hs = cur[:, :, a], new[:, :, a], hh[a]
        okm, _, *f = _front_rhs(model, zp[a], zpp[a], c)
        f = np.array(f)
        np.add(VU_s[:, a], hs * (F_s[:, a] + f), out=n[1])
        np.add(VUB_w[:, a], hs * (F_w[:, a] + f), out=n[2])
        if D is None:
            n[0] = 0.5 * (V_s[:, a] + hs * (VUB_s[:, a] + n[2])) \
                + 0.5 * (V_w[:, a] + hs * (VU_w[:, a] + n[1]))
        else:
            n[0] = corner[:, a] + qq * (f + F_w[:, a] + F_s[:, a]
                                        + D[1][:, a])
        if damp != 1.0:
            n[...] = c + damp * (n - c)
        # |n - c| in c's place, which takes n next
        change = np.max(np.abs(np.subtract(n, c, out=c), out=c), axis=(0, 1))
        scale = 1.0 + np.max(np.abs(n[0]), axis=0)
        c[...] = n
        F[:, a] = f
        good[a] = change <= CELL_TOL * scale
        for h, ok in zip(range(len(i))[a], okm):
            errors[h] = _inadmissible(ok, grid, i[h], j[h])
        return [e is not None or g.all() for e, g in zip(errors[a], good[a])]
    iterate_halves(step, len(i), n_it)
    return cur, F, good, errors


def _advance(grid, model, zp, zpp, cells, hh, prev, D, fields):
    """Solve one front of each half in cells, check it and store it.

    prev is the last front, (value, d_u, d_ub, F) each (3, halves,
    cells + 1), whose slices DNGrid.predecessors() hold the cells' u-
    and ubar-predecessors; cells, hh and D are as _solve_front's (D None
    on the first front).  The
    cells that a half's plain iterations leave unconverged get a damped
    retry from the predictor, run on that half's cells alone.  Each
    half's first error -- HyperbolicityLoss in an iteration or at the
    values to store, InnerFixedPointDivergence after the retry -- is the
    one a walk of its triangle alone would raise, and the first half's
    error is raised if there is one.  Otherwise the front is written into
    fields, the state's (value, d_u, d_ub) arrays by field, and returned
    in prev's layout, each component an array of its own, so that the
    next front can keep the two D reads without the other two.
    """
    i, j = cells
    z = (zp[j], zpp[j])
    sW, sS = grid.predecessors()
    W = [x[..., sW] for x in prev]
    S = [x[..., sS] for x in prev]
    sol, F, good, errors = _solve_front(model, grid, cells, z, hh, W, S, D,
                                        1.0, N_PLAIN)
    for h, fail in enumerate(~good):
        if errors[h] is None and fail.any():
            pick = (slice(None), slice(h, h + 1), fail)
            s, f, g, (err,) = _solve_front(
                model, grid, [x[pick[1:]] for x in cells],
                [x[pick[1:]] for x in z], hh[h:h + 1],
                [x[pick] for x in W], [x[pick] for x in S],
                None if D is None else [x[pick] for x in D], 0.5, N_DAMPED)
            sol[(slice(None),) + pick], F[pick], good[h, fail] = s, f, g[0]
            if err is None and not good[h].all():
                err = InnerFixedPointDivergence(
                    "cell fixed point did not converge at "
                    f"{grid.where_least_u(~good[h], i[h], j[h])}; "
                    "reduce h or the data amplitude")
            errors[h] = err
    ok = coefficients(model, sigma_of(sol[0, 0], sol[0, 1], z[0])).ok
    for err, o, ii, jj in zip(errors, ok, i, j):
        err = err or _inadmissible(o, grid, ii, jj)
        if err:
            raise err
    at = i * grid.n_nodes + j       # the state's arrays are C-ordered
    for arrays, values in zip(fields, sol.swapaxes(0, 1)):
        for A, x in zip(arrays, values):
            A.reshape(-1)[at] = x
    return (*map(np.array, sol), F)


def _diagonal_front(grid, model, zp, zpp, fields):
    """The diagonal as the front before the first (grid.both_halves); only
    its sources are evaluated at the stored values, which are checked
    admissible."""
    i, j = grid.diagonal()
    U = np.array([[V[i, j] for V in comp] for comp in zip(*fields)])
    ok, _, *F = _front_rhs(model, zp[j], zpp[j], U)
    err = _inadmissible(ok, grid, i, j)
    if err:
        raise err
    return [both_halves(x) for x in (*U, np.array(F))]


def march(data: DiagonalData, grid: DNGrid, model: Nonlinearity,
          profile: WaveProfile) -> DNState:
    """Solve the double-null system on the full square from diagonal data.

    Each triangle is walked from the diagonal data alone (grid.joint_fronts),
    so on a zero background the march commutes bit for bit with time
    reversal, (i, j) -> (N - j, N - i).

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
        From the walk, at the first m where front m of either triangle
        fails, the future one's if both fail there, naming that front's
        failing node of least u.
    """
    grid.require_nodes(data.s, "diagonal data")
    state = DNState.zeros(grid)
    for name in FIELD_NAMES:
        getattr(state, name)[grid.diagonal()] = getattr(data, name)

    zp = np.asarray(profile.dzeta(grid.ub), dtype=float)
    zpp = np.asarray(profile.d2zeta(grid.ub), dtype=float)
    # The walk (grid.joint_fronts): a front is (value, d_u, d_ub, F), each
    # (3, halves, cells) by field.  D of the next front is [1:-1] of the
    # values and sources of the one solved from; front 1 has no D.
    fields = [state.jet(name) for name in SOURCES]
    hh = 0.5 * grid.h * np.array([[1.0], [-1.0]])    # future, past
    prev, D = _diagonal_front(grid, model, zp, zpp, fields), None
    for cells in grid.joint_fronts():
        D, prev = tuple(x[..., 1:-1] for x in (prev[0], prev[3])), _advance(
            grid, model, zp, zpp, cells, hh, prev, D, fields)
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
    for name in ("psi", "psib", "xi"):
        out[name] = jet_sup(g, *state.jet(name), gamma_bar)
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
        sig, s_u, s_ub = sigma_jet(
            state.psi[blk], state.psib[blk], state.dpsi_u[blk],
            state.dpsi_ub[blk], state.dpsib_u[blk], state.dpsib_ub[blk], zp, zpp)
        d_u_d_ub = (s_ub[2:, :] - s_ub[:-2, :]) / (2.0 * g.h)
        G = eval_coeffs(model, sig).G[1:-1]
        null_form = (G * s_u[1:-1] * s_ub[1:-1]
                     + state.dpsi_u[mid] * (state.dpsib_ub[mid] + 2.0 * zpp)
                     + state.dpsi_ub[mid] * state.dpsib_u[mid])
        sups.append(np.max(np.abs(d_u_d_ub + null_form)))
    return float(np.max(sups))
