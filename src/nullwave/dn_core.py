"""Double-null evolution of the perturbation system from t=0 data.

The unknowns are the perturbation fields (psi, psib, xi) and their null
derivatives on the square grid.  Writing s = sigma, zp = zeta'(ubar),
zpp = zeta''(ubar), the semilinear system integrated here is

    d_u d_ub psi  = -G/2 (d_u s d_ub psi + d_u psi d_ub s)
    d_u d_ub psib = -G d_u s zpp - G/2 (d_u s d_ub psib + d_u psib d_ub s)
    d_u d_ub xi   = -(s kappa H'/4) (d_u s d_ub xi + d_u xi d_ub s + zp d_u s)

with sigma slaved algebraically, never integrated:

    s = -psi (2 zp + psib).

Data lives on the anti-diagonal i + j = N (the t=0 slice, where u = s and
ubar = -s); march() fills the future and past triangles of the square with
the trapezoid/four-corner scheme in _kernels, one numpy sweep vectorized
over anti-diagonal fronts, and returns a frozen DNState.
"""

from __future__ import annotations

import numpy as np

from . import _kernels
from .background import WaveProfile
from .errors import GridMismatch, HyperbolicityLoss
from .grid import DNGrid, jet_sup, map_row_blocks, row_blocks
from .nonlinearity import Nonlinearity, eval_coeffs
from .state import (FIELD_NAMES, DiagonalData, DNState, dsigma_u_of,
                    dsigma_ub_of, sigma_of)


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
    HyperbolicityLoss, InnerFixedPointDivergence
        From the sweep in _kernels, naming the first failing node.
    """
    if data.s.shape != grid.u.shape:
        raise GridMismatch(
            f"diagonal data has {data.s.shape[0]} nodes, grid wants {grid.n_nodes}"
        )
    tol = 1e-9 * (1.0 + float(np.max(np.abs(grid.u))))
    if float(np.max(np.abs(data.s - grid.u))) > tol:
        raise GridMismatch("diagonal data nodes do not coincide with grid.u")

    state = DNState.zeros(grid)
    diag = grid.diagonal()
    for name in FIELD_NAMES:
        getattr(state, name)[diag] = getattr(data, name)

    zp = np.asarray(profile.dzeta(grid.ub), dtype=float)
    zpp = np.asarray(profile.d2zeta(grid.ub), dtype=float)
    f_psi = np.zeros((grid.n_nodes, grid.n_nodes))
    f_psib = np.zeros_like(f_psi)
    f_xi = np.zeros_like(f_psi)

    for direction in (1, -1):
        _kernels._march_numpy(grid, direction, model, zp, zpp, state,
                              f_psi, f_psib, f_xi)
    return state.freeze()


def rhs_wave(model: Nonlinearity, zp, zpp, psi, psib,
             dpsi_u, dpsi_ub, dpsib_u, dpsib_ub, dxi_u, dxi_ub,
             sources=_kernels.SOURCES):
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
    if not set(sources) <= set(_kernels.SOURCES):
        raise ValueError(f"sources must be drawn from {_kernels.SOURCES}, got {sources!r}")
    args = [np.asarray(a, dtype=float) for a in (
        zp, zpp, psi, psib, dpsi_u, dpsi_ub, dpsib_u, dpsib_ub, dxi_u, dxi_ub)]
    shape = np.broadcast_shapes(*(a.shape for a in args))
    if len(shape) == 2:
        return map_row_blocks(lambda *a: _checked_rhs(model, a, sources),
                              shape, *args)
    return _checked_rhs(model, args, sources)


def _checked_rhs(model, args, sources):
    """The sources F of _rhs_arrays, raising at the first inadmissible node."""
    okm, sig, *formed = _kernels._rhs_arrays(model, *args, sources)
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
                        profile: WaveProfile) -> np.ndarray:
    """Residual of the null-form wave identity satisfied by sigma.

    The slaved sigma of an exact solution obeys

        d_u d_ub s + G d_u s d_ub s
                   + d_u Psi d_ub Psib + d_ub Psi d_u Psib = 0

    with Psi = psi and Psib = psib + 2 zeta'(ubar) the full characteristic
    derivatives.  Here d_u s, d_ub s are composed from the stored fields and
    d_u d_ub s is a centered difference of d_ub s in u, so the residual of
    the marched solution shrinks at the scheme's second order.  Returns an
    (N-1, N+1) array over the interior u-range, formed one row block at a
    time with one row of halo on either side for the centered difference
    (the coefficient G is evaluated on the halo rows too, so every node's
    sigma is checked as before).
    """
    g = state.grid
    n = g.n_nodes
    zp = np.asarray(profile.dzeta(g.ub), dtype=float)[None, :]
    zpp = np.asarray(profile.d2zeta(g.ub), dtype=float)[None, :]
    out = np.empty((n - 2, n))
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
        out[blk.start:blk.stop - 2] = d_u_d_ub + null_form
    return out
