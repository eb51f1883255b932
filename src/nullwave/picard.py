"""Successive-approximation solver for the perturbed double-null system.

The system solved by dn_core.march couples psi and psib only through the
slaved combination sigma = -psi (2 zeta'(ubar) + psib) and its first
derivatives.  That structure makes the following two-stage substitution map
well defined on pairs (psi, psib):

  1. solve  d_u d_ub psi  = F_psi  with every occurrence of (psi, psib)
     on the right side evaluated at the *current* iterate, then
  2. solve  d_u d_ub psib = F_psib with sigma built from the *fresh* psi
     and the current psib, and the remaining psib jets from the current
     iterate.

Each stage is a single linear wave solve with a fully known source; it
forms only its own source (rhs_wave's selector), never the other two.  Its
discrete equations are the march's per-cell scheme with the source frozen,
which makes them closed form: _frozen_solve integrates only the field the
stage needs, by anchored cumulative sums, without the march's
front-by-front sweep.

Every full-grid pass of the stage -- the source, the frozen solve, the
metric below and the xi gap -- runs in row blocks of about
grid.BLOCK_ELEMS elements, walked in row order, so its temporaries stay in
L2 and only the outputs are full-size (C-ordered) arrays.  The frozen
solve integrates the source twice, into d_u and d_ub, and takes the field
from its own d_u, a trapezoid step down each column.  The sums down the
columns are carried row by row into the output, which keeps one
cumulative sum's sequential order; their anchors on the diagonal are
subtracted in a second pass; and the one-leg values of the past first
front, whose d_ub anchor lies one row ahead, are formed once d_ub is
complete.  Every element goes through the same arithmetic whatever the
block size, so the iterates do not depend on it bit for bit.  The map is
applied by picard_apply; its fixed point satisfies exactly the same
per-cell discrete equations as the nonlinear march, so the two routes
must agree to rounding -- a genuinely independent cross-check of the
solver.

Iteration is controlled in the weighted sup metric

  d(a, b) = max( sup|dpsi|, sup|dpsib|,
                 sup (1+|u|)^(1+gb) |d dpsi_u|,  sup (1+|u|)^(1+gb) |d dpsib_u|,
                 sup (1+|ub|)^(1+gb) |d dpsi_ub|, sup (1+|ub|)^(1+gb) |d dpsib_ub| )

with gb the decay rate gamma_bar: grid.jet_sup of the psi and of the psib
jet of a - b, the differences formed one row block at a time, so it is the
decay norm of grid.py and has no reduction of its own.  The xi gap of the
completion below is grid.abs_max of the same kind of difference.  The
iterates are expected to live in the ball X_delta:

  |psi| <= delta^2,  |psib| <= delta,
  |dpsi_u|  <= delta^2 / (1+|u|)^(1+gb),   |dpsi_ub|  <= delta^2 / (1+|ub|)^(1+gb),
  |dpsib_u| <= delta  / (1+|u|)^(1+gb),    |dpsib_ub| <= delta  / (1+|ub|)^(1+gb).

The radius delta is tied to the data size eps0 by the smallness relation
6 (1 + 1/gb) eps0 <= delta^2; delta_from_smallness returns the smallest
radius satisfying it.  contraction_ratio measures the map's Lipschitz
constant empirically from consecutive pairs of random seeds in the ball,
holding one pair of seeds and one pair of images at a time, and reports
(without enforcing) whether delta also clears the analytic threshold
delta <= 1 / (48 M0 Mz (1 + 1/gb)^2) built from the coefficient sup M0 and
the background size Mz.

The converged pair is completed by the xi transport (_solve_xi).  Its
sources F_psi, F_psib depend on the pair alone, so the pair is integrated
once; only the xi source and the xi solve repeat until xi settles.

The order of the two stages matters for the *rate*, not the limit: stage 2
feeding on the fresh psi is what makes the composition contract on a
single application for small data.  Running the stages reversed (psib
first, then psi from the stale pair) keeps the same fixed point but
degrades the measured ratios; picard_apply exposes order="reversed" so the
effect can be demonstrated.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .background import WaveProfile
from .dn_core import rhs_wave
from .errors import FixedPointDivergence
from .grid import (DNGrid, abs_max, cumsum_cols, cumtrap_cols, cumtrap_rows,
                   decay_sup, jet_sup, row_blocks)
from .nonlinearity import Nonlinearity, range_certificate
from .state import FIELD_NAMES, DiagonalData, DNState

__all__ = [
    "PicardConfig",
    "picard_apply",
    "picard_metric",
    "in_ball",
    "delta_from_smallness",
    "contraction_ratio",
    "picard_fixed_point",
]

# M0 certificates are taken over the default admissible sigma range.
DEFAULT_M0_RANGE = 0.5


@dataclass(frozen=True)
class PicardConfig:
    """Iteration control: ball radius, step budget, stopping tolerance."""

    delta: float
    max_iter: int = 40
    tol: float = 1e-12

    def __post_init__(self):
        if not self.delta > 0.0:
            raise ValueError("delta must be positive")
        if not self.tol > 0.0:
            raise ValueError("tol must be positive")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")


def picard_metric(a: DNState, b: DNState, gamma_bar: float = 1.0) -> float:
    """Weighted sup distance between two iterates (psi/psib jets only).

    grid.jet_sup of the difference of each jet, formed one row block at a
    time, and the larger of the two by np.max, so a NaN in any of the six
    arrays of either iterate gives NaN.
    """
    a.grid.require_same(b.grid)
    return float(np.max([jet_sup(a.grid, *a.jet(name), gamma_bar, b.jet(name))
                         for name in ("psi", "psib")]))


def in_ball(state: DNState, delta: float, gamma_bar: float = 1.0) -> bool:
    """Whether the psi/psib jets satisfy the X_delta envelope bounds."""
    g = state.grid
    return bool(jet_sup(g, *state.jet("psi"), gamma_bar) <= delta * delta
                and jet_sup(g, *state.jet("psib"), gamma_bar) <= delta)


def _smallness(eps0, gamma_bar):
    """6 (1 + 1/gamma_bar) eps0: the least delta^2 the data size eps0 allows."""
    return 6.0 * (1.0 + 1.0 / gamma_bar) * eps0


def delta_from_smallness(eps0: float, gamma_bar: float) -> float:
    """Smallest ball radius compatible with the data-size relation.

    The relation 6 (1 + 1/gamma_bar) eps0 <= delta^2 ties the measured data
    size to the radius the iteration is run in.  The returned value carries
    a one-part-in-1e12 headroom so the inequality also holds after the
    round trip through floating point squaring.
    """
    if eps0 < 0.0:
        raise ValueError("eps0 must be nonnegative")
    if gamma_bar <= 0.0:
        raise ValueError("gamma_bar must be positive")
    return float(np.sqrt(_smallness(eps0, gamma_bar)) * (1.0 + 1e-12))


def _frozen_solve(grid, data, sources):
    """Closed-form linear wave solves with fully prescribed sources.

    sources maps each field to integrate ("psi", "psib" or "xi") to its
    source F = d_u d_ub field, filled at every node (the diagonal
    included).  Returns the field and its two null derivatives for each
    entry, keyed as in DNState, on both triangles at once.  The result
    satisfies the march's per-cell equations (see dn_core) to rounding:

      * d_u field and d_ub field are trapezoid integrals of F along ubar
        and along u, anchored on the diagonal data;
      * the field comes from its own d_u: field[a+1] - field[a] is the
        trapezoid h/2 (d_u field[a] + d_u field[a+1]) down each column,
        pinned where row a is on the past first front (one-leg rule) and
        row a+1 on the diagonal, and summing those steps along u from the
        diagonal gives the field.  Along ubar a step changes by h^2/4
        times the four-corner sum of F of the cell between, so in exact
        arithmetic every cell's mixed difference is the march's.  On the
        strip of cells straddling the diagonal the march takes both
        first-front corners from the averaged one-leg rule instead, but
        with the two transports substituted that rule gives the same
        four-corner sum.

    Every full-grid pass runs in row blocks (grid.row_blocks), so its
    temporaries stay block-sized and the outputs are the only full-size
    arrays, all C-ordered.  d_u field is row-local.  d_ub field and the
    field are sums down the columns (grid.cumsum_cols), carried row by row
    in the sequential order of one cumulative sum, with the per-column
    anchors on the diagonal (row N - j of column j) subtracted in a
    second pass once the sweep has passed them all.  The past first front
    reads d_ub field at (a, N-1-a), whose anchor is row a+1, a row ahead
    of it; so the one-leg values are formed after d_ub field is complete,
    before the field's sweep starts.  The outputs are bitwise independent
    of the block size.

    Such a solve cannot fail.
    """
    half = 0.5 * grid.h
    ii, jd = grid.diagonal()
    lo = ii[:-1]
    out = {}
    for name, F in sources.items():
        f_d = getattr(data, name)
        du_d = getattr(data, f"d{name}_u")
        dub_d = getattr(data, f"d{name}_ub")
        du = cumtrap_rows(F, grid.h, jd, du_d)
        dub = cumtrap_cols(F, grid.h, jd, dub_d[::-1])

        # one-leg rule on the past first front, node (i, N-1-i)
        past = 0.5 * (f_d[:-1] - half * (dub_d[:-1] + dub[lo, jd[:-1] - 1])) \
            + 0.5 * (f_d[1:] - half * (du_d[1:] + du[lo, jd[:-1] - 1]))

        def steps(r):
            # step[a] = field[a+1] - field[a] for the rows a in r: the
            # trapezoid of d_u field from row a to row a+1, pinned in
            # column N-1-a, where row a is on the past first front and row
            # a+1 on the diagonal
            step = du[r] + du[r.start + 1:r.stop + 1]
            step *= half
            a = lo[r]
            step += (f_d[a + 1] - past[r] - step[a - r.start, jd[a + 1]])[:, None]
            return step

        field = cumsum_cols(steps, F.shape, jd, f_d[::-1])
        out[name] = field
        out[f"d{name}_u"] = du
        out[f"d{name}_ub"] = dub
    return out


def picard_apply(
    state: DNState,
    data: DiagonalData,
    grid: DNGrid,
    model: Nonlinearity,
    profile: WaveProfile,
    order: str = "forward",
) -> DNState:
    """One application of the two-stage substitution map to (psi, psib).

    order="forward" solves psi from the current pair and then psib from
    the fresh psi; order="reversed" swaps the stages (psib from the
    current pair, then psi from the stale psi and fresh psib).  Both
    orders share the same fixed point; the forward order is the one that
    contracts at the advertised rate.  xi and its derivatives pass
    through unchanged, as the input's own (read-only) arrays.

    Errors: as dn_core.march -- GridMismatch for data on a different
    grid, HyperbolicityLoss if the current iterate's slaved sigma leaves
    the admissible range while the sources are formed.
    """
    grid.require_same(state.grid)
    grid.require_nodes(data.s, "diagonal data")
    if order not in ("forward", "reversed"):
        raise ValueError(f"order must be 'forward' or 'reversed', got {order!r}")

    zp = np.ascontiguousarray(profile.dzeta(grid.ub), dtype=float)
    zpp = np.ascontiguousarray(profile.d2zeta(grid.ub), dtype=float)

    def stage_psi(psib_src, dpsib_u_src, dpsib_ub_src):
        # Source for psi, every ingredient taken from the supplied jets.
        f1 = rhs_wave(
            model, zp, zpp, state.psi, psib_src,
            state.dpsi_u, state.dpsi_ub, dpsib_u_src, dpsib_ub_src,
            state.dxi_u, state.dxi_ub, sources=("psi",),
        )[0]
        return _frozen_solve(grid, data, {"psi": f1})

    def stage_psib(psi_src, dpsi_u_src, dpsi_ub_src):
        # Source for psib: sigma mixes the supplied psi with the current
        # psib, while the differentiated psib jets stay at the current
        # iterate -- the substitution is linear in the unknown stage.
        f2 = rhs_wave(
            model, zp, zpp, psi_src, state.psib,
            dpsi_u_src, dpsi_ub_src, state.dpsib_u, state.dpsib_ub,
            state.dxi_u, state.dxi_ub, sources=("psib",),
        )[0]
        return _frozen_solve(grid, data, {"psib": f2})

    if order == "forward":
        fields = stage_psi(state.psib, state.dpsib_u, state.dpsib_ub)
        fields.update(stage_psib(fields["psi"], fields["dpsi_u"], fields["dpsi_ub"]))
    else:
        fields = stage_psib(state.psi, state.dpsi_u, state.dpsi_ub)
        fields.update(stage_psi(fields["psib"], fields["dpsib_u"], fields["dpsib_ub"]))

    out = DNState(grid, xi=state.xi, dxi_u=state.dxi_u, dxi_ub=state.dxi_ub,
                  **fields)
    return out.freeze()


def _solve_xi(pair, data, grid, model, profile, tol, max_iter):
    """Complete a converged (psi, psib) pair with the slaved xi transport.

    The xi equation is linear in xi for a fixed pair, but its source
    contains the xi derivatives themselves, so it gets its own frozen
    substitution loop.  For models with H' = 0 the source vanishes and a
    single pass is exact.  Returns a full state whose psi/psib fields are
    re-integrated from their sources.  Those sources depend on the pair
    alone, so the first pass forms all three and integrates psi and psib
    once; every later pass forms and solves the xi source only.
    """
    zp = np.ascontiguousarray(profile.dzeta(grid.ub), dtype=float)
    zpp = np.ascontiguousarray(profile.d2zeta(grid.ub), dtype=float)
    jets = (pair.psi, pair.psib,
            pair.dpsi_u, pair.dpsi_ub, pair.dpsib_u, pair.dpsib_ub)
    f1, f2, f3 = rhs_wave(model, zp, zpp, *jets, pair.dxi_u, pair.dxi_ub)
    fields = _frozen_solve(grid, data, {"psi": f1, "psib": f2})
    del f1, f2
    cur = {"xi": pair.xi, "dxi_u": pair.dxi_u, "dxi_ub": pair.dxi_ub}
    for n in range(max_iter):
        if n:
            f3 = rhs_wave(model, zp, zpp, *jets, cur["dxi_u"], cur["dxi_ub"],
                          sources=("xi",))[0]
        new = _frozen_solve(grid, data, {"xi": f3})
        del f3
        gap = np.max([abs_max(new[k], cur[k]) for k in cur])
        cur = new
        if gap <= tol:
            return DNState(grid, **fields, **cur).freeze()
    raise FixedPointDivergence(
        f"xi completion stalled above tol={tol:g} after {max_iter} passes"
    )


def picard_fixed_point(
    data: DiagonalData,
    grid: DNGrid,
    model: Nonlinearity,
    profile: WaveProfile,
    cfg: PicardConfig,
    order: str = "forward",
):
    """Iterate the substitution map from zero until the metric stalls.

    Returns (state, info) where info carries the iteration count and the
    per-step metric residuals.  The converged pair is always completed by
    the xi transport, so the result is comparable field by field with
    dn_core.march.  Raises FixedPointDivergence if cfg.max_iter
    steps do not reach cfg.tol, or if the xi completion stalls.
    """
    zero = np.zeros((grid.n_nodes, grid.n_nodes))  # read-only, shared
    cur = DNState(grid, *[zero] * len(FIELD_NAMES)).freeze()
    residuals = []
    for step in range(cfg.max_iter):
        new = picard_apply(cur, data, grid, model, profile, order)
        dist = picard_metric(new, cur, data.gamma_bar)
        residuals.append(float(dist))
        cur = new
        if dist <= cfg.tol:
            info = {
                "iterations": step + 1,
                "residuals": residuals,
                "order": order,
                "converged": True,
            }
            cur = _solve_xi(
                cur, data, grid, model, profile, cfg.tol, cfg.max_iter
            )
            return cur, info
    raise FixedPointDivergence(
        f"no fixed point below tol={cfg.tol:g} within {cfg.max_iter} steps "
        f"(last residual {residuals[-1]:.3e})"
    )


def _separable_jet_sup(grid, a, da, b, db, gamma_bar, scale=1.0):
    """jet_sup of the field a (x) b with d_u a' (x) b and d_ub a (x) b',
    each scaled by scale >= 0 after the product.

    Taken from the 1-D factors without forming the fields: |fl(a_i b_j)|
    is fl(|a_i| |b_j|), and rounding is monotone, so its max over j is
    fl(|a_i| max|b|), and over both is fl(max|a| max|b|); scaling after
    the product keeps the order, so the sup of the scaled field is
    fl(fl(max|a| max|b|) scale).  The same holds for each derivative
    before it is weighted, so this equals jet_sup of the formed fields bit
    for bit.
    """
    A, B = np.max(np.abs(a)), np.max(np.abs(b))
    return float(np.max([(A * B) * scale,
                         decay_sup((np.abs(da) * B) * scale, grid.u, gamma_bar),
                         decay_sup((A * np.abs(db)) * scale, grid.ub,
                                   gamma_bar)]))


def _seed_state(grid, delta, gamma_bar, rng):
    """A smooth random iterate placed strictly inside X_delta.

    Each of psi and psib is a separable Gaussian bump with closed-form
    derivatives, rescaled as a group (field and both derivatives by the
    same factor) so the tightest of its three envelope bounds sits at 0.8
    of the ball boundary.  The scale is found from the bump's 1-D factors
    (_separable_jet_sup), and each field is formed and scaled one row
    block at a time, in one pass; xi and its derivatives share one
    read-only zero view.  Returns the state and in_ball of it, read off
    the same factors with the scale applied last (bit for bit in_ball of
    the formed fields, without a pass over them).
    """
    n = grid.n_nodes

    def bump(bound):
        """A bump jet rescaled so that its jet_sup is bound, and that
        jet_sup as formed."""
        mu_u, mu_b = rng.uniform(-0.5, 0.5, size=2) * grid.u_max
        w_u, w_b = rng.uniform(0.35, 0.9, size=2) * (grid.u_max + 1.0)
        sign = rng.choice((-1.0, 1.0))
        gu = np.exp(-(((grid.u - mu_u) / w_u) ** 2))
        gb = np.exp(-(((grid.ub - mu_b) / w_b) ** 2))
        dgu = -2.0 * (grid.u - mu_u) / w_u**2 * gu
        dgb = -2.0 * (grid.ub - mu_b) / w_b**2 * gb
        a, da = sign * gu, sign * dgu
        cap = bound / _separable_jet_sup(grid, a, da, gb, dgb, gamma_bar)
        jet = tuple(np.empty((n, n)) for _ in range(3))
        for x, y, out in zip((a, da, a), (gb, gb, dgb), jet):
            for blk in row_blocks(n, n):
                o = out[blk]
                np.multiply(x[blk, None], y, out=o)
                o *= cap
        return jet, _separable_jet_sup(grid, a, da, gb, dgb, gamma_bar, cap)

    (psi, dpsi_u, dpsi_ub), psi_size = bump(0.8 * delta * delta)
    (psib, dpsib_u, dpsib_ub), psib_size = bump(0.8 * delta)

    zeros = np.broadcast_to(0.0, psi.shape)  # the three xi jets share it
    state = DNState(grid, psi, psib, zeros,
                    dpsi_u, dpsi_ub, dpsib_u, dpsib_ub, zeros, zeros)
    return state.freeze(), psi_size <= delta * delta and psib_size <= delta


def contraction_ratio(
    grid: DNGrid,
    data: DiagonalData,
    profile: WaveProfile,
    model: Nonlinearity,
    cfg: PicardConfig,
    order: str = "forward",
    n_seeds: int = 6,
    seed: int = 0,
) -> dict:
    """Empirical Lipschitz ratios of one map application inside X_delta.

    Draws n_seeds random iterates in the ball, applies the map once to
    each, and reports the ratio d(T a, T b) / d(a, b) for each pair of
    consecutive seeds.  in_ball records whether every seed and every
    image stayed inside X_delta.  The seeds are streamed: one consecutive
    pair of seeds and one of images is held at a time, so the memory does
    not grow with n_seeds.  The map draws no random numbers, so the ratios
    equal those of drawing every seed first.  The smallness entries report
    (without enforcing) the two analytic side conditions: the data-size
    relation 6 (1 + 1/gb) eps0 <= delta^2 and the radius threshold
    delta <= 1 / (48 M0 Mz (1 + 1/gb)^2).
    """
    if n_seeds < 2:
        raise ValueError("need at least two seeds to form a ratio")
    gb = data.gamma_bar
    rng = np.random.default_rng(seed)

    ratios = []
    inside = True
    a_prev = ta_prev = None
    # Each predecessor is dropped as soon as its distance is taken, before
    # the next large allocation, so its freed blocks can be reused.
    for _ in range(n_seeds):
        a, a_inside = _seed_state(grid, cfg.delta, gb, rng)
        inside = inside and a_inside
        if a_prev is not None:
            den = picard_metric(a_prev, a, gb)
        a_prev = a
        ta = picard_apply(a, data, grid, model, profile, order)
        inside = inside and in_ball(ta, cfg.delta, gb)
        if ta_prev is not None:
            num = picard_metric(ta_prev, ta, gb)
            ratios.append(float(num / den) if den > 0.0 else 0.0)
        ta_prev = ta

    m0 = range_certificate(model, DEFAULT_M0_RANGE)["M0"]
    bound = 1.0 / (48.0 * m0 * profile.M_zeta * (1.0 + 1.0 / gb) ** 2) if (
        m0 > 0.0 and profile.M_zeta > 0.0
    ) else np.inf
    return {
        "ratios": ratios,
        "in_ball": bool(inside),
        "delta": float(cfg.delta),
        "order": order,
        "smallness": {
            "data_ok": bool(_smallness(data.eps0, gb) <= cfg.delta**2),
            "delta_ok": bool(cfg.delta <= bound),
            "delta_bound": float(bound),
        },
    }
