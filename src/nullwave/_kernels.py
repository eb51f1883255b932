"""Hot kernels of the double-null march.

The march fills the square grid from the t=0 anti-diagonal with a cell-by-
cell characteristic scheme.  At a node P with known u-predecessor W, ubar-
predecessor S and across-corner D, the mixed derivative F = d_u d_ub(field)
given by the semilinear system is integrated with

    d_ub field (P) = d_ub field (W) + h/2 (F_W + F_P)       (u transport)
    d_u  field (P) = d_u  field (S) + h/2 (F_S + F_P)       (ubar transport)
    field (P)      = field(W) + field(S) - field(D)
                     + h^2/4 (F_P + F_W + F_S + F_D)        (cell integral)

(all signs flip on the backward sweep into the past triangle).  On the first
front off the diagonal the across-corner D is not available and the value is
taken as the average of the two one-leg trapezoid integrations instead.

The fronts i + j = N +- m come from DNGrid.fronts, the helper that the frame
transport (geometry.integrate_frame) walks as well, and both sweeps hold a
set of cells as one (field, component, cell) array.  F_P depends on the
unknowns at P, so each front runs a small fixed-point loop vectorized over
its cells and fields, with the predecessor values gathered once per front:
plain iterations until every cell's update is within CELL_TOL of its size
(N_PLAIN caps them), then a damped retry from the predictor for any cell
that has not converged (N_DAMPED caps that).  The sweep fills a DNState in
place and raises the named errors itself, at the first failing node of the
front: HyperbolicityLoss where sigma leaves the model's admissible range,
InnerFixedPointDivergence where a cell is still unconverged after the retry.

The linear solves of the global iteration (picard._frozen_solve) satisfy the
same per-cell equations with F known on every node, which makes them closed
form: cumulative trapezoids of F for the derivatives and cumulative sums of
the four-corner mixed differences for the field, with no front sweep.  They
run in L2-sized row blocks.  The sums along ubar are row-local; the sums
along u carry each column's running total into the next block's first
increment row, and subtract their anchors on the diagonal in a second
pass.  The past first front's one-leg values read d_ub at (a, N-1-a),
whose anchor is row a+1, one row ahead; they are formed once d_ub is
complete, before the field's own sweep.

The right side of the system, with zp = zeta'(ubar), zpp = zeta''(ubar):

    sigma   = -psi (2 zp + psib)
    s_u     = -psi_u (2 zp + psib) - psi psib_u
    s_ub    = -psi_ub (2 zp + psib) - psi (2 zpp + psib_ub)
    F_psi   = -G/2 (s_u psi_ub + psi_u s_ub)
    F_psib  = -G s_u zpp - G/2 (s_u psib_ub + psib_u s_ub)
    F_xi    = -c (s_u xi_ub + xi_u s_ub + zp s_u),   c = sigma kappa H'/4
"""

import numpy as np

from .errors import HyperbolicityLoss, InnerFixedPointDivergence
from .nonlinearity import G_of, Hp_of, coeff_arrays
from .state import dsigma_u_of, dsigma_ub_of, sigma_of

N_PLAIN = 8
N_DAMPED = 8
CELL_TOL = 1e-12


SOURCES = ("psi", "psib", "xi")


def _rhs_arrays(model, zp, zpp, psi, psib, psi_u, psi_ub, psib_u, psib_ub,
                xi_u, xi_ub, sources=SOURCES):
    """(okm, sigma, *F) with okm the admissible mask of coeff_arrays.

    sources selects which of F_psi, F_psib, F_xi are formed; they are
    returned in that fixed order, whatever the order of the selector.  Each
    selected source is evaluated by the same expression whatever else is
    selected, so a partial selection is bitwise a slice of the full one.
    The coefficients are formed on demand: G only for the psi and psib
    sources, H' only for the xi source.
    """
    sig = sigma_of(psi, psib, zp)
    s_u = dsigma_u_of(psi, psib, psi_u, psib_u, zp)
    s_ub = dsigma_ub_of(psi, psib, psi_ub, psib_ub, zp, zpp)
    okm, s, fp, fpp, kappa, k = coeff_arrays(model, sig)
    out = [okm, sig]
    if "psi" in sources or "psib" in sources:
        G = G_of(s, fp, fpp, k)
    if "psi" in sources:
        out.append(-0.5 * G * (s_u * psi_ub + psi_u * s_ub))
    if "psib" in sources:
        out.append(-G * s_u * zpp - 0.5 * G * (s_u * psib_ub + psib_u * s_ub))
    if "xi" in sources:
        Hp = Hp_of(fp, fpp, k)
        out.append(-(0.25 * sig * kappa * Hp) * (s_u * xi_ub + xi_u * s_ub + zp * s_u))
    return tuple(out)


def _where(grid, i, j):
    return f"node (u={grid.u[i]:.6g}, ubar={grid.ub[j]:.6g})"


def _require_admissible(okm, grid, ii, jj):
    """Raise HyperbolicityLoss at the first node (ii, jj) outside okm."""
    if not np.all(okm):
        bad = int(np.argmin(okm))
        raise HyperbolicityLoss(
            "sigma left the admissible range (domain wall or kappa <= 0) at "
            + _where(grid, ii[bad], jj[bad])
        )


def _march_numpy(grid, direction, model, zp, zpp, state, FP, FB, FX):
    """Sweep one time direction front by front, filling state in place.

    direction = +1 fills the future triangle i+j > N, -1 the past one.
    FP, FB, FX receive the sources F_psi, F_psib, F_xi at every node filled.
    The unknowns of a set of cells are held as one (3, 3, cells) array:
    field (psi, psib, xi) by component (value, d_u, d_ub).
    """
    h, d = grid.h, direction
    hh = 0.5 * h * d
    qq = 0.25 * h * h
    fields = [
        (getattr(state, name), getattr(state, f"d{name}_u"),
         getattr(state, f"d{name}_ub"), F)
        for name, F in (("psi", FP), ("psib", FB), ("xi", FX))
    ]

    def rhs(j, U):
        (p, pu, pub), (b, bu, bub), (_, xu, xub) = U
        return _rhs_arrays(model, zp[j], zpp[j], p, b, pu, pub, bu, bub, xu, xub)

    def store(here, U):
        okm, _, *sources = rhs(here[1], U)
        _require_admissible(okm, grid, *here)
        for (V, VU, VUB, F), (v, vu, vub), f in zip(fields, U, sources):
            V[here], VU[here], VUB[here], F[here] = v, vu, vub, f

    def gather(at):
        """(V, VU, VUB, F) at the nodes at, each a (field, cell) array."""
        return np.array([[A[at] for A in fld] for fld in fields]).swapaxes(0, 1)

    here = grid.diagonal()
    store(here, np.array([(V[here], VU[here], VUB[here])
                          for V, VU, VUB, _ in fields]))

    for m, (ii, jj) in enumerate(grid.fronts(d), 1):
        iw = ii - d
        js = jj - d
        first = m == 1

        def solve_subset(sel, damp, n_it):
            """At most n_it fixed-point iterations for the selected cells.

            The loop stops once every selected cell's update is within
            CELL_TOL * scale.  The stop is front-wide: a cell that converged
            early keeps iterating until the slowest cell has, so its result
            depends on the subset it runs in, but only below that tolerance.
            The predecessor values do not change inside the loop, so they
            are gathered once.  Returns the unknowns and the mask of
            converged cells.
            """
            i, j = ii[sel], jj[sel]
            c = (iw[sel], js[sel])
            V_w, VU_w, VUB_w, F_w = gather((c[0], j))
            V_s, VU_s, VUB_s, F_s = gather((i, c[1]))
            V_c, _, _, F_c = gather(c)
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

        sol, good = solve_subset(np.ones(ii.shape, dtype=bool), 1.0, N_PLAIN)
        if not np.all(good):
            fail = ~good
            sol[:, :, fail], good[fail] = solve_subset(fail, 0.5, N_DAMPED)
            if not np.all(good):
                bad = int(np.argmin(good))
                raise InnerFixedPointDivergence(
                    "cell fixed point did not converge at "
                    f"{_where(grid, ii[bad], jj[bad])}; "
                    "reduce h or the data amplitude"
                )
        store((ii, jj), sol)
