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
taken as the average of the two one-leg trapezoid integrations instead.  F_P
depends on the unknowns at P, so each front runs a small fixed-point loop
vectorized over its cells: plain iterations until every cell's update is
within CELL_TOL of its size (N_PLAIN caps them), then a damped retry from the
predictor for any cell that has not converged (N_DAMPED caps that).

The linear solves of the global iteration (picard._frozen_solve) satisfy the
same per-cell equations with F known on every node, which makes them closed
form: cumulative trapezoids of F for the derivatives and cumulative sums of
the four-corner mixed differences for the field, with no front sweep.

The right side of the system, with zp = zeta'(ubar), zpp = zeta''(ubar):

    sigma   = -psi (2 zp + psib)
    s_u     = -psi_u (2 zp + psib) - psi psib_u
    s_ub    = -psi_ub (2 zp + psib) - psi (2 zpp + psib_ub)
    F_psi   = -G/2 (s_u psi_ub + psi_u s_ub)
    F_psib  = -G s_u zpp - G/2 (s_u psib_ub + psib_u s_ub)
    F_xi    = -c (s_u xi_ub + xi_u s_ub + zp s_u),   c = sigma kappa H'/4
"""

import numpy as np

from .nonlinearity import (
    KERNEL_LINEAR,
    KERNEL_MEMBRANE,
    KERNEL_POLYNOMIAL,
)

N_PLAIN = 8
N_DAMPED = 8
CELL_TOL = 1e-12
STATUS_OK = 0
STATUS_INNER_DIVERGENCE = 1
STATUS_BAD_SIGMA = 2


def _coeffs_arrays(model, s):
    """(ok_mask, G, c_xi) on an array of sigma, custom models included."""
    s = np.asarray(s, dtype=float)
    if model.kernel_code == KERNEL_LINEAR:
        z = np.zeros_like(s)
        return np.ones(s.shape, dtype=bool), z, z
    if model.kernel_code == KERNEL_MEMBRANE:
        okm = s > -1.0
        safe = np.where(okm, s, 0.0)
        fp = -0.5 / (1.0 + safe)
        fpp = 0.5 / ((1.0 + safe) * (1.0 + safe))
    elif model.kernel_code == KERNEL_POLYNOMIAL:
        pa, pb, pc = model.kernel_params
        okm = np.ones(s.shape, dtype=bool)
        fp = pa + 2.0 * pb * s + 3.0 * pc * s * s
        fpp = 2.0 * pb + 6.0 * pc * s
    else:
        okm = (s > model.sigma_min) & (s < model.sigma_max)
        if np.isfinite(model.sigma_min) and np.isfinite(model.sigma_max):
            fallback = 0.5 * (model.sigma_min + model.sigma_max)
        elif np.isfinite(model.sigma_min):
            fallback = model.sigma_min + 1.0
        elif np.isfinite(model.sigma_max):
            fallback = model.sigma_max - 1.0
        else:
            fallback = 0.0
        safe = np.where(okm, s, fallback)
        fp = np.asarray(model.fp(safe), dtype=float)
        fpp = np.asarray(model.fpp(safe), dtype=float)
    kap = 1.0 + 2.0 * fp * s
    okm = okm & (kap > 0.0)
    kap_safe = np.where(okm, kap, 1.0)
    G = (fpp * s + fp) / kap_safe + fp
    Hp = -2.0 * (fpp - 2.0 * fp * fp) / (kap_safe * kap_safe)
    return okm, G, 0.25 * s * kap_safe * Hp


def _rhs_arrays(model, zp, zpp, psi, psib, psi_u, psi_ub, psib_u, psib_ub, xi_u, xi_ub):
    sig = -psi * (2.0 * zp + psib)
    okm, G, cxi = _coeffs_arrays(model, sig)
    s_u = -psi_u * (2.0 * zp + psib) - psi * psib_u
    s_ub = -psi_ub * (2.0 * zp + psib) - psi * (2.0 * zpp + psib_ub)
    f_psi = -0.5 * G * (s_u * psi_ub + psi_u * s_ub)
    f_psib = -G * s_u * zpp - 0.5 * G * (s_u * psib_ub + psib_u * s_ub)
    f_xi = -cxi * (s_u * xi_ub + xi_u * s_ub + zp * s_u)
    return okm, sig, f_psi, f_psib, f_xi


def _march_numpy(h, N, direction, model, zp, zpp,
                 P, B, X, S, PU, PUB, BU, BUB, XU, XUB, FP, FB, FX):
    """Sweep one time direction front by front; returns (status, bad_i, bad_j).

    direction = +1 fills the future triangle i+j > N, -1 the past one.
    """
    d = direction
    hh = 0.5 * h * d
    qq = 0.25 * h * h
    diag = np.arange(N + 1)

    jd = N - diag
    okm, sig, f1, f2, f3 = _rhs_arrays(
        model, zp[jd], zpp[jd],
        P[diag, jd], B[diag, jd], PU[diag, jd], PUB[diag, jd],
        BU[diag, jd], BUB[diag, jd], XU[diag, jd], XUB[diag, jd],
    )
    if not np.all(okm):
        bad = int(np.argmin(okm))
        return STATUS_BAD_SIGMA, bad, N - bad
    S[diag, jd] = sig
    FP[diag, jd] = f1
    FB[diag, jd] = f2
    FX[diag, jd] = f3

    for m in range(1, N + 1):
        k = N + d * m
        i_lo = k - N if k > N else 0
        i_hi = N if k > N else k
        first = m == 1
        ii = np.arange(i_lo, i_hi + 1)
        jj = k - ii
        iw = ii - d
        js = jj - d

        here = (ii, jj)

        def solve_subset(sel, damp, n_it):
            """At most n_it fixed-point iterations for the selected cells.

            The loop stops once every selected cell's update is within
            CELL_TOL * scale.  The stop is front-wide: a cell that converged
            early keeps iterating until the slowest cell has, so its result
            depends on the subset it runs in, but only below that tolerance.
            """
            wS = (iw[sel], jj[sel])
            sS = (ii[sel], js[sel])
            dS = (iw[sel], js[sel])
            jjS = jj[sel]
            p = P[wS] + P[sS] - P[dS]
            b = B[wS] + B[sS] - B[dS]
            x = X[wS] + X[sS] - X[dS]
            pu = PU[sS].copy()
            pub = PUB[wS].copy()
            bu = BU[sS].copy()
            bub = BUB[wS].copy()
            xu = XU[sS].copy()
            xub = XUB[wS].copy()
            good = np.zeros(p.shape, dtype=bool)
            for _ in range(n_it):
                okm, sig, f1, f2, f3 = _rhs_arrays(
                    model, zp[jjS], zpp[jjS], p, b, pu, pub, bu, bub, xu, xub,
                )
                if not np.all(okm):
                    return None, int(np.argmin(okm))
                n_pub = PUB[wS] + hh * (FP[wS] + f1)
                n_pu = PU[sS] + hh * (FP[sS] + f1)
                n_bub = BUB[wS] + hh * (FB[wS] + f2)
                n_bu = BU[sS] + hh * (FB[sS] + f2)
                n_xub = XUB[wS] + hh * (FX[wS] + f3)
                n_xu = XU[sS] + hh * (FX[sS] + f3)
                if first:
                    n_p = 0.5 * (P[sS] + hh * (PUB[sS] + n_pub)) + 0.5 * (P[wS] + hh * (PU[wS] + n_pu))
                    n_b = 0.5 * (B[sS] + hh * (BUB[sS] + n_bub)) + 0.5 * (B[wS] + hh * (BU[wS] + n_bu))
                    n_x = 0.5 * (X[sS] + hh * (XUB[sS] + n_xub)) + 0.5 * (X[wS] + hh * (XU[wS] + n_xu))
                else:
                    n_p = P[wS] + P[sS] - P[dS] + qq * (f1 + FP[wS] + FP[sS] + FP[dS])
                    n_b = B[wS] + B[sS] - B[dS] + qq * (f2 + FB[wS] + FB[sS] + FB[dS])
                    n_x = X[wS] + X[sS] - X[dS] + qq * (f3 + FX[wS] + FX[sS] + FX[dS])
                if damp != 1.0:
                    n_p = p + damp * (n_p - p)
                    n_b = b + damp * (n_b - b)
                    n_x = x + damp * (n_x - x)
                    n_pu = pu + damp * (n_pu - pu)
                    n_pub = pub + damp * (n_pub - pub)
                    n_bu = bu + damp * (n_bu - bu)
                    n_bub = bub + damp * (n_bub - bub)
                    n_xu = xu + damp * (n_xu - xu)
                    n_xub = xub + damp * (n_xub - xub)
                change = np.abs(n_p - p)
                for new, old in (
                    (n_b, b), (n_x, x), (n_pu, pu), (n_pub, pub),
                    (n_bu, bu), (n_bub, bub), (n_xu, xu), (n_xub, xub),
                ):
                    np.maximum(change, np.abs(new - old), out=change)
                p, b, x = n_p, n_b, n_x
                pu, pub, bu, bub, xu, xub = n_pu, n_pub, n_bu, n_bub, n_xu, n_xub
                scale = 1.0 + np.maximum(np.abs(p), np.maximum(np.abs(b), np.abs(x)))
                good = change <= CELL_TOL * scale
                if np.all(good):
                    break
            return (p, b, x, pu, pub, bu, bub, xu, xub, good), -1

        full = np.ones(ii.shape, dtype=bool)
        res, bad = solve_subset(full, 1.0, N_PLAIN)
        if res is None:
            return STATUS_BAD_SIGMA, int(ii[bad]), int(jj[bad])
        sol = list(res[:9])
        good = res[9]
        if not np.all(good):
            fail = ~good
            res2, bad2 = solve_subset(fail, 0.5, N_DAMPED)
            if res2 is None:
                sub = np.flatnonzero(fail)[bad2]
                return STATUS_BAD_SIGMA, int(ii[sub]), int(jj[sub])
            for arr, fresh in zip(sol, res2[:9]):
                arr[fail] = fresh
            good = good.copy()
            good[fail] = res2[9]
            if not np.all(good):
                bad3 = int(np.argmin(good))
                return STATUS_INNER_DIVERGENCE, int(ii[bad3]), int(jj[bad3])
        p, b, x, pu, pub, bu, bub, xu, xub = sol
        okm, sig, f1, f2, f3 = _rhs_arrays(
            model, zp[jj], zpp[jj], p, b, pu, pub, bu, bub, xu, xub,
        )
        if not np.all(okm):
            bad = int(np.argmin(okm))
            return STATUS_BAD_SIGMA, int(ii[bad]), int(jj[bad])
        P[here], B[here], X[here] = p, b, x
        S[here] = sig
        PU[here], PUB[here] = pu, pub
        BU[here], BUB[here] = bu, bub
        XU[here], XUB[here] = xu, xub
        FP[here], FB[here], FX[here] = f1, f2, f3
    return STATUS_OK, -1, -1
