"""Independent reference routes for the quantities the solvers produce.

No pipeline stage calls this module; the tests and `nullwave oracle` do.
Each function recomputes something a solver also produces, by a
different route:

* scalar tables: symbolic differentiation and matrix inversion instead
  of the closed-form coefficient algebra, polynomial root finding instead
  of the quadratic formula, closed forms instead of grid quadrature.  The
  test suite freezes the numbers they return; `nullwave oracle`
  regenerates the tables so drift is visible;
* array references, vectorized over their sample points: the metric's
  self-contraction identity, the background frame and slice gauge in
  closed form, the relabeling V(u) = u + Z(-u) by its own phase
  quadrature at -u, the frozen-coefficient model transport on a DNGrid
  (criterion 7) and the exact background on a rectangular history.

sympy is imported lazily so importing nullwave never needs it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .background import WaveProfile, phase_function
from .crossval import RectGrid, RectState
from .data_gauge import GaugeSlice
from .grid import DNGrid, cumtrap_rows
from .nonlinearity import Nonlinearity, acoustic_metric, eval_coeffs


# ---------------------------------------------------------------------------
# coefficient algebra and the acoustic metric
# ---------------------------------------------------------------------------

def _sym_model(name: str, params=()):
    import sympy as sp

    s = sp.Symbol("s", real=True)
    if name == "linear":
        f = sp.Integer(0)
    elif name == "membrane":
        f = -sp.Rational(1, 2) * sp.log(1 + s)
    elif name == "polynomial":
        a, b, c = (list(params) + [0, 0, 0])[:3]
        f = a * s + b * s**2 + c * s**3
    else:
        raise ValueError(f"no symbolic model {name!r}")
    return s, f


def coeffs_via_cas(model_name: str, sigma: float, params=()) -> dict:
    """f', f'', kappa, G, H, H' at sigma by symbolic differentiation."""
    import sympy as sp

    s, f = _sym_model(model_name, params)
    fp = sp.diff(f, s)
    fpp = sp.diff(f, s, 2)
    kappa = 1 + 2 * fp * s
    G = sp.diff(fp * s, s) / kappa + fp
    H = -2 * fp / kappa
    Hp = sp.diff(H, s)
    subs = {s: sp.Float(sigma, 30)}
    return {
        "fp": float(fp.subs(subs)),
        "fpp": float(fpp.subs(subs)),
        "kappa": float(kappa.subs(subs)),
        "G": float(G.subs(subs)),
        "H": float(H.subs(subs)),
        "Hp": float(Hp.subs(subs)),
    }


def metric_via_cas(model_name: str, Phi0: float, Phi1: float, params=()) -> dict:
    """Covariant metric at Phi by symbolically inverting the contravariant one.

    The contravariant form eta^{mn} + 2 f'(sigma)(eta Phi)^m (eta Phi)^n is
    assembled and inverted as a 2x2 matrix, which is an independent route to
    the closed covariant expression eta_{mn} + H Phi_m Phi_n.
    """
    import sympy as sp

    s, f = _sym_model(model_name, params)
    fp = sp.diff(f, s)
    sigma = -(Phi0**2) + Phi1**2
    fpv = fp.subs({s: sp.Float(sigma, 30)})
    eP0, eP1 = -Phi0, Phi1
    ginv = sp.Matrix(
        [
            [-1 + 2 * fpv * eP0 * eP0, 2 * fpv * eP0 * eP1],
            [2 * fpv * eP0 * eP1, 1 + 2 * fpv * eP1 * eP1],
        ]
    )
    g = ginv.inv()
    return {
        "sigma": float(sigma),
        "g00": float(g[0, 0]),
        "g01": float(g[0, 1]),
        "g11": float(g[1, 1]),
        "det_inv": float(ginv.det()),
        "det": float(g.det()),
        "contraction": float(
            (ginv * sp.Matrix([Phi0, Phi1])).dot(sp.Matrix([Phi0, Phi1]))
        ),
    }


def contraction_identity_check(model: Nonlinearity, Phi0, Phi1):
    """Residual of the closed-form self-contraction of dphi.

    g^{-1}(dphi, dphi) computed from acoustic_metric's components must
    equal sigma + 2 f'(sigma) sigma^2.  Returns (lhs, rhs, residual).
    """
    m = acoustic_metric(model, Phi0, Phi1)
    P0 = np.asarray(Phi0, dtype=float)
    P1 = np.asarray(Phi1, dtype=float)
    lhs = m.inv00 * P0 * P0 + 2.0 * m.inv01 * P0 * P1 + m.inv11 * P1 * P1
    fp = model.fp(m.sigma)
    rhs = m.sigma + 2.0 * fp * m.sigma**2
    return lhs, rhs, np.max(np.abs(np.asarray(lhs - rhs)))


# ---------------------------------------------------------------------------
# the background: envelopes, phase, frame, slice gauge, rectangular history
# ---------------------------------------------------------------------------

def envelope_integral_exact(eps: float, gamma: float) -> float:
    """Closed form of the whole-line envelope integral: 2 eps / gamma."""
    return 2.0 * eps / gamma


def gaussian_phase_values() -> dict:
    """Phase-function limits for zeta'(s) = exp(-s^2) on the membrane model.

    H(0) = 1, so Z(+inf) = -int_0^inf exp(-2 s^2) ds = -sqrt(pi/8), and the
    full-line total Z(+inf) - Z(-inf) = -sqrt(pi/2).
    """
    half = -math.sqrt(math.pi / 8.0)
    return {"from_zero": half, "full_line": 2.0 * half}


def background_frame_exact(H0: float, zp) -> dict:
    """Background frame straight from its closed form at zeta' = zp.

    zp may be a float or an array of zeta'(ubar) samples; L follows its
    shape, Lb and Omega are the constants.
    """
    return {
        "L": (-1.0 - H0 * zp**2, 1.0 - H0 * zp**2),
        "Lb": (-1.0, -1.0),
        "Omega": -0.5,
    }


def phase_relabel(profile: WaveProfile, model: Nonlinearity, u):
    """V(u) = u + Z(-u), the background-matched relabeling of the grid u,
    from a phase quadrature at -u (geometry reads it off Z(grid.ub))."""
    u = np.asarray(u, dtype=float)
    return u + phase_function(profile, model, -u)


def background_gauge_values(model: Nonlinearity, profile: WaveProfile, x) -> dict:
    """Closed-form slice-gauge values of the exact background at x.

    Far from any perturbation the solved gauge (data_gauge.build_gauge_slice)
    must match these regardless of the background's size.
    """
    x = np.asarray(x, dtype=float)
    p = np.asarray(profile.dzeta(-x), dtype=float)
    H0 = eval_coeffs(model, 0.0).H
    hp2 = H0 * (p * p)  # grouping matches the eikonal kernel bit for bit
    return {
        "du_t_grid": (1.0 - hp2) / (1.0 + hp2),
        "dub_t": np.ones_like(p),
        "v_prime": 1.0 + hp2,
        "du_t": 1.0 - hp2,
        "phi_tt": np.asarray(profile.d2zeta(-x), dtype=float),
        "L0": -1.0 - hp2,
        "L1": 1.0 - hp2,
        "Lb0": -np.ones_like(p),
        "Lb1": -np.ones_like(p),
    }


def background_rect_state(profile: WaveProfile, grid: RectGrid,
                          n_t: int = 32) -> RectState:
    """The exact travelling background phi = zeta(t - x) on a rectangular
    history of n_t + 1 equally spaced times in [0, grid.t_max]."""
    if n_t < 2:
        raise ValueError("need at least two time levels")
    t = np.linspace(0.0, grid.t_max, n_t + 1)
    arg = t[:, None] - grid.x[None, :]
    zp = np.asarray(profile.dzeta(arg), dtype=float)
    return RectState(t, grid.x, np.asarray(profile.zeta(arg), dtype=float),
                     zp, -zp)


# ---------------------------------------------------------------------------
# eikonal roots by polynomial root finding
# ---------------------------------------------------------------------------

def eikonal_roots_via_polynomial(fp: float, phit: float, phix: float) -> dict:
    """All real roots of both t=0 eikonal quadratics via numpy.roots.

    The quadratics (with the slice gauge d_x u = 1, d_x ubar = -1 in place)
    are X^2 - 2 fp (-X phit + phix)^2 = 1 for u and
    X^2 - 2 fp ( X phit + phix)^2 = 1 for ubar.
    """
    a = 1.0 - 2.0 * fp * phit**2

    def roots(sign):
        # sign = -1 for the u quadratic, +1 for the ubar one
        b = -2.0 * fp * 2.0 * sign * phit * phix
        c = -2.0 * fp * phix**2 - 1.0
        rr = np.roots([a, b, c])
        return sorted(float(r.real) for r in rr if abs(r.imag) < 1e-12)

    return {"u_roots": roots(-1.0), "ubar_roots": roots(+1.0)}


# ---------------------------------------------------------------------------
# reduced frame transport along outgoing rays
# ---------------------------------------------------------------------------

def reduced_transport_exact(w0: float, cbm: float, H0: float, zp1: float, zp0: float) -> float:
    """Exact solution of the decoupled deviation component d = l^0 - l^1.

    Along a ray of constant u the reduced system gives
    d' = -H0 zeta' zeta'' cbm (d - 2) with cbm = lb^0 - lb^1 frozen, so
    d(ubar) = 2 + (d0 - 2) exp(-H0 cbm (zeta'(ubar)^2 - zeta'(ubar0)^2)/2).
    """
    return 2.0 + (w0 - 2.0) * math.exp(-H0 * cbm * (zp1**2 - zp0**2) / 2.0)


@dataclass(frozen=True)
class ModelFrame:
    """Reduced-transport frame (background-matched normalization).

    Lbar is frozen to its diagonal value along each u-line; L solves the
    model ODE with background coefficients, closed form in w = 2 + L^0 - L^1
    and one trapezoid quadrature for y = L^0 + L^1.
    """

    grid: DNGrid
    L0: np.ndarray
    L1: np.ndarray
    Lb0: np.ndarray
    Lb1: np.ndarray


def solve_model_system(gauge: GaugeSlice, grid: DNGrid, model: Nonlinearity,
                       profile: WaveProfile) -> ModelFrame:
    """Solve the frozen-coefficient model transport per u-line.

    Keeping only the dominant background coefficient of the L-transport and
    freezing Lbar at its diagonal value gives, per row,

        d_ub (L^0 - L^1) = -H0 zeta' zeta'' (Lb^0 - Lb^1) (L^0 - L^1),
        d_ub (L^0 + L^1) = -H0 zeta' zeta'' (Lb^0 + Lb^1) (L^0 - L^1),

    an affine ODE solved exactly for w = 2 + (L^0 - L^1) (the shift makes
    the travelling wave the fixed point w = 0 of the deviation) and by
    trapezoid quadrature for y = L^0 + L^1.  Criterion 7 checks that the
    full transport (geometry.integrate_frame) is dominated by this term
    for small data.
    """
    grid.require_nodes(gauge.x, "gauge slice")
    n = grid.n_nodes
    H0 = float(eval_coeffs(model, 0.0).H)
    zp = np.asarray(profile.dzeta(grid.ub), dtype=float)
    zpp = np.asarray(profile.d2zeta(grid.ub), dtype=float)
    zsq_half = 0.5 * zp ** 2              # antiderivative of zeta' zeta''
    _, jd = grid.diagonal()

    cbm = gauge.Lb0 - gauge.Lb1           # per-row frozen Lbar combinations
    cbp = gauge.Lb0 + gauge.Lb1
    w0 = 2.0 + (gauge.L0 - gauge.L1)
    y0 = gauge.L0 + gauge.L1

    expo = (-H0) * cbm[:, None] * (zsq_half[None, :] - zsq_half[jd][:, None])
    w = 2.0 + (w0 - 2.0)[:, None] * np.exp(expo)

    integrand = ((-H0) * (zp * zpp))[None, :] * (w - 2.0) * cbp[:, None]
    y = cumtrap_rows(integrand, grid.h, jd, y0)

    L0 = 0.5 * (y + (w - 2.0))
    L1 = 0.5 * (y - (w - 2.0))
    Lb0 = np.broadcast_to(gauge.Lb0[:, None], (n, n)).copy()
    Lb1 = np.broadcast_to(gauge.Lb1[:, None], (n, n)).copy()
    return ModelFrame(grid, L0, L1, Lb0, Lb1)


# ---------------------------------------------------------------------------
# table regeneration for the CLI
# ---------------------------------------------------------------------------

def oracle_tables(which: str | None = None) -> dict:
    """Recompute every frozen oracle table (optionally a single one)."""
    tables = {}

    def want(name):
        return which is None or which == name

    if want("coeffs"):
        tables["coeffs"] = {
            "membrane@0.25": coeffs_via_cas("membrane", 0.25),
            "membrane@-0.08": coeffs_via_cas("membrane", -0.08),
            "polynomial[0.2]@0": coeffs_via_cas("polynomial", 0.0, (0.2,)),
        }
    if want("metric"):
        tables["metric"] = {
            "membrane@(0.3,0.1)": metric_via_cas("membrane", 0.3, 0.1),
        }
    if want("envelope"):
        tables["envelope"] = {
            "exact(1,1)": envelope_integral_exact(1.0, 1.0),
            "exact(0.1,0.5)": envelope_integral_exact(0.1, 0.5),
        }
    if want("phase"):
        tables["phase"] = gaussian_phase_values()
    if want("frame"):
        tables["frame"] = background_frame_exact(1.0, 0.5)
    if want("eikonal"):
        fp = -0.5 / (1.0 + 0.0)  # membrane f'(0)
        tables["eikonal"] = {
            "membrane-bg@zp=0.5": eikonal_roots_via_polynomial(fp, 0.5, -0.5),
            "linear@rest": eikonal_roots_via_polynomial(0.0, 0.0, 0.0),
        }
    if want("transport"):
        tables["transport"] = {
            "reduced@w0=1.9": reduced_transport_exact(1.9, -0.1, 1.0, 0.3, 0.5),
        }
    if not tables:
        raise ValueError(f"unknown oracle table {which!r}")
    return tables
