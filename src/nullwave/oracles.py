"""Independent cross-check implementations for the frozen test constants.

Everything in this module recomputes quantities the solvers also produce,
but by a different route: symbolic differentiation and matrix inversion
instead of the closed-form coefficient algebra, polynomial root finding
instead of the quadratic formula, closed forms instead of grid
quadrature.  The test suite freezes the numbers these functions return;
`nullwave oracle` regenerates the tables so drift is visible.

sympy is imported lazily so the solver path never needs it.
"""

from __future__ import annotations

import math

import numpy as np


# ---------------------------------------------------------------------------
# symbolic coefficient algebra
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


# ---------------------------------------------------------------------------
# envelopes and phase function
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


def background_frame_exact(H0: float, zp: float) -> dict:
    """Background frame straight from its closed form."""
    return {
        "L": (-1.0 - H0 * zp**2, 1.0 - H0 * zp**2),
        "Lb": (-1.0, -1.0),
        "Omega": -0.5,
    }


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
