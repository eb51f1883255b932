"""t=0 data handling and the slice gauge of the double-null chart.

Initial data for the second-order equation is (phi0, phi1) = (phi, d_t phi)
at t=0, carried here as five callables: phi0 and two derivatives, phi1 and
one.  The double-null chart is anchored to the slice by

    u(0, x) = x,    ubar(0, x) = -x,

so d_x u = 1 and d_x ubar = -1 are fixed and the eikonal equation
g^{mn} du_m du_n = 0 reduces to one quadratic per covector for the time
components X = d_t u (resp. d_t ubar):

    u:    (1 - 2 f' phit^2) X^2 + 4 f' phit phix X - (1 + 2 f' phix^2) = 0
    ubar: (1 - 2 f' phit^2) X^2 - 4 f' phit phix X - (1 + 2 f' phix^2) = 0

with discriminant/4 = kappa, always real under hyperbolicity.  Which root
continues the background chart cannot be decided by a sign rule alone (for
strong backgrounds both ubar-roots can be positive), so the roots are
tracked by a short amplitude homotopy from the exact background state,
where the correct roots are known in closed form.

The grid coordinate u above is the t=0-anchored one.  Reported geometry
uses the background-matched relabeling V(u) = u + Z(-u); this module also
returns V'(x) and the frame vectors raised with the relabeled covector
component du_t = V'(x) * X_u, which geometry integration consumes.

The perturbation fields handed to the march are measured against the
travelling background: psi = Phi0 + Phi1, psib = Phi0 - Phi1 - 2 zeta'(-x),
xi = phi - zeta(-x), with d_t phi resolved from the slice equation

    phi_tt = -(2 g^01 phi1' + g^11 phi0'') / g^00     (indices up)

and (d_t, d_x) converted to (d_u, d_ub) through the slice-gauge jacobian.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .background import (SAMPLE_H, WaveProfile, algebraic_functions,
                         bump_functions, phase_relabel_velocity)
from .errors import (
    DomainError,
    HyperbolicityLoss,
    NoRealRoot,
    RootAmbiguity,
    SliceNotSpacelike,
)
from .grid import DNGrid, decay_sup
from .nonlinearity import Nonlinearity, acoustic_metric, eval_coeffs
from .state import DiagonalData, sigma_of

HOMOTOPY_STEPS = 4


@dataclass(frozen=True)
class RectInitialData:
    """Initial data in rectangular coordinates: five numpy-vectorized callables."""

    phi0: Callable
    phi0p: Callable
    phi0pp: Callable
    phi1: Callable
    phi1p: Callable

    def sample(self, x):
        x = np.asarray(x, dtype=float)
        return (self.phi0(x), self.phi0p(x), self.phi0pp(x),
                self.phi1(x), self.phi1p(x))


def background_data(profile: WaveProfile) -> RectInitialData:
    """The exact travelling background phi(t, x) = zeta(t - x) at t=0."""
    return RectInitialData(
        phi0=lambda x: profile.zeta(-np.asarray(x, dtype=float)),
        phi0p=lambda x: -profile.dzeta(-np.asarray(x, dtype=float)),
        phi0pp=lambda x: profile.d2zeta(-np.asarray(x, dtype=float)),
        phi1=lambda x: profile.dzeta(-np.asarray(x, dtype=float)),
        phi1p=lambda x: -profile.d2zeta(-np.asarray(x, dtype=float)),
    )


def _pulse_functions(kind: str, eps: float, center: float, width: float,
                     gamma: float):
    """(zeta, zeta', zeta'') of a pulse: a profile family's shape with
    amplitude eps, without the profile's envelope fit."""
    if kind == "bump":
        return bump_functions(eps, center, width)
    if kind == "algebraic":
        return algebraic_functions(eps, gamma, center, width)
    raise DomainError(f"unknown perturbation family {kind!r}")


def perturbed_data(
    profile: WaveProfile,
    kind: str = "bump",
    eps: float = 1e-3,
    center: float = 0.0,
    width: float = 1.0,
    direction: str = "left",
    gamma: float = 1.0,
) -> RectInitialData:
    """Background plus a small pulse of the given family and amplitude.

    direction chooses the velocity of the pulse: "left" (crosses the
    right-moving background), "right" (co-moving) or "standing" (zero
    initial velocity, splits both ways).
    """
    zeta, dzeta, d2zeta = _pulse_functions(kind, eps, center, width, gamma)
    vel = {"left": 1.0, "right": -1.0, "standing": 0.0}
    try:
        sgn = vel[direction]
    except KeyError:
        raise DomainError(f"unknown pulse direction {direction!r}") from None
    bg = background_data(profile)
    return RectInitialData(
        phi0=lambda x: bg.phi0(x) + zeta(x),
        phi0p=lambda x: bg.phi0p(x) + dzeta(x),
        phi0pp=lambda x: bg.phi0pp(x) + d2zeta(x),
        phi1=lambda x: bg.phi1(x) + sgn * dzeta(x),
        phi1p=lambda x: bg.phi1p(x) + sgn * d2zeta(x),
    )


def closeness_certificate(
    data: RectInitialData,
    profile: WaveProfile,
    X_max: float = 100.0,
) -> dict:
    """Measured distance of the data from the travelling background.

    Samples each of the five field deviations on [-X_max, X_max] at
    spacing SAMPLE_H and reports their decay norms at the profile's
    gamma_bar and the max eps_bar — the amplitude entering the smallness
    conditions.  Raises DomainError naming the first field whose decay
    norm is not finite: no radius can be sized from it.
    """
    gb = profile.gamma_bar
    x = np.arange(-X_max, X_max + 0.5 * SAMPLE_H, SAMPLE_H)
    bg = background_data(profile)
    out = {"gamma_bar": gb}
    names = ("phi0", "phi0p", "phi0pp", "phi1", "phi1p")
    for name in names:
        dev = getattr(data, name)(x) - getattr(bg, name)(x)
        out[name] = decay_sup(dev, x, gb)
        if not np.isfinite(out[name]):
            raise DomainError(f"initial data {name} has a non-finite decay "
                              f"norm ({out[name]}) off the background")
    out["eps_bar"] = float(np.max([out[k] for k in names]))
    return out


def solve_phi_tt(model: Nonlinearity, phi1, phi0p, phi1p, phi0pp):
    """d_t^2 phi on the slice from the equation's second-order form.

    Returns (phi_tt, metric); raises SliceNotSpacelike where g^00 >= 0.
    """
    met = acoustic_metric(model, phi1, phi0p)
    inv00 = np.asarray(met.inv00)
    if np.any(inv00 >= 0.0):
        bad = np.argmax(inv00 >= 0.0)
        raise SliceNotSpacelike(
            f"slice is not spacelike: g^00 = {inv00.flat[bad]:.6g} >= 0"
        )
    phi_tt = -(2.0 * met.inv01 * phi1p + met.inv11 * phi0pp) / met.inv00
    return phi_tt, met


def _eikonal_roots(model, phi_t, phi_x, which):
    """Both roots of one eikonal quadratic, paired as (plus, minus) arrays.

    which = +1 for the ubar covector (d_x ubar = -1), -1 for u (d_x u = +1);
    the linear coefficient is -4 f' phit phix * which.
    """
    phi_t = np.asarray(phi_t, dtype=float)
    phi_x = np.asarray(phi_x, dtype=float)
    try:
        co = eval_coeffs(model, -phi_t * phi_t + phi_x * phi_x)
    except HyperbolicityLoss as exc:
        raise NoRealRoot("eikonal discriminant 4 kappa <= 0") from exc
    fp = co.fp
    root_k = np.sqrt(co.kappa)
    a = 1.0 - (2.0 * fp) * (phi_t * phi_t)
    half_b = (-2.0 * fp) * (phi_t * phi_x) * which
    tiny = 1e-14
    ok = np.abs(a) > tiny
    a_safe = np.where(ok, a, 1.0)
    r_plus = (-half_b + root_k) / a_safe
    r_minus = (-half_b - root_k) / a_safe
    if not np.all(ok):
        # a ~ 0: one root escapes to infinity, the finite one is -c/b
        c = -(1.0 + (2.0 * fp) * (phi_x * phi_x))
        b = 2.0 * half_b
        if np.any(~ok & (np.abs(b) < tiny)):
            raise NoRealRoot("eikonal quadratic degenerates (a = b = 0)")
        lin = np.where(~ok, -c / np.where(ok, 1.0, b), 0.0)
        r_plus = np.where(ok, r_plus, lin)
        r_minus = np.where(ok, r_minus, lin)
    return r_plus, r_minus


def solve_eikonal_t0(
    model: Nonlinearity,
    profile: WaveProfile,
    x,
    phi_t,
    phi_x,
) -> dict:
    """Slice-gauge covector time components by homotopy from the background.

    Given the slice fields (phi_t, phi_x) at positions x, returns
    {"du_t_grid": d_t u, "dub_t": d_t ubar} for the t=0-anchored chart.
    The correct branch of each quadratic is the one connected to the
    background values along the straight amplitude path
    (zeta', -zeta') -> (phi_t, phi_x); each of the HOMOTOPY_STEPS steps
    keeps the root nearest the previous one and raises RootAmbiguity when
    the nearest root is no longer well separated from the other.
    """
    x = np.asarray(x, dtype=float)
    phi_t = np.asarray(phi_t, dtype=float)
    phi_x = np.asarray(phi_x, dtype=float)
    p = np.asarray(profile.dzeta(-x), dtype=float)
    chosen = {}
    for which, name in ((-1.0, "du_t_grid"), (1.0, "dub_t")):
        prev = None
        for m in range(HOMOTOPY_STEPS + 1):
            if m == HOMOTOPY_STEPS:
                ft, fx = phi_t, phi_x  # exact endpoint, no relerror from blending
            else:
                lam = m / HOMOTOPY_STEPS
                ft = p + lam * (phi_t - p)
                fx = -p + lam * (phi_x + p)
            r_plus, r_minus = _eikonal_roots(model, ft, fx, which)
            if prev is None:
                # the background root is the plus branch in closed form
                prev = r_plus
                continue
            d_plus = np.abs(r_plus - prev)
            d_minus = np.abs(r_minus - prev)
            sep = np.abs(r_plus - r_minus)
            nearest = np.minimum(d_plus, d_minus)
            ambiguous = nearest > 0.49 * sep
            if np.any(ambiguous):
                bad = int(np.argmax(ambiguous))
                raise RootAmbiguity(
                    f"cannot track the {name} eikonal root at x={x.flat[bad]:.6g}: "
                    f"candidates {r_plus.flat[bad]:.6g} and {r_minus.flat[bad]:.6g} "
                    f"from {np.asarray(prev).flat[bad]:.6g}"
                )
            prev = np.where(d_plus <= d_minus, r_plus, r_minus)
        chosen[name] = prev
    det = -chosen["du_t_grid"] - chosen["dub_t"]
    degenerate = np.abs(det) < 1e-10 * (1.0 + np.abs(chosen["du_t_grid"]) + np.abs(chosen["dub_t"]))
    if np.any(degenerate):
        bad = int(np.argmax(degenerate))
        raise RootAmbiguity(
            f"du and dubar are parallel at x={x.flat[bad]:.6g}"
        )
    return chosen


@dataclass(frozen=True)
class GaugeSlice:
    """Slice-gauge quantities at the diagonal nodes x = s.

    du_t_grid is the t=0-anchored covector component d_t u, used to invert
    slice derivatives; v_prime is V'(x), so v_prime * du_t_grid is the
    background-matched (relabeled) one; L0..Lb1 the frame vectors raised
    from the relabeled du and from dubar = (dub_t, -1).
    """

    x: np.ndarray
    v_prime: np.ndarray
    du_t_grid: np.ndarray
    dub_t: np.ndarray
    phi_tt: np.ndarray
    L0: np.ndarray
    L1: np.ndarray
    Lb0: np.ndarray
    Lb1: np.ndarray


def build_gauge_slice(
    rect: RectInitialData,
    grid: DNGrid,
    model: Nonlinearity,
    profile: WaveProfile,
) -> GaugeSlice:
    """Solve the slice equations at every diagonal node."""
    x = grid.u
    phi0, phi0p, phi0pp, phi1, phi1p = rect.sample(x)
    phi_tt, met = solve_phi_tt(model, phi1, phi0p, phi1p, phi0pp)
    roots = solve_eikonal_t0(model, profile, x, phi1, phi0p)
    Y = roots["du_t_grid"]
    Yb = roots["dub_t"]
    vp = phase_relabel_velocity(profile, model, x)
    du_t = vp * Y
    L0 = met.inv00 * du_t + met.inv01 * vp
    L1 = met.inv01 * du_t + met.inv11 * vp
    Lb0 = met.inv00 * Yb - met.inv01
    Lb1 = met.inv01 * Yb - met.inv11
    return GaugeSlice(
        x=x, v_prime=vp, du_t_grid=Y, dub_t=Yb,
        phi_tt=phi_tt, L0=L0, L1=L1, Lb0=Lb0, Lb1=Lb1,
    )


def build_diagonal_data(
    rect: RectInitialData,
    grid: DNGrid,
    model: Nonlinearity,
    profile: WaveProfile,
):
    """Perturbation fields on the diagonal, plus the gauge slice.

    Returns (DiagonalData, GaugeSlice).  All slice derivatives are
    converted to the grid null directions with the inversion

        d_u F  = (d_t F + Yb d_x F) / (Y + Yb)
        d_ub F = (d_t F -  Y d_x F) / (Y + Yb)

    where Y = d_t u (grid-anchored) and Yb = d_t ubar.  At the exact
    background every perturbation field vanishes to rounding because each
    is a difference of identical floating-point evaluations.
    """
    gauge = build_gauge_slice(rect, grid, model, profile)
    s = grid.u
    phi0, phi0p, phi0pp, phi1, phi1p = rect.sample(s)
    zp = np.asarray(profile.dzeta(-s), dtype=float)
    zpp = np.asarray(profile.d2zeta(-s), dtype=float)
    Y, Yb = gauge.du_t_grid, gauge.dub_t
    den = Y + Yb

    def to_null(dt, dx):
        return (dt + Yb * dx) / den, (dt - Y * dx) / den

    psi = phi1 + phi0p
    psib = (phi1 - phi0p) - 2.0 * zp
    xi = phi0 - profile.zeta(-s)

    dt_psi = gauge.phi_tt + phi1p
    dx_psi = phi1p + phi0pp
    dt_psib = gauge.phi_tt - phi1p
    dx_psib = phi1p - phi0pp
    dpsi_u, dpsi_ub = to_null(dt_psi, dx_psi)
    dpsib_u, dpsib_ub = to_null(dt_psib, dx_psib)
    dpsib_ub = dpsib_ub - 2.0 * zpp
    dphi_u, dphi_ub = to_null(phi1, phi0p)
    dxi_u = dphi_u
    dxi_ub = dphi_ub - zp

    data = DiagonalData(
        s=s.copy(), psi=psi, psib=psib, xi=xi,
        sigma=sigma_of(psi, psib, zp),
        dpsi_u=dpsi_u, dpsi_ub=dpsi_ub,
        dpsib_u=dpsib_u, dpsib_ub=dpsib_ub,
        dxi_u=dxi_u, dxi_ub=dxi_ub,
        gamma_bar=profile.gamma_bar,
    )
    return data, gauge

