"""Scalar nonlinearity of the variational wave model and derived coefficients.

The model is the Euler-Lagrange equation of a Lagrangian e^{f(sigma)} built
from the null form

    sigma = -(d_t phi)^2 + (d_x phi)^2,

so every coefficient of the quasilinear system is a function of sigma alone:

    kappa(s)  = 1 + 2 f'(s) s                 (hyperbolicity factor, > 0)
    G(s)      = (f''(s) s + f'(s)) / kappa(s) + f'(s)
    H(s)      = -2 f'(s) / kappa(s)
    H'(s)     = -2 (f''(s) - 2 f'(s)^2) / kappa(s)^2

The inverse acoustic metric on top of the Minkowski background is

    g^{mn} = eta^{mn} + 2 f'(sigma) (eta Phi)^m (eta Phi)^n,

with Phi = (d_t phi, d_x phi), and its covariant form is

    g_{mn} = eta_{mn} + H(sigma) Phi_m Phi_n,

with determinants det g^{-1} = -kappa and det g = -1/kappa.  The contraction
of dphi with itself against g^{-1} collapses to sigma + 2 f'(sigma) sigma^2.

Three families are built in: "linear" (f = 0), "membrane"
(f = -1/2 log(1+sigma), defined for sigma > -1, for which H == 1), and
"polynomial" (f = a s + b s^2 + c s^3).  Custom models supply their own
derivative callables.  Every model must admit sigma = 0 (the background
value): coefficients, through which every caller evaluates the coefficient
algebra, uses it as the stand-in at nodes outside the admissible range,
and eval_coeffs is the same evaluation raising unless every node is
admissible.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Union

import numpy as np

from .errors import DomainError, HyperbolicityLoss

ArrayLike = Union[float, np.ndarray]
RANGE_SAMPLE_H = 1e-3  # largest sample spacing of range_certificate


@dataclass(frozen=True)
class Nonlinearity:
    """A concrete choice of f together with its first two derivatives.

    Attributes
    ----------
    name : str
        Human-readable family name.
    f, fp, fpp : callables
        f and its derivatives, vectorized over numpy arrays.
    sigma_min, sigma_max : float
        Open admissible interval for sigma (inf allowed); it must
        contain 0.
    """

    name: str
    f: Callable[[ArrayLike], ArrayLike]
    fp: Callable[[ArrayLike], ArrayLike]
    fpp: Callable[[ArrayLike], ArrayLike]
    sigma_min: float = -np.inf
    sigma_max: float = np.inf


@dataclass(frozen=True)
class Coefficients:
    """The sigma-coefficients of the system at one (array of) sigma.

    ok marks the entries inside the model's open interval where
    kappa > 0.  Entries outside the interval are evaluated at s = 0
    (kappa 1), and k is kappa with 1 where kappa <= 0, so the quotients
    G, H and H' are finite everywhere, but only the entries under ok are
    coefficients of the model.  Each quotient is formed on first read.
    """

    ok: ArrayLike
    s: ArrayLike
    fp: ArrayLike
    fpp: ArrayLike
    kappa: ArrayLike
    k: ArrayLike

    @cached_property
    def G(self) -> ArrayLike:
        return (self.fpp * self.s + self.fp) / self.k + self.fp

    @cached_property
    def H(self) -> ArrayLike:
        return -2.0 * self.fp / self.k

    @cached_property
    def Hp(self) -> ArrayLike:
        return -2.0 * (self.fpp - 2.0 * self.fp * self.fp) / (self.k * self.k)


@dataclass(frozen=True)
class MetricComponents:
    """Acoustic metric at one state (arrays allowed), both index positions."""

    sigma: ArrayLike
    kappa: ArrayLike
    g00: ArrayLike
    g01: ArrayLike
    g11: ArrayLike
    inv00: ArrayLike
    inv01: ArrayLike
    inv11: ArrayLike


def _zero(s: ArrayLike) -> ArrayLike:
    return np.zeros_like(np.asarray(s, dtype=float))


def linear_model() -> Nonlinearity:
    """f == 0: the flat wave equation, useful as an exactly solvable check."""
    return Nonlinearity(
        name="linear",
        f=_zero,
        fp=_zero,
        fpp=_zero,
    )


def membrane_model() -> Nonlinearity:
    """f = -1/2 log(1+sigma) on sigma > -1; H(sigma) == 1 identically."""
    return Nonlinearity(
        name="membrane",
        f=lambda s: -0.5 * np.log1p(np.asarray(s, dtype=float)),
        fp=lambda s: -0.5 / (1.0 + np.asarray(s, dtype=float)),
        fpp=lambda s: 0.5 / (1.0 + np.asarray(s, dtype=float)) ** 2,
        sigma_min=-1.0,
    )


def polynomial_model(a: float, b: float = 0.0, c: float = 0.0) -> Nonlinearity:
    """f = a s + b s^2 + c s^3 with exact derivatives."""
    a, b, c = float(a), float(b), float(c)
    return Nonlinearity(
        name=f"polynomial[{a:g},{b:g},{c:g}]",
        f=lambda s: a * s + b * np.asarray(s, dtype=float) ** 2 + c * np.asarray(s, dtype=float) ** 3,
        fp=lambda s: a + 2.0 * b * np.asarray(s, dtype=float) + 3.0 * c * np.asarray(s, dtype=float) ** 2,
        fpp=lambda s: 2.0 * b + 6.0 * c * np.asarray(s, dtype=float),
    )


def coefficients(model: Nonlinearity, sigma: ArrayLike) -> Coefficients:
    """The Coefficients of model at sigma, without raising (see ok)."""
    s = np.asarray(sigma, dtype=float)
    ok = (s > model.sigma_min) & (s < model.sigma_max)
    s = np.where(ok, s, 0.0)
    fp = model.fp(s)
    fpp = model.fpp(s)
    kappa = 1.0 + 2.0 * fp * s
    ok = ok & (kappa > 0.0)
    return Coefficients(ok, s, fp, fpp, kappa, np.where(ok, kappa, 1.0))


def eval_coeffs(model: Nonlinearity, sigma: ArrayLike) -> Coefficients:
    """The Coefficients of model at sigma, raising unless every entry is ok.

    A scalar sigma gives numpy scalars (or 0-d arrays).

    Raises
    ------
    DomainError
        If a sigma is not finite or leaves the model's open interval
        (checked first).
    HyperbolicityLoss
        If kappa = 1 + 2 f'(sigma) sigma is not strictly positive.
    """
    co = coefficients(model, sigma)
    if not np.all(co.ok):
        # an entry outside the interval was evaluated at 0, so its kappa is 1
        off = ~co.ok & (co.kappa > 0.0)
        if np.any(off):
            bad = float(np.asarray(sigma, dtype=float)[off].flat[0])
            raise DomainError(
                f"{model.name}: sigma={bad:.6g} outside "
                f"({model.sigma_min:.6g}, {model.sigma_max:.6g})"
            )
        kmin = float(np.min(co.kappa))
        raise HyperbolicityLoss(f"{model.name}: kappa={kmin:.6g} <= 0")
    return co


def acoustic_metric(model: Nonlinearity, Phi0: ArrayLike, Phi1: ArrayLike) -> MetricComponents:
    """Acoustic metric components at the state Phi = (d_t phi, d_x phi).

    Both the covariant components g_{mn} = eta_{mn} + H Phi_m Phi_n and the
    contravariant ones g^{mn} = eta^{mn} + 2 f' (eta Phi)^m (eta Phi)^n are
    returned; (eta Phi) = (-Phi0, Phi1).
    """
    P0 = np.asarray(Phi0, dtype=float)
    P1 = np.asarray(Phi1, dtype=float)
    sigma = -P0 * P0 + P1 * P1
    co = eval_coeffs(model, sigma)
    fp, H = co.fp, co.H
    inv00 = -1.0 + 2.0 * fp * P0 * P0
    inv01 = -2.0 * fp * P0 * P1
    inv11 = 1.0 + 2.0 * fp * P1 * P1
    g00 = -1.0 + H * P0 * P0
    g01 = H * P0 * P1
    g11 = 1.0 + H * P1 * P1
    if np.ndim(Phi0) == 0 and np.ndim(Phi1) == 0:
        return MetricComponents(
            float(sigma), float(co.kappa),
            float(g00), float(g01), float(g11),
            float(inv00), float(inv01), float(inv11),
        )
    return MetricComponents(sigma, co.kappa, g00, g01, g11, inv00, inv01, inv11)


def range_certificate(model: Nonlinearity, m0: float) -> dict:
    """Sup of each structural coefficient over sigma in [-m0, m0].

    The certificate samples |G|, |H|, |f'|, |G'|, |H'|, |kappa|, |1/kappa|,
    |f''| and |H''| on a uniform grid of spacing <= RANGE_SAMPLE_H and
    reports each sup together with their max M0.  The two derived derivatives G' and H'' are
    taken by centered differences of the composed quantities.

    Raises DomainError if [-m0, m0], or the stencil of the finite
    differences around it, leaves the admissible interval.
    """
    m0 = float(m0)
    if m0 <= 0:
        raise DomainError("m0 must be positive")
    n = max(8, int(np.ceil(2.0 * m0 / RANGE_SAMPLE_H)))
    s = np.linspace(-m0, m0, n + 1)
    co = eval_coeffs(model, s)

    step = 0.5 * min(RANGE_SAMPLE_H, 1e-4 * max(1.0, m0))
    def _fd(values_at):
        return (values_at(s + step) - values_at(s - step)) / (2.0 * step)

    Gp = _fd(lambda q: eval_coeffs(model, q).G)
    Hpp = _fd(lambda q: eval_coeffs(model, q).Hp)

    sups = {
        "G": float(np.max(np.abs(co.G))),
        "H": float(np.max(np.abs(co.H))),
        "fp": float(np.max(np.abs(co.fp))),
        "Gp": float(np.max(np.abs(Gp))),
        "Hp": float(np.max(np.abs(co.Hp))),
        "kappa": float(np.max(np.abs(co.kappa))),
        "kappa_inv": float(np.max(np.abs(1.0 / co.kappa))),
        "fpp": float(np.max(np.abs(co.fpp))),
        "Hpp": float(np.max(np.abs(Hpp))),
    }
    sups["M0"] = float(np.max(list(sups.values())))
    sups["m0"] = m0
    return sups

