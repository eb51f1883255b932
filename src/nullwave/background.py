"""Simple-wave backgrounds and background geometry.

A background is a right-moving simple wave phi(t,x) = zeta(t-x) whose
profile derivative decays algebraically:

    |zeta(s)|, |zeta'(s)|, |zeta''(s)| <= M / (1+|s|)^(1+gamma).

On such a background the perturbation-adapted null coordinate u differs
from t+x by the phase function

    Z(ubar) = - integral_0^ubar H(0) zeta'(s)^2 ds,      ubar = t - x,

and the normalized background null frame is

    L  = (-1 - H(0) zeta'(ubar)^2,  1 - H(0) zeta'(ubar)^2)
    Lb = (-1, -1),        Omega = -1/2.

Hyperbolicity of the full operator on the background requires
1 + H(0) zeta'(s)^2 > 0 for every s, which can only fail when H(0) < 0.
On the t=0 slice that margin is -g^00, so a run whose background breaks
it on the grid stops in data_gauge with SliceNotSpacelike.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Union

import numpy as np

from .errors import DomainError, QuadratureFailure
from .grid import decay_sup, decay_weight, row_blocks
from .nonlinearity import Nonlinearity, eval_coeffs

ArrayLike = Union[float, np.ndarray]
SAMPLE_H = 0.01       # sample spacing of data_gauge.closeness_certificate
FIT_SAMPLES = 20001   # points of envelope_fit's sample
ENVELOPE_TOL = 1e-10  # tolerance of envelope_integral's window quadrature


# ---------------------------------------------------------------------------
# quadrature
# ---------------------------------------------------------------------------

def adaptive_simpson(
    f: Callable[[float], float],
    a: float,
    b: float,
    tol: float = 1e-10,
    max_evals: int = 500000,
) -> float:
    """Adaptive Simpson quadrature of f over [a, b].

    Classic interval-halving with the |S_fine - S_coarse|/15 error gauge.
    Raises QuadratureFailure if the evaluation budget runs out before the
    tolerance is met.
    """
    if a == b:
        return 0.0
    sign = 1.0
    if b < a:
        a, b = b, a
        sign = -1.0

    def simpson(x0, f0, x2, f2):
        x1 = 0.5 * (x0 + x2)
        f1 = f(x1)
        return x1, f1, (x2 - x0) * (f0 + 4.0 * f1 + f2) / 6.0

    fa, fb = f(a), f(b)
    m, fm, whole = simpson(a, fa, b, fb)
    # stack entries: (x0, f0, x2, f2, mid, fmid, S, tol)
    stack = [(a, fa, b, fb, m, fm, whole, tol)]
    total = 0.0
    evals = 3
    while stack:
        x0, f0, x2, f2, x1, f1, S, t = stack.pop()
        lm, flm, Sl = simpson(x0, f0, x1, f1)
        rm, frm, Sr = simpson(x1, f1, x2, f2)
        evals += 2
        if evals > max_evals:
            raise QuadratureFailure(
                f"adaptive Simpson exceeded {max_evals} evaluations on "
                f"[{a:.6g}, {b:.6g}]"
            )
        err = Sl + Sr - S
        if abs(err) <= 15.0 * t or (x2 - x0) < 1e-14 * (1.0 + abs(x0)):
            total += Sl + Sr + err / 15.0
        else:
            stack.append((x0, f0, x1, f1, lm, flm, Sl, 0.5 * t))
            stack.append((x1, f1, x2, f2, rm, frm, Sr, 0.5 * t))
    return sign * total


def _cumulative_quadrature(f, points, breaks=()):
    """Integral of the vectorized f from 0 to each of the given points.

    The sorted unique points, 0, the breakpoints and the dyadic points
    +-2^k inside the range cut the line into intervals.  Each interval is
    split into equal panels no wider than 0.25 (1 + |nearer end|), so a
    span out to |x| = X costs O(log X) panels.  f is evaluated on the
    panels' Gauss-Legendre nodes a block of grid.BLOCK_ELEMS nodes at a
    time (grid.row_blocks), and each panel's weighted values are added
    left to right, node by node, so the result does not depend on the
    block size or on a BLAS library.  The interval integrals are summed
    outward from 0 in both directions.
    """
    # the 8-point rule is exact for polynomials of degree <= 15, so for
    # zeta'^2 wherever zeta' is a polynomial of degree <= 7; imported on
    # first use so that importing nullwave does not load numpy.polynomial
    from numpy.polynomial.legendre import leggauss

    pts = np.asarray(points, dtype=float).ravel()
    if pts.size == 0:
        return pts
    gl_nodes, gl_weights = leggauss(8)
    lo, hi = min(float(pts.min()), 0.0), max(float(pts.max()), 0.0)
    reach = max(-lo, hi)
    dyadic = 2.0 ** np.arange(int(np.ceil(np.log2(reach))) if reach > 1.0 else 0)
    extra = np.concatenate([np.asarray(breaks, dtype=float), dyadic, -dyadic])
    nodes = np.unique(np.concatenate(
        [pts, [0.0], extra[(extra > lo) & (extra < hi)]]))

    a, b = nodes[:-1], nodes[1:]
    near = np.minimum(np.abs(a), np.abs(b))
    count = np.ceil((b - a) / (0.25 * (1.0 + near))).astype(np.intp)
    del near
    first = np.concatenate([[0], np.cumsum(count)[:-1]])
    owner = np.repeat(np.arange(a.size), count)
    width = (b - a) / count
    panels = np.empty(owner.size)
    for s in row_blocks(owner.size, gl_nodes.size):
        o = owner[s]
        half = 0.5 * width[o]
        mid = a[o] + width[o] * (np.arange(s.start, s.stop) - first[o]) + half
        vals = f(mid[:, None] + half[:, None] * gl_nodes)
        panels[s] = vals[:, 0] * gl_weights[0]
        for k in range(1, gl_nodes.size):
            panels[s] += vals[:, k] * gl_weights[k]
    panels *= 0.5 * width[owner]
    segments = np.add.reduceat(panels, first) if a.size else a

    i0 = int(np.searchsorted(nodes, 0.0))
    cum = np.zeros(nodes.size)
    cum[i0 + 1:] = np.cumsum(segments[i0:])
    cum[:i0] = -np.cumsum(segments[:i0][::-1])[::-1]
    return cum[np.searchsorted(nodes, pts)]


def envelope_integral(eps: float, gamma: float) -> float:
    """Numerical integral of the envelope eps / (1+|x|)^(1+gamma) over the line.

    The window [-X, X] is integrated adaptively and the two tails are added
    in closed form (eps (1+X)^(-gamma) / gamma each).  The result is always
    bounded by 2 eps (1 + 1/gamma).
    """
    if eps < 0 or gamma <= 0:
        raise DomainError("envelope needs eps >= 0 and gamma > 0")
    if eps == 0.0:
        return 0.0
    X = 50.0
    window = adaptive_simpson(lambda x: eps / decay_weight(x, gamma), -X, X,
                              ENVELOPE_TOL)
    tail = eps / (gamma * (1.0 + X) ** gamma)
    return window + 2.0 * tail


# ---------------------------------------------------------------------------
# profiles
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WaveProfile:
    """Profile zeta of a right-moving simple wave, with two derivatives.

    The callables must be numpy-vectorized.  M_zeta and gamma_bar describe
    the decay envelope the profile is claimed to satisfy; envelope_fit
    measures the smallest constant that actually works on a sample.
    breaks lists the points where the profile is not smooth (support
    edges, table nodes); the phase quadrature never puts a panel across
    one, so it stays exact to rounding on piecewise-polynomial profiles.
    """

    name: str
    zeta: Callable[[ArrayLike], ArrayLike]
    dzeta: Callable[[ArrayLike], ArrayLike]
    d2zeta: Callable[[ArrayLike], ArrayLike]
    M_zeta: float
    gamma_bar: float
    breaks: tuple = ()

    def envelope_fit(self, X_max: float = 100.0) -> float:
        """Measured minimal M for the three envelope bounds on [-X_max, X_max]."""
        x = np.linspace(-X_max, X_max, FIT_SAMPLES)
        return float(np.max([decay_sup(fn(x), x, self.gamma_bar)
                             for fn in (self.zeta, self.dzeta, self.d2zeta)]))


def zero_profile(gamma_bar: float = 1.0) -> WaveProfile:
    """The trivial background phi == 0."""
    z = lambda x: np.zeros_like(np.asarray(x, dtype=float))
    return WaveProfile("zero", z, z, z, M_zeta=0.0, gamma_bar=gamma_bar)


def bump_functions(amplitude: float, center: float = 0.0, width: float = 1.0):
    """(zeta, zeta', zeta'') of the C^3 bump A (1 - y^2)^4 on |y| < 1, zero
    outside, with y = (x - center) / width."""
    A, c, w = float(amplitude), float(center), float(width)
    if w <= 0:
        raise DomainError("bump width must be positive")

    def on_support(poly):
        """x -> poly(y) with y = (x - c) / w for |y| < 1, else 0."""
        def fn(x):
            y = (np.asarray(x, dtype=float) - c) / w
            val = np.where(np.abs(y) < 1.0, poly(y), 0.0)
            return val if np.ndim(x) else float(val)
        return fn

    return (on_support(lambda y: A * (1.0 - y**2) ** 4),
            on_support(lambda y: -8.0 * A * y * (1.0 - y**2) ** 3 / w),
            on_support(lambda y: A * (1.0 - y**2) ** 2 * (56.0 * y**2 - 8.0) / w**2))


def bump_profile(amplitude: float, center: float = 0.0, width: float = 1.0,
                 gamma_bar: float = 1.0) -> WaveProfile:
    """Compactly supported C^3 bump zeta = A (1 - y^2)^4 on |y| < 1."""
    c, w = float(center), float(width)
    prof = WaveProfile("bump", *bump_functions(amplitude, c, w), M_zeta=1.0,
                       gamma_bar=gamma_bar, breaks=(c - w, c + w))
    return replace(prof, M_zeta=prof.envelope_fit(X_max=abs(c) + w + 10.0))


def algebraic_functions(amplitude: float, gamma: float = 1.0,
                        center: float = 0.0, width: float = 1.0):
    """(zeta, zeta', zeta'') of A (1 + y^2)^(-(1+gamma)/2), with
    y = (x - center) / width."""
    A, g, c, w = float(amplitude), float(gamma), float(center), float(width)
    if g <= 0:
        raise DomainError("gamma_bar must be positive")
    p = -(1.0 + g) / 2.0

    def scaled(shape):
        """x -> shape(y) with y = (x - c) / w."""
        return lambda x: shape((np.asarray(x, dtype=float) - c) / w)

    return (scaled(lambda y: A * (1.0 + y**2) ** p),
            scaled(lambda y: -A * (1.0 + g) * y * (1.0 + y**2) ** (p - 1.0) / w),
            scaled(lambda y: -A * (1.0 + g) * (1.0 - (2.0 + g) * y**2)
                   * (1.0 + y**2) ** (p - 2.0) / w**2))


def algebraic_profile(amplitude: float, gamma_bar: float = 1.0) -> WaveProfile:
    """Globally supported profile zeta = A (1+x^2)^(-(1+gamma)/2)."""
    prof = WaveProfile("algebraic", *algebraic_functions(amplitude, gamma_bar),
                       M_zeta=1.0, gamma_bar=float(gamma_bar))
    return replace(prof, M_zeta=prof.envelope_fit())


def table_profile(x_nodes, zeta_vals, dzeta_vals, d2zeta_vals, gamma_bar: float = 1.0) -> WaveProfile:
    """Profile interpolated from tabulated (x, zeta, zeta', zeta'') samples.

    zeta and zeta' are cubic-Hermite interpolated (using the tabulated
    derivative columns), zeta'' linearly.  Outside the table the profile is
    extended by zero, so tables should decay to ~0 at both ends.
    """
    xs = np.asarray(x_nodes, dtype=float)
    if xs.ndim != 1 or xs.size < 2 or np.any(np.diff(xs) <= 0):
        raise DomainError("table x nodes must be strictly increasing, >= 2 points")
    zv = np.asarray(zeta_vals, dtype=float)
    dv = np.asarray(dzeta_vals, dtype=float)
    d2v = np.asarray(d2zeta_vals, dtype=float)
    if not (zv.shape == dv.shape == d2v.shape == xs.shape):
        raise DomainError("table columns must share the x shape")

    def hermite(vals, ders):
        def interp(x):
            x = np.asarray(x, dtype=float)
            idx = np.clip(np.searchsorted(xs, x) - 1, 0, xs.size - 2)
            h = xs[idx + 1] - xs[idx]
            t = (x - xs[idx]) / h
            h00 = (1 + 2 * t) * (1 - t) ** 2
            h10 = t * (1 - t) ** 2
            h01 = t**2 * (3 - 2 * t)
            h11 = t**2 * (t - 1)
            out = (
                h00 * vals[idx] + h10 * h * ders[idx]
                + h01 * vals[idx + 1] + h11 * h * ders[idx + 1]
            )
            out = np.where((x < xs[0]) | (x > xs[-1]), 0.0, out)
            return out if np.ndim(x) else float(out)
        return interp

    def linear(vals):
        def interp(x):
            x = np.asarray(x, dtype=float)
            out = np.interp(x, xs, vals, left=0.0, right=0.0)
            return out if np.ndim(x) else float(out)
        return interp

    prof = WaveProfile(
        "table", hermite(zv, dv), hermite(dv, d2v), linear(d2v),
        M_zeta=1.0, gamma_bar=gamma_bar, breaks=tuple(xs.tolist()),
    )
    return replace(prof, M_zeta=prof.envelope_fit(
        X_max=max(abs(xs[0]), abs(xs[-1])) + 1.0))


# ---------------------------------------------------------------------------
# background geometry
# ---------------------------------------------------------------------------

def phase_function(
    profile: WaveProfile,
    model: Nonlinearity,
    ubar: ArrayLike,
) -> ArrayLike:
    """Z(ubar) = -H(0) * integral_0^ubar zeta'(s)^2 ds.

    All requested points share one pass of 8-point Gauss-Legendre panels
    that never cross the profile's breaks, so Z is exact to rounding on
    the bump and table profiles.  Raises DomainError on a non-finite ubar.
    """
    ub = np.asarray(ubar, dtype=float)
    bad = np.flatnonzero(~np.isfinite(ub))
    if bad.size:
        raise DomainError(f"phase function needs a finite ubar, got "
                          f"{float(ub.flat[bad[0]])!r} at flat index {bad[0]}")
    H0 = eval_coeffs(model, 0.0).H
    if H0 == 0.0:
        return np.zeros_like(ub) if np.ndim(ubar) else 0.0
    f = lambda s: np.asarray(profile.dzeta(s), dtype=float) ** 2
    vals = -H0 * _cumulative_quadrature(f, ub, profile.breaks)
    if np.ndim(ubar) == 0:
        return float(vals[0])
    return vals.reshape(np.shape(ubar))


def background_L(model: Nonlinearity, profile: WaveProfile, ubar: ArrayLike):
    """(H0, L0, L1): H(0) and the background frame's L components at ubar."""
    H0 = float(eval_coeffs(model, 0.0).H)
    zp2 = np.asarray(profile.dzeta(ubar), dtype=float) ** 2
    return H0, -1.0 - H0 * zp2, 1.0 - H0 * zp2


def phase_relabel_velocity(profile: WaveProfile, model: Nonlinearity, u: ArrayLike) -> ArrayLike:
    """V'(u) = 1 + H(0) zeta'(-u)^2, the derivative of V(u) = u + Z(-u).

    V relates the t=0-anchored null coordinate (the grid coordinate, in
    which the data diagonal is exactly {t=0}) to the background-matched
    one (in which Omega -> -1/2 far out).  V' > 0 whenever the background
    is hyperbolic.
    """
    H0 = eval_coeffs(model, 0.0).H
    vp = 1.0 + H0 * np.asarray(profile.dzeta(-np.asarray(u, dtype=float))) ** 2
    if np.ndim(u) == 0:
        return float(vp)
    return vp

