"""Square double-null grid whose anti-diagonal is the t=0 data slice.

Nodes are (u_i, ubar_j) with u_i = u_min + i h and ubar_j = -u_max + j h.
The box is forced to be the domain of determinacy of its diagonal:
ubar ranges over [-u_max, -u_min] with the same spacing, so i + j = N
is exactly the initial slice {t = 0}, node (i, N-i) sitting at x = u_i.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import GridMismatch


@dataclass(frozen=True)
class DNGrid:
    u_min: float
    u_max: float
    h: float
    N: int = field(init=False)
    u: np.ndarray = field(init=False, repr=False)
    ub: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if not (self.u_max > self.u_min):
            raise GridMismatch("need u_max > u_min")
        if not (self.h > 0):
            raise GridMismatch("need h > 0")
        n_float = (self.u_max - self.u_min) / self.h
        N = int(round(n_float))
        if N < 2 or abs(n_float - N) > 1e-9 * max(1.0, N):
            raise GridMismatch(
                f"h={self.h} does not evenly divide [{self.u_min}, {self.u_max}]"
            )
        object.__setattr__(self, "N", N)
        h_exact = (self.u_max - self.u_min) / N
        object.__setattr__(self, "h", h_exact)
        u = self.u_min + h_exact * np.arange(N + 1)
        # reflected copy of u, so that ub[N - i] == -u[i] holds bitwise and
        # background quantities sampled at ubar on the diagonal cancel exactly
        ub = -u[::-1].copy()
        u.flags.writeable = False
        ub.flags.writeable = False
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "ub", ub)

    @classmethod
    def square(cls, radius: float, h: float) -> "DNGrid":
        return cls(-float(radius), float(radius), float(h))

    @property
    def n_nodes(self) -> int:
        return self.N + 1

    @property
    def ub_min(self) -> float:
        return -self.u_max

    @property
    def ub_max(self) -> float:
        return -self.u_min

    def diagonal(self):
        """Index arrays (i, N - i) of the t=0 diagonal, u ascending."""
        i = np.arange(self.N + 1)
        return i, self.N - i

    def fronts(self, direction: int):
        """Yield (ii, jj) of each front i + j = N + direction*m, m = 1..N.

        direction = +1 walks the future triangle, -1 the past one, nearest
        the diagonal first; ii ascends.  Every node's predecessors
        (i - direction, j) and (i, j - direction) lie on the previous front,
        or on the diagonal for m = 1.
        """
        N = self.N
        for m in range(1, N + 1):
            k = N + direction * m
            ii = np.arange(max(k - N, 0), min(k, N) + 1)
            yield ii, k - ii

    def same_as(self, other: "DNGrid") -> bool:
        return (
            self.N == other.N
            and abs(self.u_min - other.u_min) < 1e-12
            and abs(self.u_max - other.u_max) < 1e-12
        )

    def require_same(self, other: "DNGrid") -> None:
        if not self.same_as(other):
            raise GridMismatch(
                f"grids differ: [{self.u_min},{self.u_max}]/{self.N} vs "
                f"[{other.u_min},{other.u_max}]/{other.N}"
            )


def cumtrap_rows(F, h, anchor_j):
    """Cumulative trapezoid along axis 1, zeroed at per-row anchor columns."""
    S = np.zeros_like(F)
    np.cumsum((0.5 * h) * (F[:, 1:] + F[:, :-1]), axis=1, out=S[:, 1:])
    S -= np.take_along_axis(S, np.asarray(anchor_j)[:, None], axis=1)
    return S


def cumtrap_cols(F, h, anchor_i):
    """Cumulative trapezoid along axis 0, zeroed at per-column anchor rows."""
    return cumtrap_rows(np.ascontiguousarray(F.T), h, anchor_i).T


def decay_sup(grid, f, gamma_bar, axis):
    """Sup of (1+|x|)^(1+gamma_bar) |f| on the grid.

    x is u for axis=0 and ubar for axis=1.  The max along the other axis
    is taken first and weighted after: the weights are positive and
    rounding is monotone, so this is the sup of the weighted array bit for
    bit without forming it.
    """
    x = grid.u if axis == 0 else grid.ub
    w = (1.0 + np.abs(x)) ** (1.0 + gamma_bar)
    return float(np.max(w * np.max(np.abs(f), axis=1 - axis)))
