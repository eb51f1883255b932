"""State containers for the double-null solvers.

All fields are perturbations off the simple-wave background: psi is the
outgoing combination d_t phi + d_x phi, psib the incoming combination minus
its background value 2 zeta'(ubar), and xi = phi - zeta(ubar).  A DNState
holds these nine unknowns: the three fields and their null derivatives.
The null form is slaved algebraically to them,

    sigma = -psi (2 zeta'(ubar) + psib),

so it is never stored or integrated: sigma_of forms it where it is read,
and sigma_jet forms it with its coordinate derivatives, which follow by
the product rule.
"""

from __future__ import annotations

from dataclasses import dataclass, fields as dc_fields

import numpy as np

from .grid import DNGrid, decay_sup

FIELD_NAMES = (
    "psi", "psib", "xi",
    "dpsi_u", "dpsi_ub", "dpsib_u", "dpsib_ub", "dxi_u", "dxi_ub",
)

CSV_COLUMNS = (
    "u", "ubar", "psi", "psib", "sigma", "xi",
    "dpsi_u", "dpsi_ub", "dpsib_u", "dpsib_ub", "dxi_u", "dxi_ub",
)


def sigma_of(psi, psib, zp_ub):
    """Null form from the perturbation fields; zp_ub = zeta'(ubar)."""
    return -psi * (2.0 * zp_ub + psib)


def Phi0_of(psi, psib, zp_ub):
    """Time derivative of the full scalar, d_t phi."""
    return 0.5 * (psi + psib) + zp_ub


def Phi1_of(psi, psib, zp_ub):
    """Space derivative of the full scalar, d_x phi."""
    return 0.5 * (psi - psib) - zp_ub


def sigma_jet(psi, psib, dpsi_u, dpsi_ub, dpsib_u, dpsib_ub, zp_ub, zpp_ub):
    """(sigma, d_u sigma, d_ub sigma); zpp_ub = zeta''(ubar).

    The factor 2 zeta'(ubar) + psib that all three share is formed once;
    sigma is sigma_of's bit for bit.
    """
    w = 2.0 * zp_ub + psib
    return (-psi * w, -dpsi_u * w - psi * dpsib_u,
            -dpsi_ub * w - psi * (2.0 * zpp_ub + dpsib_ub))


@dataclass
class DNState:
    """The nine unknowns, FIELD_NAMES, on a DNGrid.

    Arrays are (N+1, N+1), indexed [i, j] ~ (u_i, ubar_j).  The slaved
    sigma is not a field: sigma_of(psi, psib, zeta'(ubar_j)) forms it.
    """

    grid: DNGrid
    psi: np.ndarray
    psib: np.ndarray
    xi: np.ndarray
    dpsi_u: np.ndarray
    dpsi_ub: np.ndarray
    dpsib_u: np.ndarray
    dpsib_ub: np.ndarray
    dxi_u: np.ndarray
    dxi_ub: np.ndarray

    @classmethod
    def zeros(cls, grid: DNGrid) -> "DNState":
        n = grid.n_nodes
        return cls(grid, *[np.zeros((n, n)) for _ in FIELD_NAMES])

    def jet(self, name):
        """(name, d_u name, d_ub name): one field and its null derivatives."""
        return tuple(getattr(self, k) for k in (name, f"d{name}_u", f"d{name}_ub"))

    def arrays(self):
        return {f.name: getattr(self, f.name) for f in dc_fields(self) if f.name != "grid"}

    def freeze(self) -> "DNState":
        """Mark every array read-only; solver outputs stay immutable."""
        for a in self.arrays().values():
            a.flags.writeable = False
        return self


@dataclass
class DiagonalData:
    """Perturbation data on the t=0 diagonal, sampled at s = u_i.

    Carries the nine fields of DNState restricted to the diagonal, the
    slaved sigma, and the measured smallness eps0: the largest value of
    |field(s)| (1+|s|)^(1+gamma_bar) over those ten arrays.
    """

    s: np.ndarray
    psi: np.ndarray
    psib: np.ndarray
    xi: np.ndarray
    sigma: np.ndarray
    dpsi_u: np.ndarray
    dpsi_ub: np.ndarray
    dpsib_u: np.ndarray
    dpsib_ub: np.ndarray
    dxi_u: np.ndarray
    dxi_ub: np.ndarray
    gamma_bar: float
    eps0: float = 0.0

    def __post_init__(self):
        if self.eps0 == 0.0:
            self.eps0 = self.measure_eps0()

    def measure_eps0(self) -> float:
        return float(np.max([decay_sup(getattr(self, name), self.s,
                                       self.gamma_bar)
                             for name in FIELD_NAMES + ("sigma",)]))


# Values per column in one row block of write_grid_csv: 4 rows of a
# 241-node grid, 1 row at radius 20.  Ten all-distinct columns then peak
# near 1.2 MiB of Python objects; the bytes written do not depend on it.
CSV_BLOCK_VALUES = 1024


def _block_reprs(block: np.ndarray, memo) -> tuple:
    """repr of every value of a float64 block, row-major, as a list.

    Each distinct value is repr'd once and its string shared by all its
    copies.  Values are keyed on their int64 bits, so -0.0 and 0.0 stay
    apart.  memo is the previous block's (sorted keys, strings) of the same
    column, or None: a value found there reuses its string, since values
    repeat down the rows.  Returns the list and this block's memo.
    """
    flat = np.ascontiguousarray(block, dtype=np.float64).reshape(-1)
    keys, inv = np.unique(flat.view(np.int64), return_inverse=True)
    strs = np.empty(keys.size, dtype=object)
    new = np.ones(keys.size, dtype=bool)
    if memo is not None:
        old_keys, old_strs = memo
        at = np.minimum(np.searchsorted(old_keys, keys), old_keys.size - 1)
        new = old_keys[at] != keys
        strs[~new] = old_strs[at[~new]]
    strs[new] = list(map(repr, keys[new].view(np.float64).tolist()))
    return strs[inv].tolist(), (keys, strs)


def _write_rows(fh, us, ub, blocks, memos) -> None:
    """The lines of one row block: us are its u strings, blocks its columns.

    memos holds each column's memo of _block_reprs and is updated in place.
    Only those memos outlive the call: the strings of one block's lines
    are never alive beside another block's.
    """
    vals = []
    for c, b in enumerate(blocks):
        strs, memos[c] = _block_reprs(b, memos[c])
        vals.append(strs)
    lines = map(",".join, zip([u for u in us for _ in ub], ub * len(us), *vals))
    fh.write("\r\n".join(lines))
    fh.write("\r\n")


def write_grid_csv(path, grid: DNGrid, columns) -> None:
    """Per-node table, row-major in u then ubar, every float written by repr.

    The header is u, ubar and then the keys of columns, which maps each
    name to an (N+1, N+1) float array on grid.  Lines end in CRLF: the
    bytes are those of csv.writer's excel dialect, which never quotes
    here because no float repr and no column name holds a comma, a
    quote or a line break.  Rows go out in blocks of about
    CSV_BLOCK_VALUES values per column; each distinct value of a block's
    column is repr'd once, and not at all when the previous block of that
    column held it (its sorted keys and strings are kept for the lookup).
    """
    n = grid.n_nodes
    us = list(map(repr, grid.u.tolist()))
    ub = list(map(repr, grid.ub.tolist()))
    step = max(1, CSV_BLOCK_VALUES // n)
    with open(path, "w", newline="") as fh:
        fh.write(",".join(("u", "ubar", *columns)) + "\r\n")
        memos = [None] * len(columns)
        for a in range(0, n, step):
            _write_rows(fh, us[a:a + step], ub,
                        [c[a:a + step] for c in columns.values()], memos)
