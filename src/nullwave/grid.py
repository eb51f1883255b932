"""Square double-null grid whose anti-diagonal is the t=0 data slice.

Nodes are (u_i, ubar_j) with u_i = u_min + i h and ubar_j = -u_max + j h.
The box is forced to be the domain of determinacy of its diagonal:
ubar ranges over [-u_max, -u_min] with the same spacing, so i + j = N
is exactly the initial slice {t = 0}, node (i, N-i) sitting at x = u_i.

The decay norm sup (1+|x|)^(1+gamma) |f| that measures data, profiles and
solutions lives here too: decay_weight, decay_sup and jet_sup.  Given a
second iterate, they measure the distance between the two.
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

    def predecessors(self):
        """Slices (W, S) of the previous joint front (joint_fronts) that
        hold the u- and ubar-predecessors of both halves' nodes; the
        across-corners are [1:-1] of the front before.  For fronts(1)
        alone they are the same slices, for fronts(-1) (S, W)."""
        return slice(None, -1), slice(1, None)

    def joint_fronts(self):
        """Yield (ii, jj) of front m of both triangles, m = 1..N.

        The walk of the march (dn_core) and of the frame transport
        (geometry.integrate_frame).  Front m of the future triangle and
        front m of the past one have the same size, so they go as one
        (2, k) array, and one gather and one right side per iteration
        serve both: the future half, u ascending, then the past half
        mirrored, u descending, so that predecessors() slices both
        halves' u- and ubar-predecessors out of the previous joint front
        (for m = 1 the diagonal, put in by both_halves), and [1:-1] of the
        front before holds their across-corners; front 1 has none.  Each
        half iterates to its own stop (iterate_halves) and reads only its
        triangle and the diagonal, so it gets the result of a walk of that
        triangle alone, bit for bit.  A solver raises at the first m where
        either half fails, the future half's error on a tie, naming that
        half's failing node of least u (where_least_u).
        """
        for (fi, fj), (pi, pj) in zip(self.fronts(1), self.fronts(-1)):
            yield np.array([fi, pi[::-1]]), np.array([fj, pj[::-1]])

    def where(self, i, j) -> str:
        """Name node (i, j) by its coordinates, for error messages."""
        return f"node (u={self.u[i]:.6g}, ubar={self.ub[j]:.6g})"

    def where_least_u(self, mask, i, j) -> str:
        """where() of the node of least u among the nodes (i, j) in mask,
        whatever their order: a mirrored past half names the same node."""
        return self.where(*min(zip(i[mask], j[mask])))

    def require_nodes(self, x, what: str) -> None:
        """Raise GridMismatch unless x, sampled on the t=0 diagonal, are
        the nodes u of this grid, to within 1e-9 (1 + max|u|)."""
        x = np.asarray(x)
        tol = 1e-9 * (1.0 + float(np.max(np.abs(self.u))))
        if x.shape != self.u.shape or not np.all(np.abs(x - self.u) <= tol):
            raise GridMismatch(f"{what} nodes do not coincide with grid.u")

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


def both_halves(x):
    """x on the diagonal, last axis u ascending, as the front before the
    first of joint_fronts: a half axis before the last, the future half
    x and the past half x mirrored."""
    return np.stack((x, x[..., ::-1]), axis=-2)


def iterate_halves(step, n_halves, n_it):
    """Iterate the halves of a joint front, each until it stops.

    step(a) advances the halves in the slice a of the half axis by one
    iteration and returns a stop flag for each.  A half that stops is left
    out of the later calls, until none is left or step has run n_it times.
    With at most two halves, those still iterating form one slice.
    Returns the list of halves that never stopped, in order.
    """
    live = list(range(n_halves))
    for _ in range(n_it):
        stop = step(slice(live[0], live[-1] + 1))
        live = [h for h, s in zip(live, stop) if not s]
        if not live:
            break
    return live


# Elements per row block of the full-grid passes (row_blocks).  A block's
# temporaries then stay in a 2 MiB L2 while the whole fields do not; the
# results do not depend on it.
BLOCK_ELEMS = 32768


def row_blocks(n_rows, n_cols, halo=0):
    """Yield row slices of about BLOCK_ELEMS elements, in row order.

    The interiors of the blocks tile rows halo .. n_rows - halo - 1; each
    yielded slice adds halo rows of context on either side, so consecutive
    slices overlap by 2 * halo rows.  A block holds at least one interior
    row.
    """
    step = max(1, BLOCK_ELEMS // max(1, n_cols))
    for a in range(halo, n_rows - halo, step):
        yield slice(a - halo, min(a + step, n_rows - halo) + halo)


def flat_blocks(n, width=1):
    """Yield slices of range(n) in order, each of BLOCK_ELEMS // width
    items (at least one; the last may be shorter).  width is the number of
    elements an item spans in the block's temporaries, so that a block's
    temporaries hold about BLOCK_ELEMS elements each."""
    step = max(1, BLOCK_ELEMS // width)
    for a in range(0, n, step):
        yield slice(a, min(a + step, n))


def map_row_blocks(fn, shape, *args):
    """fn(*args) for an elementwise fn, evaluated one row block at a time.

    shape is the 2-D shape of the result.  Arguments with one row per
    row of shape are sliced to the block; the others (scalars, and rows
    that broadcast down the columns) pass whole.  fn returns a tuple of
    arrays; each is gathered into a fresh C-ordered array of shape.  Every
    element sees the same arithmetic as in one call on the whole arrays,
    so the result does not depend on the block size.
    """
    out = None
    for blk in row_blocks(*shape):
        part = fn(*(a[blk] if np.ndim(a) == 2 and np.shape(a)[0] > 1 else a
                    for a in args))
        if out is None:
            out = tuple(np.empty(shape) for _ in part)
        for o, p in zip(out, part):
            o[blk] = p
    return out


def cumsum_cols(increments, shape, anchor_i, start):
    """Running sums down the columns, equal to start at per-column anchors.

    S[0] = 0 and S[i] = S[i-1] + increments(rows)[i-1 - rows.start], with
    increments(rows) a fresh (len(rows), n_cols) array of the increment
    rows in the slice rows, asked for one row block at a time.  Each row
    is carried from the one above by one np.add into the output, so every
    column is summed in the sequential order of one np.cumsum over the
    whole height, bit for bit; row 1 is the first increment row itself,
    as np.cumsum starts.  Column j of the result is
    (S - S[anchor_i[j], j]) + start[j].  The anchor values are only known
    once the sweep has passed them all, so a second pass subtracts them
    and adds start, one row block at a time.  Returns a C-ordered array.
    """
    S = np.empty(shape)
    S[0] = 0.0
    for blk in row_blocks(*shape):
        a = max(blk.start, 1)
        inc = increments(slice(a - 1, blk.stop - 1))
        for k, row in enumerate(inc, a):
            if k == 1:
                S[1] = row
            else:
                np.add(S[k - 1], row, out=S[k])
    at = S[anchor_i, np.arange(shape[1])]
    for blk in row_blocks(*shape):
        S[blk] -= at
        S[blk] += start
    return S


def cumtrap_rows(F, h, anchor_j, start):
    """Cumulative trapezoid along axis 1, equal to start at per-row anchors.

    Row i of the result is (S - S[i, anchor_j[i]]) + start[i], S the
    running trapezoid sums from column 0.  Row-local, so it is formed,
    anchored and started one row block at a time; returns C order.
    """
    S = np.empty(F.shape)
    S[:, 0] = 0.0
    for blk in row_blocks(*F.shape):
        Sb = S[blk]
        inc = F[blk, 1:] + F[blk, :-1]
        inc *= 0.5 * h
        np.cumsum(inc, axis=1, out=Sb[:, 1:])
        Sb -= Sb[np.arange(len(Sb)), anchor_j[blk]][:, None]
        Sb += start[blk, None]
    return S


def cumtrap_cols(F, h, anchor_i, start):
    """Cumulative trapezoid along axis 0, equal to start at per-column
    anchors.

    Carried block by block (cumsum_cols) without a transpose; returns a
    C-ordered array, bitwise equal to one cumulative sum over the column.
    """
    half = 0.5 * h

    def increments(r):
        inc = F[r.start + 1:r.stop + 1] + F[r]
        inc *= half
        return inc
    return cumsum_cols(increments, F.shape, anchor_i, start)


def decay_weight(x, gamma):
    """(1+|x|)^(1+gamma), the weight of the decay norm at the points x."""
    return (1.0 + np.abs(x)) ** (1.0 + gamma)


def abs_max(f, g=None, axis=None):
    """np.max(np.abs(f - g), axis) of 2-D fields, one row block at a time.

    Without g it reduces |f|.  With a second iterate g of f's shape, the
    difference is formed one block at a time, and its absolute value taken
    in place: a second block-sized temporary made the reduction three times
    slower (801^2 fields, 2-core Xeon: 3.3 against 1.0 ms).  Maxima are
    exact and np.max keeps a NaN, so this is the whole-array value bit for
    bit without a full-size temporary.
    """
    parts = []
    for blk in row_blocks(*f.shape):
        if g is None:
            d = np.abs(f[blk])
        else:
            d = f[blk] - g[blk]
            np.abs(d, out=d)
        parts.append(np.max(d, axis=axis))
    return np.concatenate(parts) if axis == 1 else np.max(parts, axis=0)


def decay_sup(f, x, gamma, axis=0, g=None):
    """The decay norm sup (1+|x|)^(1+gamma) |f| of samples f at the points x.

    f is 1-D over x, or a 2-D field with x along its axis.  On a field the
    max along the other axis is taken first, in row blocks (abs_max), and
    weighted after: the weights are positive and rounding is monotone, so
    this is the sup of the weighted array bit for bit without forming it.
    A second field g of f's shape makes it the norm of f - g.
    """
    a = abs_max(f, g, 1 - axis) if np.ndim(f) == 2 else np.abs(f)
    return float(np.max(decay_weight(x, gamma) * a))


def jet_sup(grid, f, f_u, f_ub, gamma, other=(None, None, None)):
    """Size of one field's jet in the ball X_delta.

    The largest of sup |f| and the decay norms of f_u along u and of f_ub
    along ubar, taken by np.max, so a NaN in any of the three gives NaN.
    other is a second iterate's jet (g, g_u, g_ub): given, the size is
    that of the difference, reduced block by block (abs_max).
    """
    g, g_u, g_ub = other
    return float(np.max([abs_max(f, g), decay_sup(f_u, grid.u, gamma, 0, g_u),
                         decay_sup(f_ub, grid.ub, gamma, 1, g_ub)]))
