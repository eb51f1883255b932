import csv

import numpy as np
import pytest

from nullwave.errors import GridMismatch
from nullwave.grid import (DNGrid, both_halves, decay_sup, decay_weight,
                           iterate_halves)
from nullwave.state import (
    CSV_COLUMNS,
    DiagonalData,
    DNState,
    sigma_jet,
    sigma_of,
    write_grid_csv,
)


def test_square_grid_layout():
    g = DNGrid.square(6.0, 0.02)
    assert g.N == 600
    assert g.n_nodes == 601
    assert g.u[0] == -6.0 and g.u[-1] == 6.0
    assert g.ub[0] == -6.0 and g.ub[-1] == 6.0
    assert np.max(np.abs(np.diff(g.u) - g.h)) < 1e-12


def test_diagonal_pairing_is_bitwise():
    # ubar on the t=0 diagonal must be exactly -u, not merely close
    g = DNGrid.square(7.3, 0.1)
    i, j = g.diagonal()
    assert np.array_equal(i, np.arange(g.N + 1))
    assert np.array_equal(i + j, np.full(g.N + 1, g.N))
    assert np.array_equal(g.ub[j], -g.u[i])


@pytest.mark.parametrize("grid", [DNGrid.square(1.0, 0.25), DNGrid(-1.0, 2.0, 0.5)],
                         ids=["N8", "N6"])
def test_fronts_partition_the_square(grid):
    N = grid.N
    i, j = np.indices((N + 1, N + 1))
    count = np.zeros((N + 1, N + 1), dtype=int)
    for d in (1, -1):
        prev = set(zip(*grid.diagonal()))
        for m, (ii, jj) in enumerate(grid.fronts(d), 1):
            assert np.all(ii + jj == N + d * m)
            assert np.all(np.diff(ii) == 1)
            for a, b in zip(ii, jj):
                assert (a - d, b) in prev and (a, b - d) in prev
            prev = set(zip(ii, jj))
            count[ii, jj] += 1
        # each triangle is covered exactly once by its own direction
        assert np.all(count[(i + j - N) * d > 0] == 1)
    assert np.all(count[i + j == N] == 0)
    assert np.all(count[i + j != N] == 1)


@pytest.mark.parametrize("grid", [DNGrid.square(1.0, 0.25), DNGrid(-1.0, 2.0, 0.5)],
                         ids=["N8", "N6"])
@pytest.mark.parametrize("d", [1, -1])
def test_predecessors_slice_the_previous_fronts(grid, d):
    # W and S slice the previous front (the diagonal for m = 1) into each
    # node's u- and ubar-predecessor, swapped for the past triangle; [1:-1]
    # of the front before holds the across-corner
    sW, sS = grid.predecessors()[::d]
    prev, older = grid.diagonal(), None
    for m, (ii, jj) in enumerate(grid.fronts(d), 1):
        pi, pj = prev
        assert np.array_equal(pi[sW], ii - d) and np.array_equal(pj[sW], jj)
        assert np.array_equal(pi[sS], ii) and np.array_equal(pj[sS], jj - d)
        if m >= 2:
            assert np.array_equal(older[0][1:-1], ii - d)
            assert np.array_equal(older[1][1:-1], jj - d)
        prev, older = (ii, jj), prev


@pytest.mark.parametrize("grid", [DNGrid.square(1.0, 0.25), DNGrid(-1.0, 2.0, 0.5)],
                         ids=["N8", "N6"])
def test_joint_fronts_share_the_predecessor_slices(grid):
    # Front m of both triangles, the past half mirrored (u descending):
    # predecessors() slices the previous joint front (the diagonal as both
    # halves for m = 1) into both halves' u- and ubar-predecessors, and
    # [1:-1] of the joint front before holds both halves' across-corners.
    d = np.array([[1], [-1]])
    sW, sS = grid.predecessors()
    prev, older = both_halves(np.array(grid.diagonal())), None
    joint = list(grid.joint_fronts())
    assert len(joint) == grid.N
    for m, ((ii, jj), fut, past) in enumerate(
            zip(joint, grid.fronts(1), grid.fronts(-1)), 1):
        assert np.array_equal(ii[0], fut[0]) and np.array_equal(jj[0], fut[1])
        assert np.array_equal(ii[1], past[0][::-1])
        assert np.array_equal(jj[1], past[1][::-1])
        pi, pj = prev
        assert np.array_equal(pi[:, sW], ii - d)
        assert np.array_equal(pj[:, sW], jj)
        assert np.array_equal(pi[:, sS], ii)
        assert np.array_equal(pj[:, sS], jj - d)
        if m >= 2:
            assert np.array_equal(older[0][:, 1:-1], ii - d)
            assert np.array_equal(older[1][:, 1:-1], jj - d)
        prev, older = (ii, jj), prev


@pytest.mark.parametrize("stops,calls,left", [
    ((1, 3), [(0, 2), (1, 2), (1, 2)], []),
    ((3, 1), [(0, 2), (0, 1), (0, 1)], []),
    ((2, 2), [(0, 2), (0, 2)], []),
    ((6, 2), [(0, 2), (0, 2), (0, 1), (0, 1)], [0]),
    ((2, 6), [(0, 2), (0, 2), (1, 2), (1, 2)], [1]),
    ((5, 6), [(0, 2)] * 4, [0, 1]),
    ((3,), [(0, 1)] * 3, []),
])
def test_iterate_halves_stops_each_half_on_its_own(stops, calls, left):
    # Half h asks to stop at its stops[h]-th step (n_it = 4): a stopped
    # half is left out of the later calls, the other goes on alone, step
    # runs at most n_it times, and the halves that never stopped return.
    got, steps = [], [0] * len(stops)

    def step(a):
        got.append((a.start, a.stop))
        for h in range(a.start, a.stop):
            steps[h] += 1
        return [steps[h] >= stops[h] for h in range(a.start, a.stop)]

    assert iterate_halves(step, len(stops), 4) == left
    assert got == calls
    assert steps == [min(s, 4) for s in stops]


def test_grid_rejects_uneven_spacing():
    with pytest.raises(GridMismatch):
        DNGrid(-1.0, 1.0, 0.7)
    with pytest.raises(GridMismatch):
        DNGrid(1.0, -1.0, 0.1)
    with pytest.raises(GridMismatch):
        DNGrid(-1.0, 1.0, -0.5)


def test_grid_arrays_read_only():
    g = DNGrid.square(1.0, 0.5)
    with pytest.raises(ValueError):
        g.u[0] = 99.0
    with pytest.raises(ValueError):
        g.ub[0] = 99.0


def test_grid_same_as():
    a = DNGrid.square(2.0, 0.1)
    b = DNGrid(-2.0, 2.0, 0.1)
    c = DNGrid.square(2.0, 0.05)
    assert a.same_as(b)
    assert not a.same_as(c)
    with pytest.raises(GridMismatch):
        a.require_same(c)


def test_grid_require_nodes():
    g = DNGrid.square(2.0, 0.25)
    g.require_nodes(g.u, "data")
    g.require_nodes(g.u + 1e-12, "data")  # within 1e-9 (1 + max|u|)
    for x in (g.u[:-1], g.u + 1e-6, np.where(g.u == 0.0, np.nan, g.u)):
        with pytest.raises(GridMismatch):
            g.require_nodes(x, "data")
    assert g.where(0, g.N) == "node (u=-2, ubar=2)"


def test_state_zeros_freeze():
    g = DNGrid.square(1.0, 0.25)
    st = DNState.zeros(g)
    assert set(st.arrays()) == {
        "psi", "psib", "xi",
        "dpsi_u", "dpsi_ub", "dpsib_u", "dpsib_ub", "dxi_u", "dxi_ub",
    }
    st.freeze()
    with pytest.raises(ValueError):
        st.psi[0, 0] = 1.0


def test_sigma_composition_values():
    # sigma = -psi (2 zp + psib) and its two derivative compositions
    psi, psib, zp, zpp = 0.2, -0.1, 0.3, 0.05
    assert sigma_of(psi, psib, zp) == pytest.approx(-0.2 * 0.5)
    sig, s_u, s_ub = sigma_jet(psi, psib, 0.7, 0.7, 0.4, 0.4, zp, zpp)
    assert sig == sigma_of(psi, psib, zp)
    assert s_u == pytest.approx(-0.7 * 0.5 - 0.2 * 0.4)
    assert s_ub == pytest.approx(-0.7 * 0.5 - 0.2 * (2 * 0.05 + 0.4))


def test_diagonal_data_measures_eps0():
    s = np.array([0.0, 1.0])
    fields = {name: np.zeros(2) for name in (
        "psi", "psib", "xi", "sigma",
        "dpsi_u", "dpsi_ub", "dpsib_u", "dpsib_ub", "dxi_u", "dxi_ub",
    )}
    fields["psi"] = np.array([0.1, 0.2])
    data = DiagonalData(s=s, gamma_bar=1.0, **fields)
    # max over fields of |field| (1+|s|)^2: max(0.1, 0.2 * 4) = 0.8
    assert data.eps0 == pytest.approx(0.8, rel=1e-12)


def _bits(v):
    return np.float64(v).view(np.int64)


def _norm_samples(rng, shape, infinite):
    """Random values with ties, +-0.0 and, if asked, one +-inf."""
    f = np.round(rng.standard_normal(shape), 1) * 10.0 ** rng.integers(-3, 4)
    flat = f.reshape(-1)
    pick = rng.choice(flat.size, size=4, replace=False)
    flat[pick[:2]] = (0.0, -0.0)
    if infinite:
        flat[pick[2]] = rng.choice((np.inf, -np.inf))
    return f


@pytest.mark.parametrize("gamma", [0.5, 1.0, 2.0])
def test_decay_sup_is_max_of_weighted_array(gamma):
    # decay_sup never forms the weighted array; its value must still be
    # that array's max, bit for bit, in 1-D and along either axis in 2-D
    rng = np.random.default_rng(7)
    x0, x1 = np.linspace(-2.0, 7.0, 17), np.linspace(-6.0, 1.0, 13)
    w0, w1 = decay_weight(x0, gamma), decay_weight(x1, gamma)
    for trial in range(40):
        infinite = trial % 8 == 0
        f = _norm_samples(rng, x0.size, infinite)
        assert _bits(decay_sup(f, x0, gamma)) == _bits(np.max(w0 * np.abs(f)))
        F = _norm_samples(rng, (x0.size, x1.size), infinite)
        assert _bits(decay_sup(F, x0, gamma, 0)) == \
            _bits(np.max(w0[:, None] * np.abs(F)))
        assert _bits(decay_sup(F.T, x0, gamma, 1)) == \
            _bits(np.max(w0[None, :] * np.abs(F.T)))
        assert _bits(decay_sup(F, x1, gamma, 1)) == \
            _bits(np.max(w1[None, :] * np.abs(F)))


def _write_state_csv(st, path):
    sigma = sigma_of(st.psi, st.psib, 0.0)
    write_grid_csv(path, st.grid, {c: sigma if c == "sigma" else getattr(st, c)
                                   for c in CSV_COLUMNS[2:]})


def test_state_csv_round_trip(tmp_path):
    g = DNGrid.square(0.5, 0.25)
    st = DNState.zeros(g)
    st.psi[:] = np.arange(st.psi.size).reshape(st.psi.shape) * (1.0 / 3.0)
    path = tmp_path / "state.csv"
    _write_state_csv(st, path)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert tuple(rows[0]) == CSV_COLUMNS
    assert len(rows) == 1 + g.n_nodes**2
    # row-major in u then ubar: second row is (u_0, ub_1)
    assert float(rows[2][0]) == g.u[0]
    assert float(rows[2][1]) == g.ub[1]
    # repr round trip preserves the exact float
    k = CSV_COLUMNS.index("psi")
    assert float(rows[1][k]) == st.psi[0, 0]
    assert float(rows[-1][k]) == st.psi[-1, -1]


def test_state_csv_deterministic(tmp_path):
    g = DNGrid.square(0.5, 0.25)
    st = DNState.zeros(g)
    st.xi[:] = 0.1 * np.sin(np.arange(st.xi.size)).reshape(st.xi.shape)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    _write_state_csv(st, p1)
    _write_state_csv(st, p2)
    assert p1.read_bytes() == p2.read_bytes()
