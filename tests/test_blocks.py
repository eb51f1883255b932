"""Row-block evaluation of the full-grid passes: block-size invariance,
memory order and memory budgets."""

import dataclasses
import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from conftest import SEED_PHASES, make_compatible_data, time_reversed

from nullwave import crossval as crossval_mod
from nullwave import grid as grid_mod
from nullwave import pipeline
from nullwave.crossval import (RectGrid, flux_residual, phase_shift,
                               pullback_compare, rect_solve)
from nullwave.data_gauge import (background_data, build_diagonal_data,
                                 perturbed_data)
from nullwave.dn_core import (march, rhs_wave, sigma_wave_residual,
                              verify_envelopes)
from nullwave.errors import FrameDegenerate, HyperbolicityLoss
from nullwave.geometry import (degeneracy_monitor, integrate_frame,
                               reconstruct_coords)
from nullwave.grid import (DNGrid, cumsum_cols, cumtrap_cols, cumtrap_rows,
                           jet_sup, row_blocks)
from nullwave.nonlinearity import polynomial_model
from nullwave.picard import (
    PicardConfig,
    _frozen_solve,
    _solve_xi,
    delta_from_smallness,
    in_ball,
    picard_apply,
    picard_fixed_point,
    picard_metric,
)
from nullwave.scenario import scenario_from_dict
from nullwave.state import DNState

# H' != 0, so the xi source and the xi completion are live.
POLY = polynomial_model(0.15, -0.05, 0.02)
SELECTIONS = [("psi",), ("psib",), ("xi",), ("psi", "psib", "xi")]


def _block_sizes(grid):
    """BLOCK_ELEMS giving 1-row, 7-row and whole-grid blocks."""
    n = grid.n_nodes
    return {"1row": n, "7rows": 7 * n, "whole": 2 * n * n}


def _across_blocks(monkeypatch, grid, fn):
    """fn() under each block size, keyed as in _block_sizes."""
    out = {}
    for key, elems in _block_sizes(grid).items():
        monkeypatch.setattr(grid_mod, "BLOCK_ELEMS", elems)
        out[key] = fn()
    return out


def _assert_all_equal(results):
    ref = results["whole"]
    for key, got in results.items():
        if isinstance(ref, dict):
            assert set(got) == set(ref), key
            for name in ref:
                assert np.array_equal(got[name], ref[name]), (key, name)
        elif isinstance(ref, tuple):
            assert len(got) == len(ref)
            for a, b in zip(got, ref):
                assert np.array_equal(a, b), key
        else:
            assert np.array_equal(got, ref), key


@pytest.fixture(scope="module")
def solved(bump03):
    grid = DNGrid.square(2.0, 0.1)
    data = make_compatible_data(grid, bump03)
    return grid, data, march(data, grid, POLY, bump03)


def _jets(state):
    return (state.psi, state.psib, state.dpsi_u, state.dpsi_ub,
            state.dpsib_u, state.dpsib_ub, state.dxi_u, state.dxi_ub)


# ------------------------------------------------------------- helpers


def test_row_blocks_tile_the_interior(monkeypatch):
    monkeypatch.setattr(grid_mod, "BLOCK_ELEMS", 3 * 10)
    assert list(row_blocks(8, 10)) == [slice(0, 3), slice(3, 6), slice(6, 8)]
    # halo rows of context on either side; the interiors tile 1..6
    assert list(row_blocks(8, 10, halo=1)) == [slice(0, 5), slice(3, 8)]
    monkeypatch.setattr(grid_mod, "BLOCK_ELEMS", 1)  # narrower than a row
    assert list(row_blocks(3, 10)) == [slice(0, 1), slice(1, 2), slice(2, 3)]


def test_cumtraps_match_whole_array_sums(monkeypatch):
    # The reference is one cumulative sum over the whole array, along each
    # row from column 0 and of the negated steps up each column from the
    # last row, zeroed at the anchors and then started; the carried block
    # sums must equal it bit for bit and come back C-ordered.
    grid = DNGrid.square(2.0, 0.1)
    rng = np.random.default_rng(3)
    F = rng.standard_normal((grid.n_nodes, grid.n_nodes))
    start_rows, start_cols = rng.standard_normal((2, grid.n_nodes))
    h = grid.h
    _, jd = grid.diagonal()

    def ref_rows(A, anchor, start):
        S = np.zeros_like(A)
        np.cumsum((0.5 * h) * (A[:, 1:] + A[:, :-1]), axis=1, out=S[:, 1:])
        return (S - np.take_along_axis(S, anchor[:, None], axis=1)) \
            + start[:, None]

    def ref_cols(A, anchor, start):
        S = np.zeros_like(A)
        S[:-1] = np.cumsum(-((0.5 * h) * (A[1:] + A[:-1]))[::-1], axis=0)[::-1]
        return (S - S[anchor, np.arange(A.shape[1])]) + start

    want_rows = ref_rows(F, jd, start_rows)
    want_cols = ref_cols(F, jd, start_cols)
    for elems in _block_sizes(grid).values():
        monkeypatch.setattr(grid_mod, "BLOCK_ELEMS", elems)
        rows = cumtrap_rows(F, h, jd, start_rows)
        cols = cumtrap_cols(lambda r: F[r], F.shape, h, jd, start_cols)
        assert np.array_equal(rows, want_rows)
        assert np.array_equal(cols, want_cols)
        assert rows.flags.c_contiguous and cols.flags.c_contiguous


SPECIAL = st.sampled_from([0.0, -0.0, np.inf, -np.inf, np.nan])


@st.composite
def _column_sums_case(draw):
    """(increments, anchor rows, start values, rows per block) of a random
    shape."""
    rows, cols = draw(st.integers(1, 12)), draw(st.integers(1, 7))
    values = st.one_of(SPECIAL, st.floats(-1e3, 1e3))
    inc = draw(arrays(float, (rows - 1, cols), elements=values))
    anchor = draw(arrays(np.intp, cols, elements=st.integers(0, rows - 1)))
    start = draw(arrays(float, cols, elements=values))
    return inc, anchor, start, draw(st.integers(1, rows))


@given(case=_column_sums_case())
@settings(max_examples=150)
def test_cumsum_cols_is_one_cumulative_sum(case):
    # Any block size, from one row to the whole array, and values with
    # signed zeros, infinities and NaN: the carried rows equal one
    # np.cumsum of the negated increments up the whole height minus the
    # anchor rows plus start, NaN for NaN and with the same sign on every
    # zero.
    inc, anchor, start, block_rows = case
    shape = (inc.shape[0] + 1, inc.shape[1])
    want = np.zeros(shape)
    with np.errstate(invalid="ignore"), pytest.MonkeyPatch.context() as mp:
        if shape[0] > 1:
            want[:-1] = np.cumsum(-inc[::-1], axis=0)[::-1]
        want -= want[anchor, np.arange(shape[1])]
        want += start
        mp.setattr(grid_mod, "BLOCK_ELEMS", block_rows * shape[1])
        got = cumsum_cols(lambda r: inc[r].copy(), shape, anchor, start)
    assert np.array_equal(got, want, equal_nan=True)
    zero = want == 0.0
    assert np.array_equal(np.signbit(got[zero]), np.signbit(want[zero]))
    assert got.flags.c_contiguous


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=20, phases=SEED_PHASES)
def test_column_sums_mirror_row_sums(seed):
    # Under (i, j) -> (N - j, N - i) a row is summed from column 0, the
    # image of the last row, where the column sums start: the row
    # trapezoid of the reflected field, started at the reflected values,
    # is the negated reflection of the column trapezoid bit for bit, at
    # any block size.
    grid = DNGrid.square(2.0, 0.1)
    rng = np.random.default_rng(seed)
    F = rng.standard_normal((grid.n_nodes, grid.n_nodes))
    start = rng.standard_normal(grid.n_nodes)
    _, jd = grid.diagonal()
    mirrored = cumtrap_rows(time_reversed(F), grid.h, jd, -start[::-1])
    with pytest.MonkeyPatch.context() as mp:
        for rows in (1, 2, 3, 4, grid.n_nodes):
            mp.setattr(grid_mod, "BLOCK_ELEMS", rows * grid.n_nodes)
            cols = cumtrap_cols(lambda r: F[r], F.shape, grid.h, jd, start)
            assert np.array_equal(mirrored, time_reversed(cols, -1.0)), rows


# ------------------------------------------------- block-size invariance


@pytest.mark.parametrize("sources", SELECTIONS, ids="+".join)
def test_rhs_wave_is_block_invariant(monkeypatch, solved, bump03, sources):
    grid, _, st_ = solved
    zp, zpp = bump03.dzeta(grid.ub), bump03.d2zeta(grid.ub)
    got = _across_blocks(monkeypatch, grid, lambda: rhs_wave(
        POLY, zp, zpp, *_jets(st_), sources=sources))
    _assert_all_equal(got)
    assert len(got["whole"]) == len(sources)
    assert all(np.any(f != 0.0) for f in got["whole"])


def test_frozen_solve_is_block_invariant(monkeypatch, solved, bump03):
    grid, data, st_ = solved
    F = rhs_wave(POLY, bump03.dzeta(grid.ub), bump03.d2zeta(grid.ub),
                 *_jets(st_))
    sources = dict(zip(("psi", "psib", "xi"), F))
    _assert_all_equal(_across_blocks(
        monkeypatch, grid, lambda: _frozen_solve(grid, data, sources)))


def test_picard_passes_are_block_invariant(monkeypatch, solved, bump03):
    grid, data, st_ = solved
    images = _across_blocks(monkeypatch, grid, lambda: picard_apply(
        st_, data, grid, POLY, bump03))
    _assert_all_equal({k: s.arrays() for k, s in images.items()})
    completed = _across_blocks(monkeypatch, grid, lambda: _solve_xi(
        images["whole"], data, grid, POLY, bump03, 1e-12, 40))
    _assert_all_equal({k: s.arrays() for k, s in completed.items()})
    for state in (images["whole"], completed["whole"]):
        for name, arr in state.arrays().items():
            assert arr.flags.c_contiguous, name

    metrics = _across_blocks(monkeypatch, grid, lambda: picard_metric(
        images["whole"], DNState.zeros(grid), data.gamma_bar))
    assert len(set(metrics.values())) == 1 and metrics["whole"] > 0.0
    _assert_all_equal(_across_blocks(monkeypatch, grid, lambda: (
        sigma_wave_residual(st_, POLY, bump03),)))


def test_flux_residual_is_block_invariant(monkeypatch, membrane, bump03):
    # Time-row blocks with a one-row halo: the sup is the whole history's
    # bit for bit, and a NaN shows in any block, on a first or last time
    # row or a boundary column too.  The grid only sets the block sizes:
    # its rows are as wide as the history's.
    grid = DNGrid.square(2.0, 0.1)
    rect = rect_solve(perturbed_data(bump03, eps=1e-2, center=0.5, width=1.2),
                      membrane, RectGrid(-2.0, 2.0, 0.1, 1.0), bump03)
    n_rows, n_x = rect.phi.shape
    assert n_x == grid.n_nodes and n_rows > 7
    sups = _across_blocks(monkeypatch, grid,
                          lambda: flux_residual(rect, membrane))
    assert len(set(sups.values())) == 1 and sups["whole"] > 0.0
    for at in ((0, 7), (5, 0), (n_rows - 1, 20)):
        Phi0 = rect.Phi0.copy()
        Phi0[at] = np.nan
        bad = dataclasses.replace(rect, Phi0=Phi0)
        sups = _across_blocks(monkeypatch, grid,
                              lambda: flux_residual(bad, membrane))
        assert all(np.isnan(v) for v in sups.values()), at


def test_decay_norms_are_block_invariant(monkeypatch, solved):
    # Row and column maxima taken block by block are exact, and a NaN in
    # any slot of a jet shows whichever block holds it.
    grid, _, st_ = solved
    _assert_all_equal(_across_blocks(
        monkeypatch, grid, lambda: verify_envelopes(st_, 0.5)))
    jet = [st_.psib, st_.dpsib_u, st_.dpsib_ub]
    for k in range(3):
        bad = list(jet)
        bad[k] = bad[k].copy()
        bad[k][13, 4] = np.nan
        sups = _across_blocks(monkeypatch, grid,
                              lambda: jet_sup(grid, *bad, 0.5))
        assert all(np.isnan(v) for v in sups.values()), k


def test_fixed_point_state_is_c_ordered(membrane, bump03):
    grid = DNGrid.square(2.0, 0.1)
    data, _ = build_diagonal_data(perturbed_data(bump03, eps=1e-3), grid,
                                  membrane, bump03)
    cfg = PicardConfig(delta=delta_from_smallness(data.eps0, data.gamma_bar))
    fixed, _ = picard_fixed_point(data, grid, membrane, bump03, cfg)
    for name, arr in fixed.arrays().items():
        assert arr.flags.c_contiguous, name


def test_hyperbolicity_loss_names_the_same_node_in_any_block(monkeypatch,
                                                             membrane):
    # Two inadmissible rows (membrane: sigma <= -1), the earlier one with
    # two bad nodes.  Whatever the blocks, the message names the first bad
    # value in row-major order, though with 1-row blocks it comes from the
    # 21st block.
    grid = DNGrid.square(2.0, 0.1)
    n = grid.n_nodes
    psi, psib = np.zeros((n, n)), np.zeros((n, n))
    psi[20, 9], psib[20, 9] = 1.5, 1.5      # sigma -2.25
    psi[20, 4], psib[20, 4] = 1.3, 1.3      # sigma -1.69, first in its row
    psi[30, 2], psib[30, 2] = 1.1, 1.1      # sigma -1.21
    z = np.zeros((n, n))

    def message():
        with pytest.raises(HyperbolicityLoss) as exc:
            rhs_wave(membrane, 0.0, 0.0, psi, psib, z, z, z, z, z, z)
        return str(exc.value)

    got = _across_blocks(monkeypatch, grid, message)
    assert "-1.69" in got["whole"]
    assert set(got.values()) == {got["whole"]}


def _fields(product):
    """A NullFrame's or CoordMap's fields but its grid and frame."""
    return {f.name: getattr(product, f.name)
            for f in dataclasses.fields(product)
            if f.name not in ("grid", "frame")}


def test_geometry_layers_are_block_invariant(monkeypatch, bump03):
    # The frame transport's coefficient stack, its closing pass (conformal
    # factor and nullity maxima), and the coordinate map's row pass and
    # column sums.
    grid = DNGrid.square(2.0, 0.1)
    data, gauge = build_diagonal_data(
        perturbed_data(bump03, eps=1e-2, width=1.5), grid, POLY, bump03)
    st_ = march(data, grid, POLY, bump03)
    frames = _across_blocks(monkeypatch, grid, lambda: integrate_frame(
        st_, gauge, POLY, bump03))
    _assert_all_equal({k: _fields(f) for k, f in frames.items()})
    _assert_all_equal({k: f.nullity for k, f in frames.items()})
    assert min(frames["whole"].nullity.values()) > 0.0
    coords = _across_blocks(monkeypatch, grid, lambda: reconstruct_coords(
        frames["whole"], POLY, bump03))
    _assert_all_equal({k: _fields(c) for k, c in coords.items()})
    assert coords["whole"].curl_sup > 0.0


def test_frame_degenerate_names_the_same_node_in_any_block(monkeypatch,
                                                           linear, zero_prof):
    # Linear model on the zero profile: the frame is constant along the
    # transports, so flipping L^0 on diagonal node 20 breaks g(L, Lbar) on
    # all of row 20 and nowhere else.  Whatever the blocks, the message
    # names the row's first node, though with 1-row blocks it comes from
    # the 21st block.
    grid = DNGrid.square(2.0, 0.1)
    data, gauge = build_diagonal_data(background_data(zero_prof), grid,
                                      linear, zero_prof)
    st_ = march(data, grid, linear, zero_prof)
    L0 = gauge.L0.copy()
    L0[20] = 3.0
    flipped = dataclasses.replace(gauge, L0=L0)

    def message():
        with pytest.raises(FrameDegenerate) as exc:
            integrate_frame(st_, flipped, linear, zero_prof)
        return str(exc.value)

    got = _across_blocks(monkeypatch, grid, message)
    assert f"({grid.u[20]:.6g}, {grid.ub[0]:.6g})" in got["whole"]
    assert set(got.values()) == {got["whole"]}


# ------------------------------------------------------- memory budgets


@pytest.fixture(scope="module")
def radius3(membrane, bump03):
    grid = DNGrid.square(3.0, 0.05)
    data, gauge = build_diagonal_data(
        perturbed_data(bump03, eps=1e-3, center=0.5, width=1.2),
        grid, membrane, bump03)
    return grid, data, march(data, grid, membrane, bump03), gauge


def test_march_memory_budget(peak_fields, radius3, membrane, bump03):
    # The nine unknowns, plus the two fronts the walk carries (the older
    # one as its values and sources only) and the per-front arrays, each
    # for both triangles at once; neither the sources nor the slaved sigma
    # are stored.
    grid, data, _, _ = radius3
    assert peak_fields(lambda: march(data, grid, membrane, bump03),
                       grid) <= 10.5


def test_envelope_sups_memory_budget(peak_fields, radius3):
    # The ball check and the envelope fits reduce each field per row
    # block: no full-size np.abs temporary.
    grid, data, st_, _ = radius3
    assert peak_fields(lambda: (in_ball(st_, 0.1, data.gamma_bar),
                                verify_envelopes(st_, data.gamma_bar)),
                       grid, rows=8) <= 0.5


def test_picard_apply_memory_budget(peak_fields, radius3, membrane, bump03):
    # The six fresh jets plus one stage's source: the sources and frozen
    # solves hold block-sized temporaries only.
    grid, data, st_, _ = radius3
    assert peak_fields(lambda: picard_apply(
        st_, data, grid, membrane, bump03), grid, rows=8) <= 8.7


def test_picard_fixed_point_memory_budget(peak_fields, radius3, membrane,
                                          bump03):
    grid, data, _, _ = radius3
    cfg = PicardConfig(delta=delta_from_smallness(data.eps0, data.gamma_bar))
    assert peak_fields(lambda: picard_fixed_point(
        data, grid, membrane, bump03, cfg), grid, rows=8) <= 22.8


def test_sigma_wave_residual_memory_budget(peak_fields, radius3, membrane,
                                           bump03):
    # Block-sized temporaries only: the sup is reduced per block, so no
    # (N-1, N+1) result is formed.
    grid, _, st_, _ = radius3
    assert peak_fields(lambda: sigma_wave_residual(
        st_, membrane, bump03), grid, rows=8) <= 1.2


def test_flux_residual_memory_budget(peak_fields, radius3, membrane, bump03):
    # The membrane_pulse template's rectangle at radius 3 (see the pullback
    # budget), with 8-row blocks: block-sized temporaries only (0.62
    # fields; 10.72 when sig, w, At, Ax and the differences were formed
    # over the whole history).
    grid = radius3[0]
    rect = rect_solve(perturbed_data(bump03, eps=1e-3, center=0.5, width=1.2),
                      membrane, RectGrid(-5.0, 5.0, 0.05, 2.0), bump03)
    assert peak_fields(lambda: flux_residual(rect, membrane),
                       grid, rows=8) <= 0.7


def test_geometry_memory_budgets(peak_fields, radius3, membrane, bump03):
    # With 8-row blocks.  The transport: the 13 stacked coefficients, the
    # deviations (4), which become the frame in place, and Omega; the
    # nullity is reduced in the closing pass, per block.  The coordinate
    # map: the two column sums, which become t and x in place, detj and
    # block-sized legs read from row views (3.67 fields; 5.64-5.67 when t
    # and x were stored beside the column sums, 5.84 when each block
    # gathered both legs by np.take, 9.63 when it stored the four tangent
    # grids too).
    # The monitor: block-sized masks and |X| temporaries only (0.27 fields;
    # 1.64 when it formed them whole), and the frame-deviation sups reduce
    # per block (2.63 fields when each formed two full-size temporaries).
    # Each call runs once untraced first, so one-time allocations do not
    # count.
    grid, _, st_, gauge = radius3
    frame = integrate_frame(st_, gauge, membrane, bump03)
    assert peak_fields(lambda: integrate_frame(
        st_, gauge, membrane, bump03), grid, rows=8) <= 19.5
    coords = reconstruct_coords(frame, membrane, bump03)
    assert peak_fields(lambda: reconstruct_coords(
        frame, membrane, bump03), grid, rows=8) <= 4.0
    degeneracy_monitor(frame, coords)
    assert peak_fields(lambda: degeneracy_monitor(frame, coords),
                       grid, rows=8) <= 0.3


def test_phase_shift_memory_budget(peak_fields, radius3, membrane, bump03):
    # D is formed on the two ubar-edge columns only: a few u-rows' worth,
    # not a field (2.57 fields when it was formed on the whole grid).
    grid, _, st_, gauge = radius3
    coords = reconstruct_coords(integrate_frame(st_, gauge, membrane, bump03),
                                membrane, bump03)
    assert peak_fields(lambda: phase_shift(coords), grid) <= 0.25


def test_pullback_memory_budget(peak_fields, radius3, membrane, bump03):
    # The membrane_pulse template's rectangle at radius 3 (half-width 5,
    # dx 0.05, t <= 2): 19,899 walkers against 14,641 nodes a field.  The
    # phase quadrature on the walkers sets the peak (19.4 fields; 21.42
    # when it kept 8 values per panel for one BLAS product, 38.27 when it
    # evaluated every panel at once): its per-panel arrays and one
    # 4,096-panel block's temporaries.  The Newton chunks and the sampling
    # hold 4,096 walkers' temporaries.
    grid, _, st_, gauge = radius3
    coords = reconstruct_coords(integrate_frame(st_, gauge, membrane, bump03),
                                membrane, bump03)
    rect = rect_solve(perturbed_data(bump03, eps=1e-3, center=0.5, width=1.2),
                      membrane, RectGrid(-5.0, 5.0, 0.05, 2.0), bump03)
    assert rect.phi.size == 19899
    pullback_compare(st_, coords, rect, membrane, bump03)
    assert peak_fields(lambda: pullback_compare(
        st_, coords, rect, membrane, bump03), grid) <= 21.6


SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"
LAYERS_FROM_FIXED_POINT = ("picard_fixed_point", "contraction_ratio",
                           "integrate_frame", "reconstruct_coords",
                           "degeneracy_monitor")


def _whole_run_peaks(monkeypatch, raw, layers, rows=None):
    """Traced peak of each named layer of run_pipeline while it runs, in
    fields of raw's grid, with everything alive at the time counted.

    layers are (module, name) pairs that the pipeline calls through the
    module.  A radius-1 run first makes the one-time allocations.  With
    rows, the row blocks hold that many rows of the grid.
    """
    small = dict(raw, grid={"radius": 1.0, "h": 0.1})
    pipeline.run_pipeline(scenario_from_dict(small))
    grid = DNGrid.square(raw["grid"]["radius"], raw["grid"]["h"])
    if rows is not None:
        monkeypatch.setattr(grid_mod, "BLOCK_ELEMS", rows * grid.n_nodes)

    peaks = {}

    def traced(name, fn):
        def run(*args, **kwargs):
            tracemalloc.reset_peak()
            try:
                return fn(*args, **kwargs)
            finally:
                peaks[name] = tracemalloc.get_traced_memory()[1] \
                    / (8 * grid.n_nodes ** 2)
        return run

    for module, name in layers:
        monkeypatch.setattr(module, name, traced(name, getattr(module, name)))
    tracemalloc.start()
    try:
        result = pipeline.run_pipeline(scenario_from_dict(raw))
    finally:
        tracemalloc.stop()
    assert result.report["ok"], result.report["errors"]
    assert set(peaks) == {name for _, name in layers}
    return peaks


def test_no_later_layer_peaks_above_the_fixed_point(monkeypatch):
    # With everything alive at the time (the march state's 9 fields among
    # them), 8-row blocks and the membrane_pulse template at radius 3, the
    # fixed point sets the run's peak; no picard or geometry layer after it
    # rises above it.  crossval is off: at radius 3 its window t <= 2
    # covers most of the square, and pullback_compare (31.8 fields: 21.8
    # alive when it starts, 10.0 its own) would set the peak against the
    # fixed point's 29.8.  flux_residual, reduced per block of
    # time rows, peaks at 22.4 (36.6 when it formed its terms whole and
    # the coordinate map still stored four tangent grids).
    raw = json.loads((SCENARIOS / "membrane_pulse.json").read_text())
    raw["solver"]["crossval"] = False
    raw["grid"] = {"radius": 3.0, "h": 0.05}
    peaks = _whole_run_peaks(
        monkeypatch, raw,
        [(pipeline, name) for name in LAYERS_FROM_FIXED_POINT], rows=8)
    fixed = peaks.pop("picard_fixed_point")
    assert max(peaks.values()) <= fixed, (fixed, peaks)


def test_shipped_pullback_peaks_below_the_fixed_point(monkeypatch):
    # membrane_pulse as shipped (radius 6): the pullback, with everything
    # alive at the time, peaks at 26.0 fields against the fixed point's
    # 32.5 (30.0 while the coordinate map stored four tangent grids, 38.05
    # when the Newton and the phase quadrature took every walker and
    # panel at once).
    raw = json.loads((SCENARIOS / "membrane_pulse.json").read_text())
    peaks = _whole_run_peaks(monkeypatch, raw, [
        (pipeline, "picard_fixed_point"), (crossval_mod, "pullback_compare")])
    assert peaks["pullback_compare"] <= peaks["picard_fixed_point"], peaks


def test_radius3_pullback_whole_run_budget(monkeypatch):
    # The case of test_no_later_layer_peaks_above_the_fixed_point with
    # crossval on.  The coordinate map holds t, x and detj; the Newton
    # tangents are the frame's legs (NullFrame.legs), gathered at the
    # cells' corners, so no tangent grid is alive: 31.8 fields (35.75 when
    # the map stored four of them).
    raw = json.loads((SCENARIOS / "membrane_pulse.json").read_text())
    raw["grid"] = {"radius": 3.0, "h": 0.05}
    peaks = _whole_run_peaks(
        monkeypatch, raw, [(crossval_mod, "pullback_compare")], rows=8)
    assert peaks["pullback_compare"] <= 32.0, peaks
