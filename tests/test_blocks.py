"""Row-block evaluation of the full-grid passes: block-size invariance,
memory order and memory budgets."""

import dataclasses
import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from conftest import make_compatible_data

from nullwave import grid as grid_mod
from nullwave import pipeline
from nullwave.crossval import phase_shift
from nullwave.data_gauge import (background_data, build_diagonal_data,
                                 perturbed_data)
from nullwave.dn_core import (march, rhs_wave, sigma_wave_residual,
                              verify_envelopes)
from nullwave.errors import FrameDegenerate, HyperbolicityLoss
from nullwave.geometry import (integrate_frame, nullity_residual,
                               reconstruct_coords)
from nullwave.grid import (DNGrid, cumtrap_cols, cumtrap_rows, jet_sup,
                           row_blocks)
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
    # The reference is one cumulative sum over the whole array (through a
    # transposed copy for the columns); the carried block sums must equal
    # it bit for bit and come back C-ordered.
    grid = DNGrid.square(2.0, 0.1)
    F = np.random.default_rng(3).standard_normal((grid.n_nodes, grid.n_nodes))
    h = grid.h
    _, jd = grid.diagonal()

    def ref_rows(A, anchor):
        S = np.zeros_like(A)
        np.cumsum((0.5 * h) * (A[:, 1:] + A[:, :-1]), axis=1, out=S[:, 1:])
        return S - np.take_along_axis(S, anchor[:, None], axis=1)

    want_rows = ref_rows(F, jd)
    want_cols = ref_rows(np.ascontiguousarray(F.T), jd).T
    for elems in _block_sizes(grid).values():
        monkeypatch.setattr(grid_mod, "BLOCK_ELEMS", elems)
        rows, cols = cumtrap_rows(F, h, jd), cumtrap_cols(F, h, jd)
        assert np.array_equal(rows, want_rows)
        assert np.array_equal(cols, want_cols)
        assert rows.flags.c_contiguous and cols.flags.c_contiguous


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
    """A NullFrame's or CoordMap's fields but its grid."""
    return {f.name: getattr(product, f.name)
            for f in dataclasses.fields(product) if f.name != "grid"}


def test_geometry_layers_are_block_invariant(monkeypatch, bump03):
    # The frame transport's coefficient stack and conformal factor, the
    # coordinate map's row pass and column sums, and the nullity maxima.
    grid = DNGrid.square(2.0, 0.1)
    data, gauge = build_diagonal_data(
        perturbed_data(bump03, eps=1e-2, width=1.5), grid, POLY, bump03)
    st_ = march(data, grid, POLY, bump03)
    frames = _across_blocks(monkeypatch, grid, lambda: integrate_frame(
        st_, gauge, POLY, bump03))
    _assert_all_equal({k: _fields(f) for k, f in frames.items()})
    coords = _across_blocks(monkeypatch, grid, lambda: reconstruct_coords(
        frames["whole"], POLY, bump03))
    _assert_all_equal({k: _fields(c) for k, c in coords.items()})
    assert coords["whole"].curl_sup > 0.0
    nulls = _across_blocks(monkeypatch, grid, lambda: nullity_residual(
        st_, frames["whole"], POLY, bump03))
    _assert_all_equal(nulls)
    assert min(nulls["whole"].values()) > 0.0


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
    # The nine unknowns, plus the two fronts the sweep carries and the
    # per-front arrays; neither the sources nor the slaved sigma are stored.
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


def test_geometry_memory_budgets(peak_fields, radius3, membrane, bump03):
    # With 8-row blocks.  The transport: the 13 stacked coefficients, the
    # deviations (4), which become the frame in place, and Omega.  The
    # coordinate map: its 7 outputs and the two column sums.  The nullity
    # residual: block-sized temporaries only.  Each call runs once untraced
    # first, so one-time allocations do not count.
    grid, _, st_, gauge = radius3
    frame = integrate_frame(st_, gauge, membrane, bump03)
    assert peak_fields(lambda: integrate_frame(
        st_, gauge, membrane, bump03), grid, rows=8) <= 19.5
    reconstruct_coords(frame, membrane, bump03)
    assert peak_fields(lambda: reconstruct_coords(
        frame, membrane, bump03), grid, rows=8) <= 10.5
    nullity_residual(st_, frame, membrane, bump03)
    assert peak_fields(lambda: nullity_residual(
        st_, frame, membrane, bump03), grid, rows=8) <= 1.5


def test_phase_shift_memory_budget(peak_fields, radius3, membrane, bump03):
    # D is formed on the two ubar-edge columns only: a few u-rows' worth,
    # not a field (2.57 fields when it was formed on the whole grid).
    grid, _, st_, gauge = radius3
    coords = reconstruct_coords(integrate_frame(st_, gauge, membrane, bump03),
                                membrane, bump03)
    assert peak_fields(lambda: phase_shift(coords), grid) <= 0.25


SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"
LAYERS_FROM_FIXED_POINT = ("picard_fixed_point", "contraction_ratio",
                           "integrate_frame", "reconstruct_coords",
                           "degeneracy_monitor", "nullity_residual")


def test_no_later_layer_peaks_above_the_fixed_point(monkeypatch):
    # Traced peak of each layer of run_pipeline while it runs, in fields,
    # with everything alive at the time (the march state's 9 among them),
    # 8-row blocks and the membrane_pulse template at radius 3.  The
    # fixed point sets the run's peak; no picard or geometry layer after it
    # rises above it.  crossval is off: at radius 3 its window t <= 1.2
    # covers most of the square, so the pullback's per-node arrays, which
    # at radius 20 cover a thin band only, would set the peak here.
    raw = json.loads((SCENARIOS / "membrane_pulse.json").read_text())
    raw["solver"]["crossval"] = False
    raw["grid"] = {"radius": 1.0, "h": 0.1}
    pipeline.run_pipeline(scenario_from_dict(raw))  # one-time allocations
    raw["grid"] = {"radius": 3.0, "h": 0.05}
    grid = DNGrid.square(3.0, 0.05)
    monkeypatch.setattr(grid_mod, "BLOCK_ELEMS", 8 * grid.n_nodes)

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

    for name in LAYERS_FROM_FIXED_POINT:
        monkeypatch.setattr(pipeline, name,
                            traced(name, getattr(pipeline, name)))
    tracemalloc.start()
    try:
        result = pipeline.run_pipeline(scenario_from_dict(raw))
    finally:
        tracemalloc.stop()
    assert result.report["ok"], result.report["errors"]
    fixed = peaks.pop("picard_fixed_point")
    assert set(peaks) == set(LAYERS_FROM_FIXED_POINT[1:])
    assert max(peaks.values()) <= fixed, (fixed, peaks)
