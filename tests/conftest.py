import tracemalloc

import numpy as np
import pytest
from hypothesis import Phase, settings

from nullwave import grid as grid_mod
from nullwave.background import bump_profile, zero_profile
from nullwave.grid import DNGrid
from nullwave.nonlinearity import linear_model, membrane_model
from nullwave.state import DiagonalData, sigma_of

# Property tests draw the same examples on every run, so the tier-1 result
# does not depend on a random draw; no per-example deadline, because the
# solver examples take a variable share of a busy machine.
settings.register_profile("nullwave", derandomize=True, deadline=None)
settings.load_profile("nullwave")


@pytest.fixture
def peak_fields(monkeypatch):
    """peak_fields(fn, grid, rows=None): tracemalloc peak of fn(), in fields.

    A field is one (N+1)^2 float64 array of grid.  With rows, the row
    blocks of the full-grid passes (grid.BLOCK_ELEMS) hold that many of
    grid's rows, for the rest of the test.
    """
    def measure(fn, grid, rows=None):
        if rows is not None:
            monkeypatch.setattr(grid_mod, "BLOCK_ELEMS", rows * grid.n_nodes)
        tracemalloc.start()
        try:
            fn()
            return tracemalloc.get_traced_memory()[1] / (8 * grid.n_nodes ** 2)
        finally:
            tracemalloc.stop()
    return measure


@pytest.fixture(scope="session")
def membrane():
    return membrane_model()


@pytest.fixture(scope="session")
def linear():
    return linear_model()


@pytest.fixture(scope="session")
def bump03():
    return bump_profile(0.3, width=6.0)


@pytest.fixture(scope="session")
def zero_prof():
    return zero_profile()


def make_compatible_data(grid, profile, amp=0.05, gamma_bar=0.5):
    """Smooth diagonal data satisfying the chain rule d/ds F = d_u F - d_ub F.

    The free choices are the three fields, their d_u components, and the
    slice position s = grid.u; the d_ub components follow from the chain
    rule along the diagonal (u = s, ubar = -s).
    """
    s = grid.u
    env = np.exp(-0.5 * s * s)
    denv = -s * env
    psi = amp * env * np.cos(2 * s)
    dpsi = amp * (denv * np.cos(2 * s) - 2 * env * np.sin(2 * s))
    psib = amp * env * np.sin(3 * s)
    dpsib = amp * (denv * np.sin(3 * s) + 3 * env * np.cos(3 * s))
    xi = amp * env
    dxi = amp * denv
    dpsi_u = amp * env * np.cos(s)
    dpsib_u = amp * env * np.cos(4 * s)
    dxi_u = 0.5 * amp * env
    return DiagonalData(
        s=s, psi=psi, psib=psib, xi=xi,
        sigma=sigma_of(psi, psib, profile.dzeta(-s)),
        dpsi_u=dpsi_u, dpsi_ub=dpsi_u - dpsi,
        dpsib_u=dpsib_u, dpsib_ub=dpsib_u - dpsib,
        dxi_u=dxi_u, dxi_ub=dxi_u - dxi,
        gamma_bar=gamma_bar,
    )


def make_zero_data(grid, gamma_bar=0.5):
    n = grid.n_nodes
    z = [np.zeros(n) for _ in range(10)]
    return DiagonalData(grid.u.copy(), *z, gamma_bar=gamma_bar)


# Time reversal (i, j) -> (N - j, N - i) swaps the roles of u and ubar and
# flips each null derivative.  Without a background it maps a solution to
# a solution: each field of the image is, at the image node, the signed
# field named here at the node (psi -> -psib, d_u -> d_ub on the same
# field's partner, xi's derivatives change sign).
REVERSED = {
    "psi": ("psib", -1.0), "psib": ("psi", -1.0), "xi": ("xi", 1.0),
    "dpsi_u": ("dpsib_ub", 1.0), "dpsi_ub": ("dpsib_u", 1.0),
    "dpsib_u": ("dpsi_ub", 1.0), "dpsib_ub": ("dpsi_u", 1.0),
    "dxi_u": ("dxi_ub", -1.0), "dxi_ub": ("dxi_u", -1.0),
}


# Phases of a property test that draws one integer seed: shrinking a seed
# finds no simpler example, it only reruns the test many times over.
SEED_PHASES = (Phase.explicit, Phase.reuse, Phase.generate)


def reversal_pair(s, seed):
    """Diagonal data at the slice points s, without a background, and its
    time reversal by REVERSED.  Each field is a Gaussian pulse of random
    amplitude (below 0.05), centre and width, all drawn from the one
    integer seed a property test draws (SEED_PHASES); drawing the floats
    themselves let hypothesis grow to gigabytes while it shrank a failure."""
    rng = np.random.default_rng(seed)
    fields = {name: rng.uniform(-0.05, 0.05)
              * np.exp(-(((s - rng.uniform(-1.5, 1.5))
                          / rng.uniform(0.3, 1.5)) ** 2))
              for name in REVERSED}
    zero = np.zeros_like(s)

    def data(f):
        return DiagonalData(s=s, sigma=sigma_of(f["psi"], f["psib"], zero),
                            gamma_bar=0.5, **f)
    return data(fields), data({name: sign * fields[src]
                               for name, (src, sign) in REVERSED.items()})


def time_reversed(F, sign=1.0):
    """sign * F moved to the image nodes of (i, j) -> (N - j, N - i)."""
    return sign * F[::-1, ::-1].T
