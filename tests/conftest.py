import numpy as np
import pytest

from transonic.grid import RealField2D, _project_parity


def band_limited_field(grid, symmetry, seed, kmax=8, amplitude=1.0):
    """Random smooth field with exact parity, spectrally representable.

    Band-limited test data keeps spectral identities exact to rounding, so
    operator cross-checks measure transcription errors rather than grid
    truncation.
    """
    rng = np.random.default_rng(seed)
    hat = np.zeros((grid.nx, grid.ny // 2 + 1), dtype=complex)
    hat[:kmax, :kmax] = rng.standard_normal((kmax, kmax)) + 1j * rng.standard_normal((kmax, kmax))
    hat[-kmax:, :kmax] = rng.standard_normal((kmax, kmax)) + 1j * rng.standard_normal((kmax, kmax))
    vals = np.fft.irfft2(hat, s=(grid.nx, grid.ny))
    f = RealField2D(grid, _project_parity(vals, symmetry), symmetry)
    top = float(np.max(np.abs(f.values)))
    if top == 0.0:
        raise AssertionError("degenerate random field")
    return f.scaled(amplitude / top)


@pytest.fixture
def rand_field():
    return band_limited_field
