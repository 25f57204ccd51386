"""Array forms of the hardware transfer functions match their scalar
forms bit for bit."""

import struct

import numpy as np
import pytest

from repro.hardware.kernels import ewma_alpha, ewma_alpha_array


def _bits(x: float) -> bytes:
    return struct.pack("<d", x)


class TestEwmaAlphaArray:
    @pytest.mark.parametrize("dt, window", [
        # one value throughout, the usual firmware tick
        ([0.010000000000000009] * 5, [0.01] * 5),
        # repeated values, as the firmware tick spacing produces
        ([0.01] * 6 + [0.010000000000000009] * 3, [0.01] * 9),
        # distinct values, windows both below and above dt
        (np.linspace(1e-4, 0.05, 17), np.linspace(0.002, 0.04, 17)),
        # a mix of repeats and distinct values, 2-D
        ([[0.01, 0.02, 0.01], [0.003, 0.01, 0.02]],
         [[0.01, 0.01, 0.01], [0.01, 0.5, 0.005]]),
    ])
    def test_matches_scalar_elementwise(self, dt, window):
        dt = np.asarray(dt, dtype=float)
        window = np.asarray(window, dtype=float)
        got = ewma_alpha_array(dt, window)
        assert got.shape == dt.shape
        for a, d, w in zip(got.ravel().tolist(), dt.ravel().tolist(),
                           window.ravel().tolist()):
            assert _bits(a) == _bits(ewma_alpha(d, w)), (d, w)

    def test_empty(self):
        assert ewma_alpha_array(np.zeros(0), np.zeros(0)).shape == (0,)
