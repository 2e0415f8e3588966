import numpy as np
import pytest

from cuspext import extension


@pytest.fixture
def shift_end_cap(monkeypatch):
    """Negative control for the seam check.

    ``install(offset)`` swaps the mirror end-cap pullback for the
    literal axial shift (t, x) -> (t - offset, x).  For axially-varying
    fields the shift leaves an O(1) jump at the t = 2 cap interface,
    which the seam-continuity check must flag.
    """

    def install(offset: float):
        def shifted(ctx, z, check=True):
            out = np.array(z, dtype=float, copy=True)
            out[..., 0] -= offset
            return out

        monkeypatch.setattr(extension, "end_cap_pullback", shifted)

    return install
