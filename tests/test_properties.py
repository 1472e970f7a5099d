"""Property tests of model invariants: binning sums, QPF1 round trips and
the Dirichlet solver / Laplacian pair.

Hypothesis runs derandomized with few examples, so the suite stays
deterministic and quick.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from twinphase.core import MIN_GRID, ScalarField2D
from twinphase.qpf import read_qpf, write_qpf
from twinphase.retrieval import laplacian_dirichlet, poisson_solve_dirichlet
from twinphase.twinbeam import bin_counts

PROPERTY = settings(derandomize=True, max_examples=25, deadline=None)
SEEDS = st.integers(0, 2**32 - 1)


@PROPERTY
@given(data=st.data(), seed=SEEDS)
def test_bin_counts_preserves_kept_sum(data, seed):
    bin_px = data.draw(st.integers(1, 4), label="bin_px")
    nh = data.draw(st.integers(MIN_GRID, 16), label="binned height")
    nw = data.draw(st.integers(MIN_GRID, 16), label="binned width")
    h = nh * bin_px + data.draw(st.integers(0, bin_px - 1), label="row remainder")
    w = nw * bin_px + data.draw(st.integers(0, bin_px - 1), label="col remainder")
    counts = np.random.default_rng(seed).poisson(50.0, size=(h, w)).astype(float)
    binned = bin_counts(ScalarField2D(w, h, 1.625, counts), bin_px)
    # the remainder is cropped evenly around the centre
    r0, c0 = (h - nh * bin_px) // 2, (w - nw * bin_px) // 2
    kept = counts[r0 : r0 + nh * bin_px, c0 : c0 + nw * bin_px]
    assert (binned.height, binned.width) == (nh, nw)
    assert binned.pitch == 1.625 * bin_px
    # integer counts sum exactly in float64, whatever the order
    assert binned.values.sum() == kept.sum()


@PROPERTY
@given(
    h=st.integers(MIN_GRID, 40),
    w=st.integers(MIN_GRID, 40),
    pitch=st.floats(1e-3, 1e3, allow_nan=False, allow_infinity=False),
    seed=SEEDS,
)
def test_qpf_round_trip_is_bit_exact(tmp_path_factory, h, w, pitch, seed):
    values = np.random.default_rng(seed).standard_normal((h, w)) * 10.0 ** (seed % 9 - 4)
    values[0, 0] = -0.0
    path = tmp_path_factory.mktemp("qpf") / "f.qpf"
    write_qpf(path, ScalarField2D(w, h, pitch, values))
    back = read_qpf(path)
    assert (back.width, back.height, back.pitch) == (w, h, pitch)
    assert np.array_equal(back.values.view(np.uint64), values.view(np.uint64))


@PROPERTY
@given(
    h=st.integers(MIN_GRID, 64),
    w=st.integers(MIN_GRID, 64),
    pitch=st.floats(0.1, 10.0, allow_nan=False, allow_infinity=False),
    seed=SEEDS,
)
def test_laplacian_inverts_poisson_solve(h, w, pitch, seed):
    f = np.random.default_rng(seed).standard_normal((h, w))
    u = poisson_solve_dirichlet(ScalarField2D(w, h, pitch, f))
    back = laplacian_dirichlet(u).values
    # the solver reads only the interior of f and returns a zero border
    interior = f[1:-1, 1:-1]
    assert np.abs(back[1:-1, 1:-1] - interior).max() <= 1e-9 * np.abs(interior).max()
    assert not back[[0, -1], :].any() and not back[:, [0, -1]].any()
