"""Property tests of model invariants: binning sums, QPF1 round trips,
the Dirichlet solver / Laplacian pair, the sampler's count transport and
the streamed NRF statistics.

Hypothesis runs derandomized with few examples, so the suite stays
deterministic and quick.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twinphase.core import MIN_GRID, ScalarField2D
from twinphase.qpf import read_qpf, write_qpf
from twinphase.retrieval import poisson_solve_dirichlet
from twinphase.twinbeam import (
    TwinBeamFrame,
    _scatter_shift,
    _shift_axis,
    _shift_cdf,
    _shift_table,
    bin_counts,
    d_factor_for_bin,
    frame_counts,
    measure_nrf,
    register_idler,
)
from test_retrieval import laplacian_dirichlet

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


def draw_transport(data, seed, reach):
    """Counts, a per-pixel shift map and a kernel width for _shift_axis.

    The map draws its values from a few levels (0.0 and -0.0 among them)
    or from a continuum, so tables have few or as many entries as pixels.
    """
    h = data.draw(st.integers(1, 12), label="height")
    w = data.draw(st.integers(1, 12), label="width")
    s = data.draw(st.sampled_from([0.0, 0.05, 0.7, 2.5]), label="s")
    rng = np.random.default_rng(seed)
    counts = rng.poisson(30.0, size=(h, w))
    if data.draw(st.booleans(), label="few levels"):
        levels = np.concatenate([[0.0, -0.0], rng.uniform(-reach, reach, 3)])
        shift = rng.choice(levels, size=(h, w))
    else:
        shift = rng.uniform(-reach, reach, size=(h, w))
    return counts, shift, s


def shifted(counts, shift, s, axis, rng):
    """(result, spill) of _shift_axis on a copy of ``counts``, a float
    copy for the expectation (rng None)."""
    out = counts.copy() if rng is not None else counts.astype(float)
    return out, _shift_axis(out, _shift_table(shift), s, axis, rng)


def shift_axis_expectation_oracle(counts, shift, s, axis):
    """shifted(counts, shift, s, axis, None) with every kernel table
    evaluated on the full per-pixel grid, one value per pixel."""
    d = np.asarray(shift, dtype=float)
    jmin = int(math.floor(float(d.min()) - 6.0 * s))
    jmax = int(math.ceil(float(d.max()) + 6.0 * s))
    out = np.zeros(counts.shape)
    rem = np.array(counts, dtype=float)
    rem_w = np.ones(d.shape)
    spill = 0
    cdf_prev = _shift_cdf(jmin - d, s)
    for j in range(jmin, jmax + 1):
        cdf_next = _shift_cdf(j + 1 - d, s)
        prob = cdf_next - cdf_prev
        cdf_prev = cdf_next
        with np.errstate(divide="ignore", invalid="ignore"):
            p = np.clip(np.where(rem_w > 0, prob / np.maximum(rem_w, 1e-300), 0.0), 0.0, 1.0)
        take = rem * p
        rem -= take
        rem_w = np.maximum(rem_w - prob, 0.0)
        spill += _scatter_shift(out, take, j, axis)
    return out, spill + float(np.sum(rem))


@PROPERTY
@given(data=st.data(), seed=SEEDS, axis=st.sampled_from([0, 1]))
def test_shift_axis_conserves_photons_with_spill(data, seed, axis):
    # shifts up to twice the largest grid side, so photons also leave it
    counts, shift, s = draw_transport(data, seed, reach=24.0)
    for sh in (shift, float(shift.flat[0])):
        out, spill = shifted(counts, sh, s, axis, np.random.default_rng(seed))
        assert out.dtype == counts.dtype and (out >= 0).all() and spill >= 0
        assert out.sum() + spill == counts.sum()


@pytest.mark.parametrize(
    "shift, s", [(2.3, 0.0), (10.0, 0.0), (2.3, 0.7)], ids=["near", "far", "both"]
)
def test_shift_axis_expectation_conserves_mass_with_spill(shift, s):
    """A 4 x 6 grid of 2.7 counts shifted along its 6-pixel axis keeps,
    with the spill, all 64.8 put in: the mass of offsets that leave part
    of the grid (near) and of offsets beyond it (far) is spilled as a
    float, not truncated to an integer (kept 39.958 and spilled 23 at
    shift 2.3 and s = 0.7)."""
    counts = np.full((4, 6), 2.7)
    out, spill = shifted(counts, shift, s, 1, None)
    assert isinstance(spill, float)
    assert abs(out.sum() + spill - counts.sum()) <= 1e-12 * counts.sum()


@PROPERTY
@given(data=st.data(), seed=SEEDS, axis=st.sampled_from([0, 1]))
def test_constant_shift_map_matches_scalar_shift(data, seed, axis):
    counts, shift, s = draw_transport(data, seed, reach=3.0)
    c = float(shift.flat[0])
    uniform = np.full(counts.shape, c)
    (out_c, spill_c), (out_u, spill_u) = (
        shifted(counts, sh, s, axis, np.random.default_rng(seed)) for sh in (c, uniform)
    )
    assert np.array_equal(out_c, out_u) and spill_c == spill_u
    (mean_c, spill_c), (mean_u, spill_u) = (
        shifted(counts, sh, s, axis, None) for sh in (c, uniform)
    )
    assert np.array_equal(mean_c.view(np.uint64), mean_u.view(np.uint64))
    assert spill_c == spill_u


@PROPERTY
@given(data=st.data(), seed=SEEDS, axis=st.sampled_from([0, 1]))
def test_shift_axis_expectation_matches_per_pixel_tables(data, seed, axis):
    counts, shift, s = draw_transport(data, seed, reach=3.0)
    mean, spill = shifted(counts, shift, s, axis, None)
    want, want_spill = shift_axis_expectation_oracle(counts, shift, s, axis)
    assert np.array_equal(mean.view(np.uint64), want.view(np.uint64))
    assert spill == want_spill


def nrf_stacked_oracle(frames, bin_px, l_cff):
    """measure_nrf's four fields from the (frames, rows, cols) stacks of
    the binned signal and registered idler, as numpy's reductions give
    them."""
    s_stack = np.stack([bin_counts(f.n_s, bin_px).values for f in frames])
    i_stack = np.stack([bin_counts(register_idler(f.n_i), bin_px).values for f in frames])
    var_d = (s_stack - i_stack).var(axis=0, ddof=1)
    mean_sum = (s_stack + i_stack).mean()
    return (
        d_factor_for_bin(bin_px, frames[0].n_s.pitch, l_cff),
        float(var_d.mean() / mean_sum),
        float(s_stack.var(axis=0, ddof=1).mean() / s_stack.mean()),
        float(var_d.std(ddof=1) / math.sqrt(var_d.size) / mean_sum),
    )


# Mean counts whose largest draws fit uint8, need uint16 and need uint32.
NARROWED_LEVELS = ((np.uint8, 0.5, 100.0), (np.uint16, 400.0, 5000.0), (np.uint32, 1e5, 1e6))


@PROPERTY
@given(data=st.data(), seed=SEEDS)
def test_streamed_nrf_equals_stacked_statistics(data, seed):
    """measure_nrf gives the stacked float64 statistics bit for bit from
    the frames' float64 arms and from their narrowed counts, at a mean
    count in each range of NARROWED_LEVELS."""
    bin_px = data.draw(st.integers(1, 4), label="bin_px")
    h = data.draw(st.integers(MIN_GRID * bin_px, 40), label="height")
    w = data.draw(st.integers(MIN_GRID * bin_px, 40), label="width")
    n_frames = data.draw(st.integers(2, 30), label="frames")
    mirrored = data.draw(st.booleans(), label="idler registers onto the signal")
    rng = np.random.default_rng(seed)
    for dtype, low, high in NARROWED_LEVELS:
        level = data.draw(st.floats(low, high), label=f"mean count ({dtype.__name__})")
        frames = []
        for _ in range(n_frames):
            s = rng.poisson(level, size=(h, w)).astype(float)
            i = s[::-1, ::-1] if mirrored else rng.poisson(level, size=(h, w)).astype(float)
            frames.append(
                TwinBeamFrame(ScalarField2D(w, h, 1.625, s), ScalarField2D(w, h, 1.625, i))
            )
        want = nrf_stacked_oracle(frames, bin_px, 5.0)
        narrowed = [frame_counts(f) for f in frames]
        assert {arm.dtype for pair in narrowed for arm in pair} == {np.dtype(dtype)}
        for counts in ([(f.n_s.values, f.n_i.values) for f in frames], narrowed):
            point = measure_nrf(counts, bin_px, 1.625, l_cff=5.0)
            assert (point.d_factor, point.nrf, point.fano, point.nrf_stderr) == want
