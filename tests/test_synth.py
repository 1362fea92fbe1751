import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spotdeconv import synth
from spotdeconv.kernels import build_kernel_bank, make_scale_grid
from spotdeconv.synth import SceneSpec, add_noise, generate_scene
from spotdeconv.convolution import forward


def _spec(**kw):
    base = dict(
        rows=32, cols=32, depth=3, n_sources=5, min_separation=4.0,
        amplitude_lo=1.0, amplitude_hi=2.0, noise_sigma=0.0, seed=7,
    )
    base.update(kw)
    return SceneSpec(**base)


def test_zero_sources():
    a, gt = generate_scene(_spec(n_sources=0))
    assert np.all(a == 0)
    assert gt.shape == (0, 2) and gt.dtype == np.float64


def test_deterministic_for_fixed_seed():
    a1, gt1 = generate_scene(_spec())
    a2, gt2 = generate_scene(_spec())
    assert a1.tobytes() == a2.tobytes()
    assert gt1.shape == (5, 2) and gt1.dtype == np.float64 and gt1.flags.c_contiguous
    assert gt1.tobytes() == gt2.tobytes()


def test_pairwise_separation():
    spec = _spec(n_sources=8, min_separation=6.0)
    _, gt = generate_scene(spec)
    for i in range(len(gt)):
        for j in range(i + 1, len(gt)):
            d = np.hypot(gt[i][0] - gt[j][0], gt[i][1] - gt[j][1])
            assert d >= spec.min_separation


def test_source_count_and_amplitudes():
    spec = _spec()
    a, gt = generate_scene(spec)
    assert len(gt) == spec.n_sources
    nz = np.nonzero(a)
    assert len(set(zip(nz[0], nz[1]))) == spec.n_sources
    assert np.all(a[nz] >= spec.amplitude_lo)
    assert np.all(a[nz] <= spec.amplitude_hi)


def test_scale_profile():
    spec = _spec(n_sources=2, scale_profile=[0.5, 0.3, 0.2])
    a, gt = generate_scene(spec)
    for r, c in gt:
        vec = a[int(r), int(c), :]
        np.testing.assert_allclose(vec / vec.sum(), [0.5, 0.3, 0.2])


def test_infeasible_placement_raises():
    # Within SceneSpec's packing bound (4 here), but no 3 pixels of 16^2 lie 18 apart.
    with pytest.raises(RuntimeError, match="could not place"):
        generate_scene(_spec(rows=16, cols=16, n_sources=3, min_separation=18.0))


@given(st.integers(1, 12), st.integers(1, 12), st.floats(1.0, 8.0))
# Separations exactly at a block's diagonal, where the bound's rounding decides q.
@example(2, 2, float(np.hypot(1, 1)))
@example(4, 4, float(np.hypot(3, 3)))
def test_packing_bound_admits_greedy_raster_placement(rows, cols, min_separation):
    placed = []
    for r in range(rows):
        for c in range(cols):
            if all(np.hypot(r - pr, c - pc) >= min_separation for pr, pc in placed):
                placed.append((r, c))
    _spec(rows=rows, cols=cols, n_sources=len(placed), min_separation=min_separation)


def _scalar_placement_scene(spec):
    """generate_scene with the placement test as a scalar loop over the placed
    sources: the reference for its draws, decisions and error."""
    rng = np.random.default_rng(spec.seed)
    positions = []
    attempts = 0
    while len(positions) < spec.n_sources:
        if attempts >= 10000:
            raise RuntimeError(f"could not place {spec.n_sources} sources at separation "
                               f">= {spec.min_separation} within 10000 attempts")
        attempts += 1
        r = int(rng.integers(0, spec.rows))
        c = int(rng.integers(0, spec.cols))
        if all(np.hypot(r - pr, c - pc) >= spec.min_separation for pr, pc in positions):
            positions.append((r, c))
    a_true = np.zeros((spec.rows, spec.cols, spec.depth))
    for r, c in positions:
        amplitude = rng.uniform(spec.amplitude_lo, spec.amplitude_hi)
        a_true[r, c, int(rng.integers(0, spec.depth))] += amplitude
    return a_true, [[float(r), float(c)] for r, c in positions]


@pytest.mark.parametrize("rows, cols, n_sources, min_separation", [
    (12, 12, 144, 1.0),  # every pixel
    (16, 16, 40, 1.5),
    (24, 24, 30, 3.0),
    (24, 24, 10, 6.0),
    (32, 32, 4, 12.0),
    (32, 32, 2, 18.0),
])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_placement_matches_scalar_loop(rows, cols, n_sources, min_separation, seed):
    spec = _spec(rows=rows, cols=cols, n_sources=n_sources, min_separation=min_separation,
                 seed=seed)
    a, gt = generate_scene(spec)
    want_a, want_gt = _scalar_placement_scene(spec)
    assert a.tobytes() == want_a.tobytes()
    assert gt.tolist() == want_gt


def test_infeasible_placement_matches_scalar_loop():
    spec = _spec(rows=16, cols=16, n_sources=3, min_separation=18.0)
    with pytest.raises(RuntimeError) as want:
        _scalar_placement_scene(spec)
    with pytest.raises(RuntimeError) as got:
        generate_scene(spec)
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("seed", range(10))
def test_placement_at_workload_density_on_512_squared(seed):
    # One source per 512 px at separation 18 needs ~8,600-10,800 draws at
    # 512^2: past 10,000 attempts, so the cap grows with the image.
    a, gt = generate_scene(_spec(rows=512, cols=512, n_sources=512, min_separation=18.0,
                                 seed=seed))
    assert len(gt) == 512 and np.count_nonzero(a) == 512


# Pixel distances among them: the ties hypot(3, 3) and 5 = hypot(3, 4), which
# the placement must accept, as it must refuse anything closer.
SEPARATIONS = [1.0, np.sqrt(2), 1.5, 2.0, 3.0, np.hypot(3, 3), 4.5, 5.0, 6.0, 9.0, 18.0, 25.0,
               1e6]


@settings(max_examples=100, deadline=None)
@given(rows=st.integers(1, 24), cols=st.integers(1, 24), n_sources=st.integers(0, 14),
       min_separation=st.sampled_from(SEPARATIONS), seed=st.integers(0, 99))
def test_placement_matches_scalar_loop_on_random_specs(rows, cols, n_sources, min_separation,
                                                       seed):
    try:
        spec = _spec(rows=rows, cols=cols, n_sources=n_sources, min_separation=min_separation,
                     seed=seed)
    except ValueError:
        return  # SceneSpec refuses it at load
    try:
        want_a, want_gt = _scalar_placement_scene(spec)
    except RuntimeError as want:
        with pytest.raises(RuntimeError) as got:
            generate_scene(spec)
        assert str(got.value) == str(want)
        return
    a, gt = generate_scene(spec)
    assert a.tobytes() == want_a.tobytes()
    assert gt.tolist() == want_gt


def test_infeasible_placement_stops_when_no_room_is_left(monkeypatch):
    # No 3 pixels of 16^2 lie 18 apart. Once a placement leaves too little room
    # for the sources left, the error comes at once, not after the 10,000
    # attempts (20,000 draws) of the retry cap.
    draws = []
    default_rng = np.random.default_rng

    class CountedRng:
        def __init__(self, seed):
            self._rng = default_rng(seed)

        def integers(self, *args):
            draws.append(args)
            return self._rng.integers(*args)

    monkeypatch.setattr(synth.np.random, "default_rng", CountedRng)
    for seed in range(10):
        draws.clear()
        with pytest.raises(RuntimeError, match="could not place 3 sources"):
            generate_scene(_spec(rows=16, cols=16, n_sources=3, min_separation=18.0, seed=seed))
        assert 0 < len(draws) <= 20


def test_render_noise_free():
    bank = build_kernel_bank(make_scale_grid(2.0, 3))
    a, _ = generate_scene(_spec())
    d = add_noise(forward(a, bank), 0.0, seed=1)
    np.testing.assert_array_equal(d, forward(a, bank))


def test_render_zero_scene():
    bank = build_kernel_bank(make_scale_grid(2.0, 3))
    d = add_noise(forward(np.zeros((8, 8, 3)), bank), 0.0, seed=1)
    assert np.all(d == 0)


def test_noise_mean_law_of_large_numbers():
    bank = build_kernel_bank(make_scale_grid(2.0, 1))
    a = np.zeros((100, 100, 1))
    sigma = 0.5
    d = add_noise(forward(a, bank), sigma, seed=99)
    assert abs(np.mean(d)) <= 3 * sigma / 100


def test_spec_validation():
    with pytest.raises(ValueError):
        _spec(min_separation=0.5)
    with pytest.raises(ValueError):
        _spec(amplitude_lo=2.0, amplitude_hi=1.0)
    with pytest.raises(ValueError):
        _spec(noise_sigma=-0.1)
    for bad in [dict(rows=0), dict(cols=0), dict(n_sources=-1), dict(n_sources=32 * 32 + 1),
                # Fit the pixels, not the separation: more than one per 2x2 or 4x4 block.
                dict(rows=16, cols=16, n_sources=65, min_separation=1.5),
                dict(rows=4, cols=4, n_sources=2, min_separation=10.0),
                dict(scale_profile=[0.5, 0.5]), dict(scale_profile=[0.5, np.nan, 0.5]),
                dict(scale_profile=[1.0, -0.5, 1.0]), dict(scale_profile=[0.0, 0.0, 0.0])]:
        with pytest.raises(ValueError):
            _spec(**bad)
