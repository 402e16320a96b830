"""Precompiled scoring plans: parity sweeps and vectorization oracles.

The numerics contract (see ``repro.imaging.plans``) in test form:

* ``ScoringPlan.round_trip`` is **bit-for-bit** ``downscale_then_upscale``,
  so scaling MSE scores equal their reference exactly, and each plane of a
  multi-plane round trip is bit-for-bit the round trip of that plane alone;
* ``ssim_fast`` keeps SSIM scores within 1e-9 relative of ``ssim``, and
  CSP counts are **exactly** equal to the reference;
* every vectorized substrate (area matrix, run labeler, sparse point
  labeler, fused channel matmul) matches its reference exactly.

Sweeps are seeded per case, so a failure names a reproducible image.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.attacks import AttackConfig, craft_attack_image
from repro.core.analysis import ImageAnalysis
from repro.datasets.synthetic import generate_image
from repro.errors import ScalingError
from repro.imaging.coefficients import (
    _area_matrix,
    _area_matrix_reference,
    _kernel_matrix,
    _kernel_matrix_reference,
    scaling_operators,
)
from repro.imaging.color import to_grayscale
from repro.imaging.contours import (
    find_regions,
    label_components,
    label_runs,
    region_stats_from_runs,
)
from repro.imaging.fourier import csp_count_from_spectrum, log_spectrum_image
from repro.imaging.image import as_uint8
from repro.imaging.kernels import get_kernel
from repro.imaging.metrics import mse, ssim, ssim_fast
from repro.imaging.plans import (
    PlanCache,
    _point_region_stats,
    csp_count_fast,
    get_scoring_plan,
    get_spectrum_geometry,
)
from repro.imaging.scaling import ALGORITHMS, downscale_then_upscale, resize
from tests.labeling_oracle import label_components_bfs

#: The documented SSIM score tolerance.
REL_TOL = 1e-9

# (src_shape, dst_shape, algorithms): the full algorithm grid on small and
# mid shapes, a spot check on the big odd-sized one (matrix construction
# there is identical, only the band widths change).
SWEEP = [
    ((8, 8), (4, 4), ALGORITHMS),
    ((16, 12), (5, 4), ALGORITHMS),
    ((32, 32), (8, 8), ALGORITHMS),
    ((57, 43), (16, 16), ALGORITHMS),
    ((96, 64), (24, 16), ("bilinear", "bicubic")),
    ((257, 263), (32, 32), ("bilinear", "lanczos4")),
]

# (src_shape, dst_shape, algorithm, channels): larger sources whose
# round-trip operator products are narrow bands, from a small ratio
# (nearest 256->224) to 3-4x ratios with wider kernels.
BANDED = [
    ((256, 256), (224, 224), "nearest", None),
    ((128, 128), (32, 32), "bilinear", 3),
    ((96, 96), (32, 32), "area", None),
    ((192, 192), (64, 64), "bicubic", 3),
]


def _sweep_cases():
    """(src, dst, algorithm, channels, dtype) — channel count and dtype
    rotate through the sweep so every combination appears without a full
    cross product; the banded cases fix their channel count."""
    cases = []
    for src, dst, algorithms in SWEEP:
        for algorithm in algorithms:
            index = len(cases)
            channels = (None, 3)[index % 2]
            dtype = (np.uint8, np.float64)[(index // 2) % 2]
            cases.append((src, dst, algorithm, channels, dtype, index))
    for src, dst, algorithm, channels in BANDED:
        index = len(cases)
        dtype = (np.uint8, np.float64)[(index // 2) % 2]
        cases.append((src, dst, algorithm, channels, dtype, index))
    return cases


def _case_id(case):
    src, dst, algorithm, channels, dtype, _ = case
    kind = "gray" if channels is None else "color"
    return f"{src[0]}x{src[1]}-{dst[0]}x{dst[1]}-{algorithm}-{kind}-{np.dtype(dtype).name}"


def _make_image(src, channels, dtype, seed):
    rng = np.random.default_rng(seed)
    shape = src if channels is None else (*src, channels)
    values = rng.uniform(0.0, 255.0, size=shape)
    if dtype is np.uint8:
        return values.astype(np.uint8)
    return values


@pytest.fixture(params=_sweep_cases(), ids=_case_id)
def sweep_case(request):
    src, dst, algorithm, channels, dtype, index = request.param
    image = _make_image(src, channels, dtype, seed=(2026, index))
    return src, dst, algorithm, image


class TestRoundTripParity:
    def test_exact_path_bit_identical(self, sweep_case):
        src, dst, algorithm, image = sweep_case
        plan = get_scoring_plan(src, dst, algorithm)
        reference = downscale_then_upscale(image, dst, algorithm)
        assert np.array_equal(plan.round_trip(np.asarray(image, np.float64)), reference)

    def test_plan_scores_within_tolerance(self, sweep_case):
        """Scored through the plan, the scaling MSE equals its reference
        exactly; only SSIM, from ``ssim_fast``, keeps the 1e-9 band."""
        src, dst, algorithm, image = sweep_case
        analysis = ImageAnalysis(image)
        key = ImageAnalysis.round_trip_key(dst, algorithm)
        reference = downscale_then_upscale(image, dst, algorithm)
        assert analysis.mse_against(key) == mse(image, reference)
        if src[0] <= 96:  # SSIM is the slow metric; the big cases add nothing
            assert analysis.ssim_against(key) == pytest.approx(
                ssim(image, reference), rel=REL_TOL
            )

    def test_batch_slices_match_serial(self, sweep_case):
        """A color round trip runs the planes as one stacked batch; each
        slice must equal the 2-D round trip of that plane alone. Gray
        cases stack the image with its flip as a two-plane input."""
        src, dst, algorithm, image = sweep_case
        plan = get_scoring_plan(src, dst, algorithm)
        planes = np.asarray(image, np.float64)
        if planes.ndim == 2:
            planes = np.stack([planes, planes[::-1]], axis=2)
        stacked = plan.round_trip(planes)
        for index in range(planes.shape[2]):
            alone = plan.round_trip(np.ascontiguousarray(planes[:, :, index]))
            assert np.array_equal(stacked[:, :, index], alone)

    def test_mixed_upscale_algorithm(self):
        image = _make_image((64, 48), 3, np.uint8, seed=99)
        plan = get_scoring_plan((64, 48), (16, 12), "area", "bicubic")
        reference = downscale_then_upscale(image, (16, 12), "area", "bicubic")
        assert np.array_equal(plan.round_trip(np.asarray(image, np.float64)), reference)


class TestSpectrumParity:
    def test_csp_counts_exactly_equal_on_corpus(self, benign_images, attack_images):
        for image in [*benign_images, *attack_images]:
            fast = csp_count_fast(to_grayscale(image))
            exact = csp_count_from_spectrum(log_spectrum_image(image))
            assert fast == exact

    def test_csp_counts_exactly_equal_on_random_planes(self):
        for seed in range(8):
            rng = np.random.default_rng(seed)
            h, w = int(rng.integers(32, 140)), int(rng.integers(32, 140))
            image = rng.uniform(0, 255, size=(h, w, 3))
            fast = csp_count_fast(to_grayscale(image))
            exact = csp_count_from_spectrum(log_spectrum_image(image))
            assert fast == exact, (seed, h, w)

    def test_csp_counts_exactly_equal_on_non_square_attacks(self):
        """Crafted bilinear attacks at non-square shapes from the
        mixed-shape serving range reach the sparse labeler: at least one
        counts more than the central point."""
        counts = []
        for shape in [(96, 160), (201, 137), (256, 96)]:
            for input_shape in [(16, 16), (24, 24)]:
                for seed in range(2):
                    rng = np.random.default_rng((seed, *shape))
                    original = generate_image(shape, rng, family="neurips")
                    target = resize(
                        generate_image(shape, rng, family="caltech"),
                        input_shape,
                        "bilinear",
                    )
                    attack = as_uint8(
                        craft_attack_image(
                            original,
                            target,
                            algorithm="bilinear",
                            config=AttackConfig(epsilon=4.0),
                        ).attack_image
                    )
                    fast = csp_count_fast(to_grayscale(attack))
                    exact = csp_count_from_spectrum(log_spectrum_image(attack))
                    assert fast == exact, (shape, input_shape, seed)
                    counts.append(fast)
        assert max(counts) > 1

    def test_geometry_matches_public_mask(self):
        """The disk points are the public mask's, in row-major order, and
        each maps to the half-spectrum bin holding its centered magnitude."""
        from repro.imaging.fourier import radial_lowpass_mask

        rng = np.random.default_rng(11)
        for shape, fraction in [
            ((16, 16), 0.5),
            ((33, 47), 0.5),
            ((128, 128), 0.5),
            ((97, 250), 0.5),
            ((20, 9), 1.7),
        ]:
            geometry = get_spectrum_geometry(shape, fraction)
            radius = fraction * (min(shape) / 2.0)
            rows, cols = np.nonzero(radial_lowpass_mask(shape, radius))
            assert np.array_equal(geometry.disk_rows, rows)
            assert np.array_equal(geometry.disk_cols, cols)
            h, w = shape
            assert np.array_equal(
                geometry.disk_radial, np.hypot(rows - h // 2, cols - w // 2)
            )
            plane = rng.uniform(0, 255, size=shape)
            centered = np.abs(np.fft.fftshift(np.fft.fft2(plane)))
            half = np.abs(np.fft.rfft2(plane)).ravel()
            assert np.allclose(
                half[geometry.disk_herm], centered[rows, cols], rtol=1e-12, atol=1e-9
            )

    def test_csp_counts_exactly_equal_on_mixed_shape_sweep(self, monkeypatch):
        """24 shapes in [96, 256], one benign image each and an attack on
        four of them (shapes where the bilinear crafter reaches its ε-band
        at these seeds): counts equal the reference, attacks count above
        one, and benign spectra reach the annulus median too."""
        import repro.imaging.plans as plans

        reached = []
        annulus = plans._annulus_half_index

        def counting(distance, shape):
            reached.append(shape)
            return annulus(distance, shape)

        monkeypatch.setattr(plans, "_annulus_half_index", counting)
        layout = np.random.default_rng(23)
        heights = layout.integers(96, 257, size=24)
        widths = layout.integers(96, 257, size=24)
        benign_reached = 0
        attack_counts = []
        for index, (h, w) in enumerate(zip(heights, widths)):
            shape = (int(h), int(w))
            rng = np.random.default_rng((index, *shape))
            image = generate_image(shape, rng)
            before = len(reached)
            fast = csp_count_fast(to_grayscale(image))
            benign_reached += len(reached) > before
            assert fast == csp_count_from_spectrum(log_spectrum_image(image)), shape
            if index in (3, 4, 11, 14):
                target = resize(
                    generate_image(shape, rng, family="caltech"), (24, 24), "bilinear"
                )
                attack = as_uint8(
                    craft_attack_image(
                        generate_image(shape, rng, family="neurips"),
                        target,
                        algorithm="bilinear",
                        config=AttackConfig(epsilon=4.0),
                    ).attack_image
                )
                fast = csp_count_fast(to_grayscale(attack))
                exact = csp_count_from_spectrum(log_spectrum_image(attack))
                assert fast == exact, ("attack", shape)
                attack_counts.append(fast)
        assert benign_reached >= 1
        assert max(attack_counts) > 1


@st.composite
def ssim_pairs(draw):
    """An image pair and a window size for the SSIM parity property.

    Gray or RGB, float64 or uint8, 1-300 pixels a side. About half the
    sides are drawn so the valid output is 1, just under, at, or just over
    a multiple of the 16-output tile. Half the pairs are noise; the rest
    are flat near 255 with sparse dark pixels, which stresses cancellation
    in the fused ``a² + b²`` map.
    """
    window_size = draw(st.integers(2, 11))
    near_tile = st.sampled_from([1, 2, 15, 16, 17, 32, 33, 47, 48, 64, 112, 113])
    side = st.one_of(st.integers(1, 300), near_tile.map(lambda n: n + window_size - 1))
    shape = (draw(side), draw(side)) + draw(st.sampled_from([(), (3,)]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        a = rng.uniform(0, 255, size=shape)
        b = np.clip(a + rng.normal(0, 12, size=shape), 0, 255)
    else:
        a = 255.0 - rng.uniform(0, 0.5, size=shape)
        b = np.where(rng.random(shape) < 0.01, rng.uniform(0, 20, size=shape), a)
    if draw(st.booleans()):
        a, b = as_uint8(a), as_uint8(b)
    return a, b, window_size


class TestSsimFast:
    def test_matches_ssim_within_tolerance(self):
        rng = np.random.default_rng(3)
        for shape in [(11, 11), (40, 48, 3), (128, 128, 3), (8, 8)]:
            a = rng.uniform(0, 255, size=shape)
            b = np.clip(a + rng.normal(0, 12, size=shape), 0, 255)
            assert ssim_fast(a, b) == pytest.approx(ssim(a, b), rel=REL_TOL)

    def test_even_windows_match_ssim(self):
        rng = np.random.default_rng(4)
        for shape in [(32, 32), (40, 37, 3)]:
            a = rng.uniform(0, 255, size=shape)
            b = np.clip(a + rng.normal(0, 12, size=shape), 0, 255)
            for window_size in (8, 10):
                assert ssim_fast(a, b, window_size=window_size) == pytest.approx(
                    ssim(a, b, window_size=window_size), rel=REL_TOL
                )

    @given(ssim_pairs())
    @settings(max_examples=60, deadline=None)
    def test_matches_ssim_on_drawn_pairs(self, pair):
        a, b, window_size = pair
        assert ssim_fast(a, b, window_size=window_size) == pytest.approx(
            ssim(a, b, window_size=window_size), rel=REL_TOL
        )

    def test_traced_peak_stays_under_48_bytes_per_sample(self):
        rng = np.random.default_rng(5)
        a = rng.uniform(0, 255, size=(512, 512, 3))
        b = np.clip(a + rng.normal(0, 12, size=a.shape), 0, 255)
        tracemalloc.start()
        try:
            ssim_fast(a, b)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 48 * a.size


def _edge_masks():
    eye = np.eye(9, dtype=bool)
    return {
        "single-pixel": np.pad(np.ones((1, 1), bool), 3),
        "full-true": np.ones((7, 11), bool),
        "empty": np.zeros((5, 5), bool),
        "diagonal": eye,
        "anti-diagonal": eye[::-1],
        "checker": (np.indices((8, 8)).sum(axis=0) % 2).astype(bool),
        "one-row": np.ones((1, 17), bool),
        "one-col": np.ones((17, 1), bool),
    }


class TestLabelerEquivalence:
    @pytest.mark.parametrize("connectivity", [4, 8])
    @pytest.mark.parametrize("name", sorted(_edge_masks()))
    def test_edge_masks_match_bfs(self, name, connectivity):
        mask = _edge_masks()[name]
        labels, count = label_components(mask, connectivity=connectivity)
        ref_labels, ref_count = label_components_bfs(mask, connectivity=connectivity)
        assert count == ref_count
        assert np.array_equal(labels, ref_labels)

    @pytest.mark.parametrize("connectivity", [4, 8])
    def test_random_masks_match_bfs(self, connectivity):
        for seed in range(12):
            rng = np.random.default_rng((connectivity, seed))
            h, w = int(rng.integers(1, 40)), int(rng.integers(1, 40))
            mask = rng.random((h, w)) < rng.uniform(0.05, 0.95)
            labels, count = label_components(mask, connectivity=connectivity)
            ref_labels, ref_count = label_components_bfs(mask, connectivity=connectivity)
            assert count == ref_count, (connectivity, seed)
            assert np.array_equal(labels, ref_labels), (connectivity, seed)

    @pytest.mark.parametrize(
        "name", [n for n in sorted(_edge_masks()) if n != "empty"]
    )
    def test_sparse_point_stats_match_dense_runs(self, name):
        mask = _edge_masks()[name]
        self._assert_points_match_runs(mask)

    def test_sparse_point_stats_match_dense_runs_random(self):
        for seed in range(10):
            rng = np.random.default_rng((41, seed))
            h, w = int(rng.integers(1, 36)), int(rng.integers(1, 36))
            mask = rng.random((h, w)) < rng.uniform(0.05, 0.95)
            if mask.any():
                self._assert_points_match_runs(mask)

    @staticmethod
    def _assert_points_match_runs(mask):
        rows, starts, ends, components, count = label_runs(mask, connectivity=8)
        expected = region_stats_from_runs(rows, starts, ends, components, count)
        got = _point_region_stats(*np.nonzero(mask))
        for got_array, want_array in zip(got, expected):
            assert got_array.dtype == want_array.dtype
            assert np.array_equal(got_array, want_array)

    def test_find_regions_matches_bfs_stats(self):
        for seed in range(6):
            rng = np.random.default_rng((99, seed))
            mask = rng.random((30, 30)) < 0.4
            labels, count = label_components_bfs(mask, connectivity=8)
            for min_area in (1, 2, 4):
                regions = find_regions(mask, min_area=min_area)
                expected = []
                for label in range(1, count + 1):
                    rows, cols = np.nonzero(labels == label)
                    if rows.size < min_area:
                        continue
                    expected.append(
                        (
                            label,
                            rows.size,
                            (float(rows.mean()), float(cols.mean())),
                            (rows.min(), cols.min(), rows.max(), cols.max()),
                        )
                    )
                got = [(r.label, r.area, r.centroid, r.bbox) for r in regions]
                assert got == expected, (seed, min_area)


class TestAreaMatrixVectorization:
    def test_matches_reference_exactly(self):
        pairs = [(1, 1), (4, 4), (7, 3), (8, 4), (16, 5), (97, 13), (256, 32), (263, 57)]
        for n_in, n_out in pairs:
            assert np.array_equal(
                _area_matrix(n_in, n_out), _area_matrix_reference(n_in, n_out)
            ), (n_in, n_out)


class TestKernelMatrixVectorization:
    @pytest.mark.parametrize(
        "algorithm, seed", [("bilinear", 1), ("bicubic", 2), ("lanczos4", 3)]
    )
    def test_matches_reference_exactly(self, algorithm, seed):
        kernel = get_kernel(algorithm)
        rng = np.random.default_rng(seed)
        pairs = [(7, 1), (7, 299), (512, 1), (512, 299), (16, 256), (256, 16)]
        pairs += [
            (int(n_in), int(n_out))
            for n_in, n_out in zip(rng.integers(7, 513, 40), rng.integers(1, 300, 40))
        ]
        for n_in, n_out in pairs:
            assert np.array_equal(
                _kernel_matrix(n_in, n_out, kernel),
                _kernel_matrix_reference(n_in, n_out, kernel),
            ), (n_in, n_out)


class TestChannelFusion:
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_resize_color_bit_identical_to_per_channel(self, algorithm):
        image = _make_image((41, 37), 3, np.float64, seed=5)
        left, right = scaling_operators((41, 37), (13, 11), algorithm)
        reference = np.stack(
            [left @ image[:, :, c] @ right for c in range(3)], axis=2
        )
        assert np.array_equal(resize(image, (13, 11), algorithm), reference)


class TestPlanCacheContract:
    def test_stats_and_lru_eviction(self):
        built = []
        cache = PlanCache(lambda key: built.append(key) or key * 2, maxsize=2)
        assert cache.lookup(1) == 2
        assert cache.lookup(1) == 2
        assert cache.lookup(2) == 4
        cache.lookup(1)  # refresh 1 so 2 is now least recent
        cache.lookup(3)  # evicts 2
        cache.lookup(2)  # rebuilt
        assert built == [1, 2, 3, 2]
        stats = cache.stats()
        assert stats["size"] == 2
        assert stats["maxsize"] == 2
        assert stats["misses"] == 4
        assert stats["hits"] == 2
        assert stats["hit_rate"] == pytest.approx(2 / 6)

    def test_rejects_nonpositive_maxsize(self):
        with pytest.raises(ScalingError):
            PlanCache(lambda key: key, maxsize=0)

    def test_clear_resets_entries_and_counters(self):
        cache = PlanCache(lambda key: key, maxsize=4)
        cache.lookup("a")
        cache.lookup("a")
        cache.clear()
        assert cache.stats()["size"] == 0
        assert cache.stats()["hits"] == 0
        assert cache.stats()["misses"] == 0
