"""Unit tests for repro.imaging.contours (cross-checked against scipy)."""

import numpy as np
import pytest
from scipy import ndimage

from repro.errors import ImageError
from repro.imaging.contours import count_spectrum_points, find_regions, label_components
from tests.labeling_oracle import label_components_bfs


class TestLabelComponents:
    def test_empty_mask(self):
        labels, count = label_components(np.zeros((5, 5), dtype=bool))
        assert count == 0
        assert labels.sum() == 0

    def test_single_blob(self):
        mask = np.zeros((5, 5), dtype=bool)
        mask[1:3, 1:3] = True
        labels, count = label_components(mask)
        assert count == 1
        assert (labels == 1).sum() == 4

    def test_two_separate_blobs(self):
        mask = np.zeros((5, 5), dtype=bool)
        mask[0, 0] = True
        mask[4, 4] = True
        _, count = label_components(mask)
        assert count == 2

    def test_diagonal_connectivity_8_vs_4(self):
        mask = np.array([[1, 0], [0, 1]], dtype=bool)
        assert label_components(mask, connectivity=8)[1] == 1
        assert label_components(mask, connectivity=4)[1] == 2

    def test_full_mask_is_one_component(self):
        _, count = label_components(np.ones((7, 9), dtype=bool))
        assert count == 1

    def test_rejects_non_2d(self):
        with pytest.raises(ImageError, match="2-D"):
            label_components(np.zeros((2, 2, 2), dtype=bool))

    def test_rejects_bad_connectivity(self):
        with pytest.raises(ImageError, match="connectivity"):
            label_components(np.zeros((2, 2), dtype=bool), connectivity=6)

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_scipy_8_connected(self, seed):
        rng = np.random.default_rng(seed)
        mask = rng.random((40, 40)) > 0.72
        _, ours = label_components(mask, connectivity=8)
        _, theirs = ndimage.label(mask, structure=np.ones((3, 3)))
        assert ours == theirs

    @pytest.mark.parametrize("seed", range(3))
    def test_matches_scipy_4_connected(self, seed):
        rng = np.random.default_rng(seed + 50)
        mask = rng.random((30, 30)) > 0.6
        _, ours = label_components(mask, connectivity=4)
        _, theirs = ndimage.label(mask)
        assert ours == theirs


def _snake(side: int) -> np.ndarray:
    """One serpentine path: full even rows joined at alternating ends, so
    the run graph is a chain as long as the mask is tall."""
    mask = np.zeros((side, side), dtype=bool)
    mask[::2] = True
    mask[1::4, -1] = True
    mask[3::4, 0] = True
    return mask


def _adversarial_masks() -> dict[str, np.ndarray]:
    """Masks that stress a labeler: most runs, most edges, longest chain."""
    grid = np.indices((48, 48))
    return {
        "isolated-points": (grid[0] % 2 == 0) & (grid[1] % 2 == 0),
        "checkerboard": grid.sum(axis=0) % 2 == 0,
        "snake": _snake(48),
        "random-half": np.random.default_rng(7).random((48, 48)) < 0.5,
    }


class TestAdversarialMasks:
    """The vectorized union-find against the flood-fill oracle and scipy on
    the masks a hostile spectrum can produce."""

    @pytest.mark.parametrize("connectivity", [4, 8])
    @pytest.mark.parametrize("name", sorted(_adversarial_masks()))
    def test_matches_bfs_labels(self, name, connectivity):
        mask = _adversarial_masks()[name]
        labels, count = label_components(mask, connectivity=connectivity)
        ref_labels, ref_count = label_components_bfs(mask, connectivity=connectivity)
        assert count == ref_count
        assert np.array_equal(labels, ref_labels)

    @pytest.mark.parametrize("connectivity", [4, 8])
    @pytest.mark.parametrize("name", sorted(_adversarial_masks()))
    def test_matches_scipy_partition(self, name, connectivity):
        mask = _adversarial_masks()[name]
        labels, count = label_components(mask, connectivity=connectivity)
        structure = np.ones((3, 3)) if connectivity == 8 else None
        theirs, their_count = ndimage.label(mask, structure=structure)
        assert count == their_count
        # scipy also numbers components by first pixel in row-major order.
        assert np.array_equal(labels, theirs)

    def test_snake_is_one_component(self):
        assert label_components(_snake(48), connectivity=4)[1] == 1


class TestRegions:
    def test_region_properties(self):
        mask = np.zeros((6, 8), dtype=bool)
        mask[2:4, 3:6] = True
        regions = find_regions(mask)
        assert len(regions) == 1
        region = regions[0]
        assert region.area == 6
        assert region.centroid == (2.5, 4.0)
        assert region.bbox == (2, 3, 3, 5)

    def test_min_area_filters_specks(self):
        mask = np.zeros((10, 10), dtype=bool)
        mask[0, 0] = True            # 1-pixel speck
        mask[5:8, 5:8] = True        # 9-pixel blob
        assert len(find_regions(mask, min_area=2)) == 1
        assert count_spectrum_points(mask, min_area=2) == 1
        assert count_spectrum_points(mask, min_area=1) == 2
