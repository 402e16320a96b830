"""Breadth-first connected-component labeling: the labelers' test oracle.

The pre-vectorization algorithm, kept here (not in ``src/``) so the
property tests can compare :func:`repro.imaging.contours.label_components`
and the region stats against an O(foreground pixels) Python flood fill
with the same signature and label order.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ImageError

_NEIGHBORS_4 = ((-1, 0), (1, 0), (0, -1), (0, 1))
_NEIGHBORS_8 = _NEIGHBORS_4 + ((-1, -1), (-1, 1), (1, -1), (1, 1))


def label_components_bfs(
    mask: np.ndarray, *, connectivity: int = 8
) -> tuple[np.ndarray, int]:
    """Label ``True`` regions of *mask*, numbered by first pixel in row-major order."""
    if mask.ndim != 2:
        raise ImageError(f"mask must be 2-D, got shape {mask.shape}")
    if connectivity not in (4, 8):
        raise ImageError(f"connectivity must be 4 or 8, got {connectivity}")
    mask = np.ascontiguousarray(mask, dtype=bool)
    h, w = mask.shape
    offsets = _NEIGHBORS_8 if connectivity == 8 else _NEIGHBORS_4
    labels = np.zeros((h, w), dtype=np.int64)
    count = 0
    for r0, c0 in zip(*np.nonzero(mask)):
        if labels[r0, c0]:
            continue
        count += 1
        stack = [(int(r0), int(c0))]
        labels[r0, c0] = count
        while stack:
            r, c = stack.pop()
            for dr, dc in offsets:
                nr, nc = r + dr, c + dc
                if 0 <= nr < h and 0 <= nc < w and mask[nr, nc] and not labels[nr, nc]:
                    labels[nr, nc] = count
                    stack.append((nr, nc))
    return labels, count
