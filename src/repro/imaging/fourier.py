"""Frequency-domain analysis (Method 3 substrate).

The steganalysis detector works on the *centered log-magnitude spectrum* of
an image (paper Eqs. 2–4): a 2-D DFT, shifted so the DC/low frequencies sit
at the center, log-compressed, and normalized to 0–255. A radial low-pass
mask (paper Eq. 7) then isolates the bright low-frequency region, and the
binarized result is handed to contour counting.

A benign natural image concentrates its energy in one central blob. An
image-scaling attack perturbs the source image on a regular grid (every
``ratio``-th pixel per axis), which adds periodic components — extra bright
peaks at the grid's harmonic frequencies. Counting those peaks is the whole
detection signal.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ImageError
from repro.imaging.color import to_grayscale
from repro.imaging.image import ensure_image

__all__ = [
    "centered_spectrum",
    "log_spectrum_image",
    "radial_lowpass_mask",
    "binary_spectrum",
    "csp_count",
    "csp_count_from_spectrum",
]


def centered_spectrum(image: np.ndarray) -> np.ndarray:
    """Centered DFT magnitude of the luma plane (float64, unnormalized)."""
    ensure_image(image)
    gray = to_grayscale(image)
    spectrum = np.fft.fftshift(np.fft.fft2(gray))
    return np.abs(spectrum)


def log_spectrum_image(image: np.ndarray) -> np.ndarray:
    """Centered log-magnitude spectrum scaled to the 0–255 range.

    Implements paper Eq. 4: ``log(1 + |F_shifted|)`` followed by min–max
    normalization so a single brightness threshold works across images.
    """
    magnitude = centered_spectrum(image)
    log_mag = np.log1p(magnitude)
    low, high = float(log_mag.min()), float(log_mag.max())
    if high - low <= 0:
        # Constant image: spectrum is a single DC spike; return all-zero
        # so downstream binarization sees exactly one (empty) region.
        return np.zeros_like(log_mag)
    return (log_mag - low) / (high - low) * 255.0


def radial_lowpass_mask(shape: tuple[int, int], radius: float) -> np.ndarray:
    """Boolean disk of ``True`` inside ``radius`` of the spectrum center.

    Paper Eq. 7: ``H(u, v) = 1`` iff ``D(u, v) <= D_T``. The center matches
    ``fftshift``'s DC location (``n // 2``).
    """
    if radius <= 0:
        raise ImageError(f"low-pass radius must be positive, got {radius}")
    h, w = shape
    rows = np.arange(h) - h // 2
    cols = np.arange(w) - w // 2
    dist_sq = rows[:, None] ** 2 + cols[None, :] ** 2
    return dist_sq <= radius * radius


def binary_spectrum(
    image: np.ndarray,
    *,
    brightness_threshold: float = 160.0,
    lowpass_radius_fraction: float = 0.5,
    spectrum: np.ndarray | None = None,
) -> np.ndarray:
    """Binarized low-frequency spectrum — input to contour counting.

    Pipeline (paper Fig. 7): centered log spectrum → radial low-pass →
    brightness threshold. ``brightness_threshold`` is on the normalized
    0–255 spectrum scale; ``lowpass_radius_fraction`` sets ``D_T`` relative
    to the smaller image half-extent so the same setting works across image
    sizes. Pass *spectrum* (the image's :func:`log_spectrum_image`) to
    reuse an already-computed spectrum instead of re-deriving it.
    """
    if spectrum is None:
        spectrum = log_spectrum_image(image)
    h, w = spectrum.shape
    radius = lowpass_radius_fraction * (min(h, w) / 2.0)
    return (spectrum >= brightness_threshold) & radial_lowpass_mask((h, w), radius)


def csp_count(
    image: np.ndarray,
    *,
    brightness_threshold: float = 160.0,
    lowpass_radius_fraction: float = 0.5,
    inner_radius_fraction: float = 0.09,
    min_area: int = 2,
    min_prominence: float = 35.0,
) -> int:
    """Number of centered spectrum points (the paper's CSP metric).

    A benign image contributes exactly one point: the central low-frequency
    blob (together with its immediate satellites — large-scale scene
    structure puts secondary maxima right next to DC, so everything inside
    ``inner_radius_fraction * min(h, w)`` of the center is counted as the
    single centered point). A scaling attack perturbs the source on a
    regular grid with period ≈ the downscale ratio, which adds sharp peaks
    at the grid frequency ``min(h, w) / ratio`` and its harmonics — well
    outside the inner radius. Each such outer blob counts as an extra
    spectrum point, so benign images score 1 and attack images ≥ 3
    (peak pairs are symmetric).

    An outer blob only counts when its peak brightness exceeds the median
    spectrum brightness at its own radius by ``min_prominence``: natural
    spectra decay smoothly, so genuine image structure (e.g. interference
    fringes from parallel edges) rides on an elevated background, while
    attack-grid peaks tower over theirs.

    The defaults detect ratios from ~2.2 up to ~11; for more extreme
    ratios, lower ``inner_radius_fraction`` accordingly.
    """
    return csp_count_from_spectrum(
        log_spectrum_image(image),
        brightness_threshold=brightness_threshold,
        lowpass_radius_fraction=lowpass_radius_fraction,
        inner_radius_fraction=inner_radius_fraction,
        min_area=min_area,
        min_prominence=min_prominence,
    )


def csp_count_from_spectrum(
    spectrum: np.ndarray,
    *,
    brightness_threshold: float = 160.0,
    lowpass_radius_fraction: float = 0.5,
    inner_radius_fraction: float = 0.09,
    min_area: int = 2,
    min_prominence: float = 35.0,
) -> int:
    """:func:`csp_count` on a precomputed :func:`log_spectrum_image`.

    The spectrum is the expensive part of the CSP metric (one FFT per
    image); callers that already hold it — the shared analysis context, or
    figure code that also renders the spectrum — use this entry point so
    the counting logic runs without re-deriving it.
    """
    # Import here to avoid an import cycle (contours has no dependency on
    # fourier, but keeping the public imaging namespace flat needs this).
    from repro.imaging.contours import find_regions

    h, w = spectrum.shape
    radius = lowpass_radius_fraction * (min(h, w) / 2.0)
    binary = (spectrum >= brightness_threshold) & radial_lowpass_mask((h, w), radius)

    center = np.array([h // 2, w // 2], dtype=np.float64)
    inner_radius = inner_radius_fraction * min(h, w)
    regions = [
        region
        for region in find_regions(binary, min_area=min_area)
        if float(np.hypot(*(np.array(region.centroid) - center))) > inner_radius
    ]
    if not regions:
        return 1

    rows = np.arange(h) - h // 2
    cols = np.arange(w) - w // 2
    radial = np.hypot(rows[:, None], cols[None, :])
    outer = 0
    for region in regions:
        distance = float(np.hypot(*(np.array(region.centroid) - center)))
        r0, c0, r1, c1 = region.bbox
        peak = float(spectrum[r0 : r1 + 1, c0 : c1 + 1].max())
        annulus = spectrum[(radial > distance - 3.0) & (radial < distance + 3.0)]
        background = float(np.median(annulus)) if annulus.size else 0.0
        if peak - background >= min_prominence:
            outer += 1
    return 1 + outer
