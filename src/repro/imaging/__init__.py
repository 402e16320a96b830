"""Imaging substrate: everything the detectors and attacks stand on.

The paper's pipeline assumes OpenCV/TensorFlow image primitives; this
package reimplements the needed subset from scratch (numpy + stdlib) so the
reproduction is self-contained:

* :mod:`repro.imaging.image` — array conventions and validation
* :mod:`repro.imaging.png` / :mod:`repro.imaging.ppm` — file codecs
* :mod:`repro.imaging.color` — color conversions
* :mod:`repro.imaging.kernels` / :mod:`coefficients` / :mod:`scaling` —
  separable resizing as explicit linear operators (the attack surface)
* :mod:`repro.imaging.filtering` — order-statistic and smoothing filters
* :mod:`repro.imaging.fourier` / :mod:`contours` — spectrum analysis
* :mod:`repro.imaging.metrics` / :mod:`histogram` — similarity metrics
* :mod:`repro.imaging.plans` — precompiled scoring plans: cached round-trip
  operators and spectrum geometry, the one scoring path

Every scoring primitive works on one image. There are no stacked
multi-image variants: a batch is a loop, so batch and single-image
scoring run the same code.
"""

from repro.imaging.color import rgb_to_ycbcr, to_grayscale, to_rgb, ycbcr_to_rgb
from repro.imaging.coefficients import (
    coefficient_sparsity,
    scaling_matrix,
    scaling_operators,
    vulnerable_source_pixels,
)
from repro.imaging.contours import Region, count_spectrum_points, find_regions, label_components
from repro.imaging.filtering import (
    gaussian_filter,
    maximum_filter,
    median_filter,
    minimum_filter,
    uniform_filter,
)
from repro.imaging.fourier import (
    binary_spectrum,
    centered_spectrum,
    csp_count,
    csp_count_from_spectrum,
    log_spectrum_image,
    radial_lowpass_mask,
)
from repro.imaging.histogram import channel_histogram, histogram_distance, histogram_match
from repro.imaging.image import as_float, as_uint8, ensure_image
from repro.imaging.metrics import histogram_intersection, mse, psnr, ssim, ssim_fast
from repro.imaging.plans import (
    PlanCache,
    ScoringPlan,
    SpectrumGeometry,
    clear_plan_caches,
    csp_count_fast,
    geometry_cache_stats,
    get_scoring_plan,
    get_spectrum_geometry,
    plan_cache_stats,
)
from repro.imaging.png import decode_png, encode_png, read_png, write_png
from repro.imaging.ppm import decode_netpbm, encode_netpbm, read_ppm, write_ppm
from repro.imaging.scaling import (
    ALGORITHMS,
    clear_operator_cache,
    downscale_then_upscale,
    operator_cache_stats,
    resize,
)

__all__ = [
    "ALGORITHMS",
    "PlanCache",
    "Region",
    "ScoringPlan",
    "SpectrumGeometry",
    "as_float",
    "as_uint8",
    "binary_spectrum",
    "centered_spectrum",
    "channel_histogram",
    "clear_operator_cache",
    "clear_plan_caches",
    "coefficient_sparsity",
    "count_spectrum_points",
    "csp_count",
    "csp_count_fast",
    "csp_count_from_spectrum",
    "downscale_then_upscale",
    "ensure_image",
    "find_regions",
    "gaussian_filter",
    "geometry_cache_stats",
    "get_scoring_plan",
    "get_spectrum_geometry",
    "histogram_distance",
    "histogram_intersection",
    "histogram_match",
    "label_components",
    "log_spectrum_image",
    "maximum_filter",
    "median_filter",
    "minimum_filter",
    "mse",
    "operator_cache_stats",
    "plan_cache_stats",
    "psnr",
    "radial_lowpass_mask",
    "decode_netpbm",
    "decode_png",
    "encode_netpbm",
    "encode_png",
    "read_png",
    "read_ppm",
    "resize",
    "rgb_to_ycbcr",
    "scaling_matrix",
    "scaling_operators",
    "ssim",
    "ssim_fast",
    "to_grayscale",
    "to_rgb",
    "uniform_filter",
    "vulnerable_source_pixels",
    "write_png",
    "write_ppm",
    "ycbcr_to_rgb",
]
