"""Non-triggering: taint-wire — a shard pipe frame is decoded before math.

The frame read off a shard pipe passes through ``decode_image_payload``
(a recognized sanitizer) before any ndarray work.
"""

from __future__ import annotations

import numpy as np

from repro.serving.wire import decode_image_payload, read_frame


def handle(stream) -> float:
    frame = read_frame(stream)
    image = decode_image_payload(frame)
    return float(np.mean(image))
