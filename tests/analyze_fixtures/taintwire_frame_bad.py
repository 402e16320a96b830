"""Triggers: taint-wire — a shard pipe frame reaches ndarray machinery
undecoded.

``handle`` reads one frame off a shard pipe with the wire's frame reader
and views its bytes as pixels with ``np.frombuffer`` (raw-ndarray-sink).
"""

from __future__ import annotations

import numpy as np

from repro.serving.wire import read_frame


def handle(stream) -> "np.ndarray":
    frame = read_frame(stream)
    return np.frombuffer(frame, dtype=np.uint8)
