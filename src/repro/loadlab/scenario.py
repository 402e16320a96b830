"""Declarative load-lab scenarios: frozen specs with a content fingerprint.

A :class:`Scenario` composes four orthogonal choices:

* :class:`LoadProfile` — how the offered intensity evolves over the run
  (``constant``, ``ramp``, ``spike``, ``diurnal``), expanded into a
  sequence of fixed-duration levels;
* :class:`ArrivalModel` — what "intensity" means: ``closed`` (that many
  concurrent back-to-back clients) or ``poisson`` (an open-loop arrival
  process at that mean rate in requests/second);
* :class:`WorkloadMix` — what each request is: benign single images,
  crafted attack images, undecodable garbage frames, slow-loris
  connection holds, or batch endpoint calls;
* :class:`ServerSpec` — the server under test (worker shards, admission
  knobs) and how to launch it (``subprocess``/``inprocess``/``external``).

Everything is a frozen dataclass, serializable to/from JSON
(:meth:`Scenario.to_json` / :func:`load_scenario`), and
:meth:`Scenario.fingerprint` is a stable content address in the spirit of
:class:`repro.eval.data.DataConfig`: two scenarios with equal
fingerprints compile to the same offered-load schedule under the same
seed. The cosmetic ``description`` is excluded from the fingerprint.
"""

from __future__ import annotations

import hashlib
import json
import math
from collections.abc import Mapping
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

from repro.errors import LoadLabError

__all__ = [
    "ARRIVAL_KINDS",
    "ArrivalModel",
    "LAUNCH_KINDS",
    "LoadLevel",
    "LoadProfile",
    "PROFILE_KINDS",
    "REQUEST_KINDS",
    "Scenario",
    "ServerSpec",
    "WorkloadMix",
    "load_scenario",
]

PROFILE_KINDS = ("constant", "ramp", "geometric", "spike", "diurnal")
ARRIVAL_KINDS = ("closed", "poisson")
LAUNCH_KINDS = ("subprocess", "inprocess", "external")
#: Request kinds a mix can weight. ``benign``/``attack``/``batch`` expect
#: HTTP 200, ``garbage`` expects a 400 rejection, ``slow_loris`` holds a
#: connection open without completing a request.
REQUEST_KINDS = ("benign", "attack", "garbage", "slow_loris", "batch")


@dataclass(frozen=True)
class LoadLevel:
    """One expanded step of a profile: intensity held for a duration."""

    intensity: float
    duration_s: float


@dataclass(frozen=True)
class LoadProfile:
    """How offered intensity evolves: a named shape expanded into levels.

    ``base`` and ``peak`` are intensities in the arrival model's unit
    (clients for closed-loop, requests/second for open-loop). Shapes:

    * ``constant`` — ``steps`` identical levels at ``base``;
    * ``ramp`` — ``steps`` levels linearly from ``base`` to ``peak``;
    * ``geometric`` — ``steps`` levels on a geometric grid from ``base``
      to ``peak`` (64 → 512 over four steps doubles each level: the
      shape concurrency sweeps want);
    * ``spike`` — ``base`` everywhere except the middle level at ``peak``;
    * ``diurnal`` — a raised-cosine day/night wave between ``base`` and
      ``peak``, ``periods`` full cycles across ``steps`` levels.
    """

    kind: str = "constant"
    base: float = 4.0
    peak: float | None = None
    steps: int = 4
    periods: int = 1
    level_duration_s: float = 5.0

    def __post_init__(self) -> None:
        if self.kind not in PROFILE_KINDS:
            raise LoadLabError(
                f"unknown profile kind {self.kind!r} (expected one of {PROFILE_KINDS})"
            )
        if self.base <= 0:
            raise LoadLabError(f"profile base must be > 0, got {self.base}")
        if self.steps < 1:
            raise LoadLabError(f"profile steps must be >= 1, got {self.steps}")
        if self.level_duration_s <= 0:
            raise LoadLabError(
                f"level_duration_s must be > 0, got {self.level_duration_s}"
            )
        if self.kind != "constant" and self.peak is None:
            raise LoadLabError(f"profile kind {self.kind!r} requires a peak")
        if self.kind == "geometric" and self.peak is not None and self.peak <= 0:
            raise LoadLabError(f"geometric peak must be > 0, got {self.peak}")
        if self.kind == "spike" and self.steps < 3:
            raise LoadLabError("spike profiles need steps >= 3 (base, peak, base)")
        if self.kind == "diurnal" and self.periods < 1:
            raise LoadLabError(f"diurnal periods must be >= 1, got {self.periods}")

    def levels(self) -> tuple[LoadLevel, ...]:
        """The profile expanded into fixed-duration intensity levels."""
        if self.kind == "constant":
            intensities = [self.base] * self.steps
        elif self.kind == "ramp":
            if self.steps == 1:
                intensities = [float(self.peak)]
            else:
                span = (self.peak - self.base) / (self.steps - 1)
                intensities = [self.base + span * i for i in range(self.steps)]
        elif self.kind == "geometric":
            if self.steps == 1:
                intensities = [float(self.peak)]
            else:
                ratio = (self.peak / self.base) ** (1.0 / (self.steps - 1))
                intensities = [self.base * ratio**i for i in range(self.steps)]
        elif self.kind == "spike":
            intensities = [self.base] * self.steps
            intensities[self.steps // 2] = float(self.peak)
        else:  # diurnal
            swing = self.peak - self.base
            intensities = [
                self.base
                + swing * (1.0 - math.cos(2.0 * math.pi * self.periods * i / self.steps)) / 2.0
                for i in range(self.steps)
            ]
        return tuple(
            LoadLevel(float(value), self.level_duration_s) for value in intensities
        )


@dataclass(frozen=True)
class ArrivalModel:
    """What a level's intensity means and how requests enter the system."""

    kind: str = "closed"
    #: Closed-loop: per-client pause between a response and the next
    #: request (0 = back-to-back, the classic closed loop).
    think_time_s: float = 0.0
    #: Open-loop: dispatch thread cap — arrivals beyond it still fire on
    #: schedule but queue inside the executor rather than growing threads
    #: without bound.
    max_outstanding: int = 64

    def __post_init__(self) -> None:
        if self.kind not in ARRIVAL_KINDS:
            raise LoadLabError(
                f"unknown arrival kind {self.kind!r} (expected one of {ARRIVAL_KINDS})"
            )
        if self.think_time_s < 0:
            raise LoadLabError(f"think_time_s must be >= 0, got {self.think_time_s}")
        if self.max_outstanding < 1:
            raise LoadLabError(
                f"max_outstanding must be >= 1, got {self.max_outstanding}"
            )


@dataclass(frozen=True)
class WorkloadMix:
    """Relative weights over request kinds plus their shape parameters."""

    benign: float = 1.0
    attack: float = 0.0
    garbage: float = 0.0
    slow_loris: float = 0.0
    batch: float = 0.0
    #: Images per ``batch`` request.
    batch_size: int = 4
    #: How long one slow-loris connection dribbles before giving up.
    slow_loris_hold_s: float = 1.0
    #: Distinct benign payloads in the rotation pool.
    pool_size: int = 8
    #: Distinct crafted attack payloads (crafting is expensive; keep small).
    attack_pool_size: int = 2

    def __post_init__(self) -> None:
        weights = self.weights()
        if any(value < 0 for value in weights.values()):
            raise LoadLabError(f"mix weights must be >= 0, got {weights}")
        if sum(weights.values()) <= 0:
            raise LoadLabError("mix weights must not all be zero")
        if self.batch_size < 1:
            raise LoadLabError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.slow_loris_hold_s <= 0:
            raise LoadLabError(
                f"slow_loris_hold_s must be > 0, got {self.slow_loris_hold_s}"
            )
        if self.pool_size < 1 or self.attack_pool_size < 1:
            raise LoadLabError("payload pool sizes must be >= 1")

    def weights(self) -> dict[str, float]:
        """``kind -> weight`` in :data:`REQUEST_KINDS` order."""
        return {
            "benign": self.benign,
            "attack": self.attack,
            "garbage": self.garbage,
            "slow_loris": self.slow_loris,
            "batch": self.batch,
        }

    def probabilities(self) -> dict[str, float]:
        """The weights normalized to sum to 1."""
        weights = self.weights()
        total = sum(weights.values())
        return {kind: value / total for kind, value in weights.items()}


@dataclass(frozen=True)
class ServerSpec:
    """The server under test and how the runner brings it up."""

    #: ``subprocess`` spawns ``repro serve`` as a child process (honest
    #: per-process telemetry), ``inprocess`` embeds a DetectionServer in
    #: the driver process (fast; dispatcher CPU includes the generator),
    #: ``external`` attaches to an already-running server.
    launch: str = "subprocess"
    workers: int = 2
    max_active: int = 4
    queue_depth: int = 64
    deadline_ms: float = 10_000.0
    input_size: tuple[int, int] = (16, 16)
    source_size: tuple[int, int] = (128, 128)
    #: Benign calibration holdout size for a self-launched server.
    holdout: int = 24
    percentile: float = 5.0
    algorithm: str = "bilinear"

    def __post_init__(self) -> None:
        if self.launch not in LAUNCH_KINDS:
            raise LoadLabError(
                f"unknown launch kind {self.launch!r} (expected one of {LAUNCH_KINDS})"
            )
        if self.workers < 0:
            raise LoadLabError(f"workers must be >= 0, got {self.workers}")
        if self.holdout < 20:
            # calibrate() needs a meaningful holdout; match the CLI's floor.
            raise LoadLabError(f"holdout must be >= 20 images, got {self.holdout}")


@dataclass(frozen=True)
class Scenario:
    """One frozen, named, reproducible load experiment."""

    name: str
    profile: LoadProfile = field(default_factory=LoadProfile)
    arrival: ArrivalModel = field(default_factory=ArrivalModel)
    mix: WorkloadMix = field(default_factory=WorkloadMix)
    server: ServerSpec = field(default_factory=ServerSpec)
    seed: int = 0
    description: str = ""
    #: Resource sampler period for the dispatcher + shard series.
    sample_period_s: float = 0.2
    #: Bootstrap resamples behind every confidence interval.
    bootstrap_resamples: int = 200
    #: Client-side socket timeout per request.
    client_timeout_s: float = 30.0
    #: Client retries on 429/503/transport (0 = measure every response
    #: as-is; raise only when the server under test closes connections
    #: between requests, e.g. scripted fakes).
    client_retries: int = 0
    #: Safety cap per level (None = bounded by the level duration alone).
    max_requests_per_level: int | None = None
    #: Unrecorded benign requests fired before level 0, so cold caches
    #: (shard plan compilation, operator memos) don't distort the first
    #: level's latencies.
    warmup_requests: int = 0

    def __post_init__(self) -> None:
        if not self.name:
            raise LoadLabError("scenario name must be non-empty")
        if self.sample_period_s <= 0:
            raise LoadLabError(
                f"sample_period_s must be > 0, got {self.sample_period_s}"
            )
        if self.bootstrap_resamples < 1:
            raise LoadLabError(
                f"bootstrap_resamples must be >= 1, got {self.bootstrap_resamples}"
            )
        if self.client_retries < 0:
            raise LoadLabError(f"client_retries must be >= 0, got {self.client_retries}")
        if self.max_requests_per_level is not None and self.max_requests_per_level < 1:
            raise LoadLabError(
                f"max_requests_per_level must be >= 1, got {self.max_requests_per_level}"
            )
        if self.warmup_requests < 0:
            raise LoadLabError(
                f"warmup_requests must be >= 0, got {self.warmup_requests}"
            )

    # -- serialization --------------------------------------------------------

    def as_dict(self) -> dict:
        """JSON-ready nested mapping (tuples become lists)."""
        payload = asdict(self)
        payload["server"]["input_size"] = list(self.server.input_size)
        payload["server"]["source_size"] = list(self.server.source_size)
        return payload

    @classmethod
    def from_dict(cls, payload: Mapping) -> "Scenario":
        if not isinstance(payload, Mapping):
            raise LoadLabError(f"scenario payload must be a mapping, got {type(payload).__name__}")
        data = dict(payload)
        try:
            profile = LoadProfile(**data.pop("profile", {}))
            arrival = ArrivalModel(**data.pop("arrival", {}))
            mix = WorkloadMix(**data.pop("mix", {}))
            server_fields = dict(data.pop("server", {}))
            for key in ("input_size", "source_size"):
                if key in server_fields:
                    server_fields[key] = tuple(server_fields[key])
            server = ServerSpec(**server_fields)
            return cls(
                profile=profile, arrival=arrival, mix=mix, server=server, **data
            )
        except TypeError as exc:
            raise LoadLabError(f"malformed scenario payload: {exc}") from exc

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), indent=2, sort_keys=True) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "Scenario":
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise LoadLabError(f"scenario is not valid JSON: {exc}") from exc
        return cls.from_dict(payload)

    def fingerprint(self) -> str:
        """Stable short content hash; the ``description`` is cosmetic and
        excluded, everything that shapes the run is included."""
        payload = self.as_dict()
        payload.pop("description", None)
        canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]

    def scaled(self, duration_scale: float) -> "Scenario":
        """A copy with every level duration multiplied by *duration_scale*
        (CI and benchmarks run the same shapes at a fraction of the time)."""
        if duration_scale <= 0:
            raise LoadLabError(f"duration_scale must be > 0, got {duration_scale}")
        if duration_scale == 1.0:
            return self
        profile = replace(
            self.profile,
            level_duration_s=self.profile.level_duration_s * duration_scale,
        )
        return replace(self, profile=profile)

    def with_seed(self, seed: int) -> "Scenario":
        return replace(self, seed=int(seed))


def load_scenario(path: str | Path) -> Scenario:
    """Read one scenario spec from a JSON file."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise LoadLabError(f"cannot read scenario {path}: {exc}") from exc
    return Scenario.from_json(text)
