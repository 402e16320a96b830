"""Serving integration: Decamouflage as a plug-in preprocessing guard.

The paper describes Decamouflage as "an independent module compatible with
any existing scaling algorithms — alike a plug-in protector". This package
is that plug-in: a screen-then-scale pipeline with reject / quarantine /
sanitize policies and JSONL audit logging — plus a stdlib-only HTTP
service (:mod:`repro.serving.server`) and client
(:mod:`repro.serving.client`) that put the pipeline on the network.
"""

from repro.serving.audit import AuditLog, AuditRecord
from repro.serving.client import DetectionClient, DetectionVerdict
from repro.serving.pipeline import PipelineOutcome, PipelineStats, ProtectedPipeline
from repro.serving.policy import Policy
from repro.serving.server import DetectionServer, ServerConfig
from repro.serving.workers import WorkerPool, WorkerPoolConfig, WorkerSpec

__all__ = [
    "AuditLog",
    "AuditRecord",
    "DetectionClient",
    "DetectionServer",
    "DetectionVerdict",
    "PipelineOutcome",
    "PipelineStats",
    "Policy",
    "ProtectedPipeline",
    "ServerConfig",
    "WorkerPool",
    "WorkerPoolConfig",
    "WorkerSpec",
]
