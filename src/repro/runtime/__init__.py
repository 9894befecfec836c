"""Runtime layer: service interfaces, configuration and hot-path pipelines.

See :mod:`repro.runtime.interfaces` for the collaborator protocols,
:mod:`repro.runtime.kernel` for the runtime configuration and
:mod:`repro.runtime.interceptors` for the hot-path pipelines.
"""

from repro.runtime.interceptors import (
    PUBLISH,
    REQUEST_DETAILS,
    Invocation,
    PublishStats,
    build_details_edge_pipeline,
    build_enforcement_pipeline,
    build_publish_pipeline,
)
from repro.runtime.interfaces import (
    AuditSink,
    CipherProvider,
    CooperationGateway,
    DetailFetcher,
    IndexStore,
    NotificationTransport,
    PolicyDecisionPoint,
)
from repro.runtime.kernel import RuntimeConfig
from repro.runtime.services import (
    DirectDetailFetcher,
    EndpointDetailFetcher,
    gateway_endpoint_name,
)


def __getattr__(name: str):
    # The JSONL backends sit behind repro.storage, whose package __init__
    # pulls in the archive (and with it the controller); importing them
    # lazily keeps `import repro.runtime` out of that cycle.
    if name in ("JsonlAuditSink", "JsonlIndexStore"):
        from repro.runtime import backends

        return getattr(backends, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "PUBLISH",
    "REQUEST_DETAILS",
    "AuditSink",
    "CipherProvider",
    "CooperationGateway",
    "DetailFetcher",
    "DirectDetailFetcher",
    "EndpointDetailFetcher",
    "IndexStore",
    "Invocation",
    "JsonlAuditSink",
    "JsonlIndexStore",
    "NotificationTransport",
    "PolicyDecisionPoint",
    "PublishStats",
    "RuntimeConfig",
    "build_details_edge_pipeline",
    "build_enforcement_pipeline",
    "build_publish_pipeline",
    "gateway_endpoint_name",
]
