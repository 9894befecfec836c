"""repro — reproduction of the CSS privacy-preserving event-driven platform.

Implements Armellin et al., *Privacy Preserving Event Driven Integration
for Interoperating Social and Health Systems* (SDM@VLDB 2010): an
event-driven SOA in which producers publish *notification messages*
(who/what/when/where) through a central data controller while sensitive
*detail messages* stay at the source, released field-by-field through a
purpose-based, deny-by-default privacy-policy enforcement pipeline
(XACML PEP/PIP/PDP + producer-side local cooperation gateways).

Quickstart::

    from repro import DataController, DataProducer, DataConsumer, ActorKind

    controller = DataController()
    hospital = DataProducer(controller, "Hospital-S-Maria", "Hospital S. Maria")
    doctor = DataConsumer(controller, "Dr-Rossi", "Dr. Rossi", role="family-doctor")
    # declare classes, define policies, publish, subscribe, request details...

See README.md for the full tour and DESIGN.md for the architecture map.
"""

from repro.clock import Clock
from repro.core.actors import Actor, ActorDirectory, ActorKind
from repro.core.consent import ConsentRegistry, ConsentScope
from repro.core.consumer import DataConsumer
from repro.core.controller import DataController
from repro.core.elicitation import ElicitationWizard, PolicyDashboard
from repro.core.enforcement import DetailRequest, PolicyEnforcer
from repro.core.events import EventClass, EventOccurrence
from repro.core.gateway import LocalCooperationGateway
from repro.core.messages import DetailMessage, NotificationMessage
from repro.core.policy import (
    DetailRequestSpec,
    PolicyRepository,
    PrivacyPolicy,
    is_privacy_safe,
)
from repro.core.producer import DataProducer
from repro.core.purposes import (
    ADMINISTRATION,
    HEALTHCARE_TREATMENT,
    REIMBURSEMENT,
    SERVICE_MONITORING,
    STATISTICAL_ANALYSIS,
    Purpose,
    PurposeRegistry,
)
from repro.exceptions import AccessDeniedError, CssError
from repro.federation import FederatedPlatform
from repro.runtime.kernel import RuntimeConfig
from repro.xmlmsg.document import XmlDocument
from repro.xmlmsg.schema import ElementDecl, MessageSchema, Occurs
from repro.xmlmsg.types import (
    BooleanType,
    DateType,
    DecimalType,
    EnumerationType,
    IntegerType,
    StringType,
)

__version__ = "1.0.0"

__all__ = [
    "ADMINISTRATION",
    "AccessDeniedError",
    "Actor",
    "ActorDirectory",
    "ActorKind",
    "BooleanType",
    "Clock",
    "ConsentRegistry",
    "ConsentScope",
    "CssError",
    "DataConsumer",
    "DataController",
    "DataProducer",
    "DateType",
    "DecimalType",
    "DetailMessage",
    "DetailRequest",
    "DetailRequestSpec",
    "ElementDecl",
    "ElicitationWizard",
    "EnumerationType",
    "EventClass",
    "EventOccurrence",
    "FederatedPlatform",
    "HEALTHCARE_TREATMENT",
    "IntegerType",
    "LocalCooperationGateway",
    "MessageSchema",
    "NotificationMessage",
    "Occurs",
    "PolicyDashboard",
    "PolicyEnforcer",
    "PolicyRepository",
    "PrivacyPolicy",
    "Purpose",
    "PurposeRegistry",
    "REIMBURSEMENT",
    "RuntimeConfig",
    "SERVICE_MONITORING",
    "STATISTICAL_ANALYSIS",
    "StringType",
    "XmlDocument",
    "is_privacy_safe",
]
