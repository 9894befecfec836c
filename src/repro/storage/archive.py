"""Platform archiving and restoration.

``PlatformArchive(directory).save(controller)`` writes a directory
snapshot; ``restore(master_secret)`` rebuilds an equivalent
:class:`~repro.core.controller.DataController`:

* every row file is first checked against the manifest's sha256 and size
  (:func:`~repro.storage.snapshot.problems`) — policy, consent and
  gateway rows decide what the restored platform releases;
* the audit log is replayed record by record and its hash chain compared
  against the manifest's head digest — a tampered archive fails restore;
* the events index is restored with its identity slots **still sealed**
  (the archive never contains plaintext identities); sealing keeps no
  nonce counter to restore (an older manifest's counter is ignored);
* id generators are fast-forwarded past every archived id;
* gateways and consent registries are rebuilt and re-attached, a registry
  with no decision from its regime row; producers and consumers
  reconnect their client objects (and re-subscribe) on top.

The same ``master_secret`` and ``seed`` used at save time must be supplied
at restore time — keys are derived, never stored.
"""

from __future__ import annotations

import json
from dataclasses import asdict
from itertools import chain
from pathlib import Path

from repro.audit.log import AuditRecord
from repro.clock import Clock
from repro.core.actors import Actor, ActorKind
from repro.core.consent import ConsentDecision, ConsentRegistry, ConsentScope
from repro.core.contracts import Contract, ContractStatus
from repro.core.controller import DataController
from repro.core.events import EventClass
from repro.core.gateway import LocalCooperationGateway
from repro.core.idmap import EventIdEntry
from repro.core.policy import PrivacyPolicy
from repro.exceptions import (
    ConfigurationError,
    TamperedLogError,
    UnknownProducerError,
)
from repro.storage.jsonl import JsonlFile, write_atomic
from repro.storage.schemas import (
    schema_from_dict,
    schema_to_dict,
    values_from_wire,
    values_to_wire,
)
from repro.storage.snapshot import describe, problems
from repro.xmlmsg.document import XmlDocument

_FILES = ("actors", "contracts", "catalog", "policies", "idmap", "index",
          "gateways", "consent", "audit")


class PlatformArchive:
    """A directory-backed snapshot of a data controller."""

    def __init__(self, directory: str | Path) -> None:
        self.directory = Path(directory)

    def _file(self, name: str) -> JsonlFile:
        return JsonlFile(self.directory / f"{name}.jsonl")

    @property
    def manifest_path(self) -> Path:
        return self.directory / "manifest.json"

    # -- save ------------------------------------------------------------

    def save(self, controller: DataController) -> None:
        """Write a full snapshot of ``controller``."""
        if self.manifest_path.exists():
            raise ConfigurationError(
                f"archive directory {self.directory} already holds a snapshot"
            )
        self.directory.mkdir(parents=True, exist_ok=True)

        self._file("actors").append_many([
            {"actor_id": a.actor_id, "name": a.name, "kind": a.kind.value,
             "role": a.role, "description": a.description}
            for a in controller.actors.all_actors()
        ])
        self._file("contracts").append_many([
            {"party_id": c.party_id, "kind": c.kind.value,
             "signed_at": c.signed_at, "valid_until": c.valid_until,
             "status": c.status.value}
            for c in (controller.contracts.get(a.actor_id)
                      for a in controller.actors.all_actors())
        ])
        catalog_rows = []
        for event_class in controller.catalog.all_classes():
            for version in controller.catalog.history(event_class.name):
                catalog_rows.append({
                    "name": version.name, "producer_id": version.producer_id,
                    "category": version.category, "description": version.description,
                    "version": version.version,
                    "schema": schema_to_dict(version.schema),
                })
        self._file("catalog").append_many(catalog_rows)

        policy_rows = []
        for policy_id, policy in controller.policies.items():
            policy_rows.append({
                "policy_id": policy.policy_id, "producer_id": policy.producer_id,
                "event_type": policy.event_type,
                "fields": sorted(policy.fields),
                "purposes": sorted(policy.purposes),
                "actor_id": policy.actor_id, "actor_role": policy.actor_role,
                "label": policy.label, "description": policy.description,
                "valid_from": policy.valid_from, "valid_until": policy.valid_until,
                "deny": policy.deny,
                "revoked": controller.policies.is_revoked(policy_id),
                "xacml": controller.policies.xacml_text(policy_id),
            })
        self._file("policies").append_many(policy_rows)

        self._file("idmap").append_many(
            [asdict(entry) for entry in controller.id_map.entries()]
        )

        self._file("index").append_many(controller.index.dump())

        gateway_rows = []
        for actor in controller.actors.producers():
            try:
                gateway = controller.gateway_of(actor.actor_id)
            except UnknownProducerError:  # no gateway attached
                continue
            for src_event_id, event_class, details in gateway.stored_entries():
                gateway_rows.append({
                    "producer_id": actor.actor_id,
                    "src_event_id": src_event_id,
                    "event_type": event_class.name,
                    "event_version": event_class.version,
                    "fields": values_to_wire(details.fields, event_class.schema),
                })
        self._file("gateways").append_many(gateway_rows)

        consent_rows = []
        for actor in controller.actors.producers():
            registry = controller.consent_registry_of(actor.actor_id)
            if registry is None:
                continue
            regime = {"producer_id": actor.actor_id,
                      "default_granted": registry.default_granted}
            rows = [{**regime, "subject_id": decision.subject_id,
                     "scope": decision.scope.value, "granted": decision.granted,
                     "event_type": decision.event_type, "decided_at": decision.decided_at}
                    for decision in registry.decisions()]
            consent_rows.extend(rows or [regime])  # with no decision the regime still decides
        self._file("consent").append_many(consent_rows)

        self._file("audit").append_many([
            r.to_payload() for r in controller.audit_log.records()
        ])

        manifest = {
            "seed": controller.ids.seed,
            "clock_now": controller.clock.now(),
            "encrypt_identity": controller.index.encrypt_identity,
            "audit_head": controller.audit_log.head_digest,
            "id_skips": self._id_skips(controller),
            "files": describe(self.directory,
                              [f"{name}.jsonl" for name in _FILES]),
        }
        write_atomic(self.manifest_path, json.dumps(manifest, indent=2))

    @staticmethod
    def _id_skips(controller: DataController) -> dict[str, int]:
        """Highest counter seen per id prefix, parsed from archived ids."""
        skips: dict[str, int] = {}
        for identifier in chain(
                (entry.event_id for entry in controller.id_map.entries()),
                (record.record_id for record in controller.audit_log.records()),
                (policy_id for policy_id, _ in controller.policies.items())):
            parts = (identifier or "").split("-")
            if len(parts) == 3 and parts[1].isdigit():
                skips[parts[0]] = max(skips.get(parts[0], 0), int(parts[1]))
        return skips

    # -- restore -------------------------------------------------------------------

    def restore(self, master_secret: str) -> DataController:
        """Rebuild an equivalent controller from the snapshot.

        Raises :class:`~repro.exceptions.TamperedLogError` before anything
        is built, listing every row file that is missing, truncated,
        altered or absent from the manifest, and afterwards if the
        replayed audit chain does not reproduce the manifest's head digest.
        """
        if not self.manifest_path.exists():
            raise ConfigurationError(f"no snapshot in {self.directory}")
        manifest = json.loads(self.manifest_path.read_text())
        files = manifest.get("files", {})
        found = [f"{name}.jsonl: not vouched for by the manifest"
                 for name in _FILES if f"{name}.jsonl" not in files]
        found += problems(self.directory, files)
        if found:
            raise TamperedLogError(
                f"archive {self.directory} does not match its manifest: "
                + "; ".join(found)
            )

        controller = DataController(
            clock=Clock(start=manifest["clock_now"]),
            master_secret=master_secret,
            seed=manifest["seed"],
            encrypt_identity=manifest["encrypt_identity"],
        )
        for prefix, count in manifest.get("id_skips", {}).items():
            controller.ids.skip(prefix, count)

        # Audit log first: replay and verify against the manifest head.
        for row in self._file("audit").iter_records():
            controller.audit_log.append(AuditRecord.from_payload(row))
        controller.audit_log.verify_integrity()
        if controller.audit_log.head_digest != manifest["audit_head"]:
            raise TamperedLogError(
                "restored audit chain does not match the archived head digest"
            )

        for row in self._file("actors").iter_records():
            controller.actors.add(Actor(
                actor_id=row["actor_id"], name=row["name"],
                kind=ActorKind(row["kind"]), role=row["role"],
                description=row["description"],
            ))
        for row in self._file("contracts").iter_records():
            controller.contracts.sign(Contract(
                party_id=row["party_id"], kind=ActorKind(row["kind"]),
                signed_at=row["signed_at"], valid_until=row["valid_until"],
                status=ContractStatus(row["status"]),
            ))

        catalog_rows = sorted(self._file("catalog").iter_records(),
                              key=lambda row: (row["name"], row["version"]))
        for row in catalog_rows:
            event_class = EventClass(
                name=row["name"], producer_id=row["producer_id"],
                schema=schema_from_dict(row["schema"]),
                category=row["category"], description=row["description"],
                version=1,
            )
            if row["version"] == 1:
                controller.catalog.install(event_class)
                controller.bus.declare_topic(event_class.topic)
            else:
                controller.catalog.upgrade(event_class)

        for row in self._file("policies").iter_records():
            policy = PrivacyPolicy(
                policy_id=row["policy_id"], producer_id=row["producer_id"],
                event_type=row["event_type"],
                fields=frozenset(row["fields"]),
                purposes=frozenset(row["purposes"]),
                actor_id=row["actor_id"], actor_role=row["actor_role"],
                label=row["label"], description=row["description"],
                valid_from=row["valid_from"], valid_until=row["valid_until"],
                deny=row.get("deny", False),
            )
            controller.policies.add(policy, row["xacml"])
            if row["revoked"]:
                controller.policies.revoke(policy.policy_id)

        for row in self._file("idmap").iter_records():
            controller.id_map.record(EventIdEntry(**row))

        controller.index.replay(self._file("index").iter_records())

        gateways: dict[str, LocalCooperationGateway] = {}
        for row in self._file("gateways").iter_records():
            producer_id = row["producer_id"]
            if producer_id not in gateways:
                gateways[producer_id] = LocalCooperationGateway(producer_id)
            event_class = controller.catalog.get_version(
                row["event_type"], row["event_version"])
            details = XmlDocument(
                row["event_type"],
                values_from_wire(row["fields"], event_class.schema),
            )
            gateways[producer_id].restore_detail(row["src_event_id"], event_class, details)
        # Producers without archived details still need (empty) gateways.
        for actor in controller.actors.producers():
            gateways.setdefault(actor.actor_id, LocalCooperationGateway(actor.actor_id))
        for producer_id, gateway in gateways.items():
            controller.attach_gateway(producer_id, gateway, check_contract=False)

        registries: dict[str, ConsentRegistry] = {}
        for row in self._file("consent").iter_records():
            if row["producer_id"] not in registries:
                registries[row["producer_id"]] = ConsentRegistry(
                    row["producer_id"], default_granted=row["default_granted"])
            if "subject_id" not in row:  # a regime row: no decision recorded
                continue
            registries[row["producer_id"]].record(ConsentDecision(
                subject_id=row["subject_id"],
                scope=ConsentScope(row["scope"]),
                granted=row["granted"],
                event_type=row["event_type"],
                decided_at=row["decided_at"],
            ))
        for producer_id, registry in registries.items():
            controller.attach_consent(producer_id, registry, check_contract=False)

        return controller
