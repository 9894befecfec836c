"""Runtime configuration, controller composition and durable-backend tests.

Pins the composition contract: collaborators with a real choice are
built by the controller from the name their ``RuntimeConfig`` field holds,
an unknown name is refused by the config itself in the platform's
configuration-error wording, what follows from a fact (durable iff a data
directory, sharded iff a membership, observed by the telemetry handed in)
is read — the same way by a bare controller and under a platform — each
collaborator is its one concrete class, and the durable
index/audit pair survives a restart (with tamper detection on the audit
chain).
"""

from dataclasses import fields
from itertools import product

import pytest

from repro import DataConsumer, DataController, DataProducer, RuntimeConfig
from repro.audit.log import AuditAction, AuditLog, AuditOutcome
from repro.bus.broker import ServiceBus
from repro.bus.subscriptions import PerfLayer
from repro.clock import Clock
from repro.core.controller import EndpointDetailFetcher
from repro.core.enforcement import PolicyEnforcer
from repro.core.gateway import LocalCooperationGateway
from repro.core.index import EventsIndex
from repro.crypto.keystore import KeyStore
from repro.exceptions import AccessDeniedError, ConfigurationError, TamperedLogError
from repro.federation.index import FederatedIndexStore
from repro.federation.platform import FederatedPlatform
from repro.obs.guard import TelemetryPrivacyError
from repro.obs.recorder import FlightRecorder
from repro.obs.slo import SLOEngine
from repro.obs.telemetry import InMemoryTelemetry
from repro.runtime.backends import JsonlAuditSink, JsonlIndexStore
from repro.runtime.kernel import SWITCHES
from repro.sched import BacklogBound
from repro.storage import SegmentedLog, StorageEngine
from repro.storage.segment import encode_frame
from tests.conftest import blood_test_schema, build_federation, encode_entry
from tests.faults import DiskFaults


def build_world(runtime=None):
    controller = DataController(seed="kern", runtime=runtime)
    hospital = DataProducer(controller, "Hospital", "Hospital")
    blood = hospital.declare_event_class(blood_test_schema())
    doctor = DataConsumer(controller, "Dr-Rossi", "Dr. Rossi", role="family-doctor")
    hospital.define_policy(
        "BloodTest", fields=["PatientId", "Hemoglobin"],
        consumers=[("family-doctor", "role")], purposes=["healthcare-treatment"])
    return controller, hospital, blood, doctor


def publish(hospital, blood, subject="p1"):
    return hospital.publish(
        blood, subject_id=subject, subject_name="Mario Bianchi", summary="done",
        details={"PatientId": subject, "Name": "Mario", "Hemoglobin": 14.0,
                 "Glucose": 90.0, "HivResult": "negative"})


#: The switches that build a controller collaborator -> the field name it is
#: exposed under (``telemetry_guard`` configures the telemetry; ``batch: on``
#: exposes the ``batch_size`` its logs and shard frames commit at).
COLLABORATORS = {"telemetry": "telemetry", "recorder": "recorder", "batch": "batch_size"}


class TestKernelRegistry:
    def test_default_wiring_table(self):
        assert SWITCHES == {
            "telemetry": ("inmemory", "noop"),
            "telemetry_guard": ("hash", "reject"),
            "recorder": ("noop", "ring"),
            "batch": ("off", "on"),
        }
        # Only collaborators with a real choice are switches (store,
        # index and audit follow from ``data_dir``, an SLO engine is built
        # by whoever reads it, the one hot path by the controller); the
        # design-size CI step fails past 13 fields.
        assert len(fields(RuntimeConfig)) == 13
        # No name stands for a fact.
        assert not {"federated", "shared"} & {
            name for names in SWITCHES.values() for name in names}

    def test_unknown_kind_and_name_are_configuration_errors(self):
        with pytest.raises(ConfigurationError, match="unknown recorder 'lottery'"):
            RuntimeConfig(recorder="lottery")
        # Store, index and audit are no switches: there is nothing to name.
        assert not {"store", "index", "audit"} & set(SWITCHES)
        with pytest.raises(TypeError):
            RuntimeConfig(index="memory")

    def test_unknown_name_error_lists_implementations_and_suggests(self):
        with pytest.raises(ConfigurationError,
                           match=r"available: inmemory, noop") as excinfo:
            RuntimeConfig(telemetry="inmemry")
        assert "did you mean 'inmemory'?" in str(excinfo.value)

    @pytest.mark.parametrize("field_name, typo, meant", [
        ("telemetry", "inmemroy", "inmemory"),
        ("telemetry_guard", "rejekt", "reject"),
        ("recorder", "rign", "ring"),
        ("batch", "onn", "on"),
    ])
    def test_a_mistyped_name_is_refused_by_the_config_itself(
            self, field_name, typo, meant):
        # At the parent a typo in ``telemetry_guard`` built a bare
        # controller, and every one of these reached a controller before
        # it was refused (as a ``ValueError`` for the guard mode).
        with pytest.raises(ConfigurationError) as refusal:
            RuntimeConfig(**{field_name: typo})
        assert str(refusal.value) == (
            f"unknown {field_name} {typo!r}; did you mean {meant!r}? "
            f"available: {', '.join(SWITCHES[field_name])}")

    def test_jsonl_backend_without_data_dir_fails_fast(self):
        with pytest.raises(ConfigurationError,
                           match="needs RuntimeConfig.data_dir"):
            RuntimeConfig(index_store="jsonl")
        with pytest.raises(ConfigurationError,
                           match="needs RuntimeConfig.data_dir"):
            RuntimeConfig(audit_sink="jsonl")

    def test_controller_collaborators_satisfy_the_protocols(self):
        # Each collaborator is its one class: no protocol stands between
        # the controller and what it built.
        controller, hospital, blood, doctor = build_world()
        assert type(controller.keystore) is KeyStore
        assert type(controller.index) is EventsIndex
        assert type(controller.audit_log) is AuditLog
        assert type(controller.bus) is ServiceBus
        assert type(controller.perf) is PerfLayer
        assert type(controller.detail_fetcher) is EndpointDetailFetcher
        assert type(controller.enforcer) is PolicyEnforcer
        assert type(hospital.gateway) is LocalCooperationGateway


class TestControllerWiring:
    """``DataController`` builds its three switches directly from its
    ``RuntimeConfig``, each exposed under its field's name."""

    def test_rows_cover_every_kind_and_name_real_config_fields(self):
        config_fields = {field.name for field in fields(RuntimeConfig)}
        assert set(SWITCHES) <= config_fields
        defaults = RuntimeConfig()
        for field_name, names in SWITCHES.items():
            assert getattr(defaults, field_name) in names, field_name
        controller = DataController(seed="rows")
        assert all(hasattr(controller, name) for name in COLLABORATORS.values())

    def test_a_later_factory_reads_an_earlier_service_under_its_kind(self):
        controller = DataController(seed="rows", runtime=RuntimeConfig(
            telemetry="inmemory", recorder="ring"))
        assert controller.recorder.guard is controller.telemetry.guard
        assert controller.telemetry.recorder is controller.recorder

    @pytest.mark.parametrize("arm", ["bare", "shared", "per-node"])
    @pytest.mark.parametrize(
        "telemetry, recorder, batch",
        list(product(*(SWITCHES[switch] for switch in COLLABORATORS))))
    def test_every_switch_combination_builds_its_collaborators(
            self, arm, telemetry, recorder, batch):
        runtime = RuntimeConfig(telemetry=telemetry, recorder=recorder,
                                batch=batch, batch_size=5)
        if arm == "bare":
            controllers = [DataController(seed="combo", runtime=runtime)]
        else:
            platform = FederatedPlatform(
                shards=2, runtime=runtime,
                per_node_telemetry=arm == "per-node")
            controllers = [node.controller for node in platform.nodes()]
        observed = arm == "per-node" or telemetry == "inmemory"
        for controller in controllers:
            assert isinstance(controller.telemetry, InMemoryTelemetry) == observed
            assert (controller.recorder is None) == (recorder == "noop")
            if recorder == "ring":
                assert isinstance(controller.recorder, FlightRecorder)
                if observed:
                    assert controller.recorder.guard is controller.telemetry.guard
            assert isinstance(controller.sched, BacklogBound)
            assert controller.batch_size == (5 if batch == "on" else None)


#: The names that stand for "off": each builds nothing.
OFF_NAMES = {("telemetry", "noop"), ("recorder", "noop"), ("batch", "off")}

#: Deployments the wiring rule must read the same facts under: a bare
#: controller, and every node of a one- and a two-node platform.
ARMS = {"bare": 0, "1-node": 1, "2-node": 2}


def controllers_of(arm: str, **config) -> list[DataController]:
    """The arm's controllers, each built from ``RuntimeConfig(**config)``."""
    runtime = RuntimeConfig(**config)
    if not ARMS[arm]:
        return [DataController(seed="rule", runtime=runtime)]
    platform = FederatedPlatform(shards=ARMS[arm], runtime=runtime)
    return [node.controller for node in platform.nodes()]


def storage_state(arm, tmp_path, durable, **config):
    """What the arm's storage came to: the refusal's text, or (local index
    class, audit class, audit rows on disk right after one append) — the
    same on every node."""
    if durable:
        config["data_dir"] = tmp_path / arm
    try:
        nodes = controllers_of(arm, **config)
    except ConfigurationError as refusal:
        return str(refusal)
    states = set()
    for controller in nodes:
        sharded = isinstance(controller.index, FederatedIndexStore)
        assert sharded == bool(ARMS[arm])
        local = controller.index.local if sharded else controller.index
        controller.record_audit("probe", AuditAction.JOIN, AuditOutcome.PERMIT)
        on_disk = len(controller.store.log("audit")) if durable else None
        states.add((type(local), type(controller.audit_log), on_disk))
    assert len(states) == 1
    return states.pop()


class TestOneWiringRule:
    """A name picks between real alternatives, a fact is read: a node is
    durable iff it has a data directory — whatever ``index_store`` /
    ``audit_sink`` spell, bare or under a platform."""

    @pytest.mark.parametrize(
        "index_store, audit_sink, durable, batch, batch_size",
        list(product(("memory", "jsonl", "federated"),
                     ("memory", "jsonl", "jsonll"),
                     (False, True), ("off", "on"), (0, 1, 4))))
    def test_every_spelling_ends_in_the_same_state_on_every_arm(
            self, tmp_path, index_store, audit_sink, durable, batch,
            batch_size):
        config = {"index_store": index_store, "audit_sink": audit_sink,
                  "batch": batch, "batch_size": batch_size}
        states = {arm: storage_state(arm, tmp_path, durable, **config)
                  for arm in ARMS}
        assert len(set(states.values())) == 1, states
        state = states["bare"]
        names = {index_store, audit_sink}
        if (names - {"memory", "jsonl"} or batch_size < 1
                or ("jsonl" in names and not durable)):
            assert isinstance(state, str)
        elif durable:
            committed = 1 if batch == "off" or batch_size == 1 else 0
            assert state == (JsonlIndexStore, JsonlAuditSink, committed)
        else:
            assert state == (EventsIndex, AuditLog, None)

    @pytest.mark.parametrize("arm", ARMS)
    def test_a_data_directory_alone_means_the_durable_pair(self, arm, tmp_path):
        # At the parent: audit in memory under a platform, both in memory
        # (directory ignored) on a bare controller.
        assert storage_state(arm, tmp_path, durable=True) == (
            JsonlIndexStore, JsonlAuditSink, 1)

    @pytest.mark.parametrize("arm", ARMS)
    def test_jsonl_without_a_directory_is_refused_in_one_wording(self, arm, tmp_path):
        # At the parent a platform fell back to memory without a word.
        refusals = {storage_state(arm, tmp_path, durable=False, **{name: "jsonl"})
                    for name in ("index_store", "audit_sink")}
        assert refusals == {"'jsonl' storage needs RuntimeConfig.data_dir"}

    def test_a_storage_typo_is_refused_with_a_suggestion(self):
        with pytest.raises(ConfigurationError) as refusal:
            RuntimeConfig(audit_sink="jsonll")
        assert str(refusal.value) == (
            "unknown audit_sink 'jsonll'; did you mean 'jsonl'? "
            "available: jsonl, memory")

    def test_a_data_directory_is_the_segmented_engine_and_store_selects_nothing(
            self, tmp_path):
        # At the parent ``store`` named the format and defaulted to flat
        # files, which no restart survived after a torn final line.
        for name in ("jsonl", "segmnted"):
            with pytest.raises(ConfigurationError) as refusal:
                RuntimeConfig(store=name, data_dir=tmp_path)
            assert str(refusal.value) == (
                "RuntimeConfig.store selects nothing: a data_dir is stored "
                "in the segmented engine")
        assert DataController().store is None
        assert isinstance(DataController(runtime=RuntimeConfig(
            data_dir=tmp_path)).store, StorageEngine)

    def test_perf_selects_nothing_the_indexed_hot_path_is_the_only_one(self):
        # ``perf="none"`` used to build no layer, every seam falling back
        # to a linear scan; the linear paths are test references now.
        with pytest.raises(ConfigurationError) as refusal:
            RuntimeConfig(perf="none")
        assert str(refusal.value) == (
            "RuntimeConfig.perf selects nothing: 'indexed' is the one hot path")
        assert RuntimeConfig(perf="indexed") == RuntimeConfig()
        assert isinstance(DataController().perf, PerfLayer)
        assert "perf" not in SWITCHES

    def test_sched_selects_nothing_the_backlog_bound_is_always_on(self):
        # ``sched="none"`` used to build a scheduler that never shed.
        with pytest.raises(ConfigurationError) as refusal:
            RuntimeConfig(sched="none")
        assert str(refusal.value) == (
            "RuntimeConfig.sched selects nothing: the backlog bound "
            "(repro.sched) is always on")
        assert RuntimeConfig(sched="fair") == RuntimeConfig()
        assert isinstance(DataController().sched, BacklogBound)
        assert "sched" not in SWITCHES

    def test_no_name_stands_for_a_fact(self):
        # ``federated`` / ``shared`` used to reach factories that died on
        # a bare ``KeyError: 'membership'`` / ``'shared_telemetry'``.
        with pytest.raises(ConfigurationError, match="unknown index_store"):
            RuntimeConfig(index_store="federated")
        with pytest.raises(ConfigurationError,
                           match="unknown telemetry 'shared'"):
            RuntimeConfig(telemetry="shared")

    @pytest.mark.parametrize("durable", [False, True])
    def test_every_registered_name_builds_or_is_refused_never_a_key_error(
            self, durable, tmp_path):
        for kind in COLLABORATORS:
            for name in SWITCHES[kind]:
                config = {kind: name}
                if durable:
                    config["data_dir"] = tmp_path / kind / name
                try:
                    controller = DataController(
                        seed="rule", runtime=RuntimeConfig(**config))
                except ConfigurationError:
                    continue  # refused in the platform's own words: fine
                # An off name builds nothing; every other name an object.
                assert (getattr(controller, COLLABORATORS[kind]) is None) == (
                    (kind, name) in OFF_NAMES), (kind, name)

    @pytest.mark.parametrize("batch", ["off", "on"])
    def test_batch_size_below_one_is_refused_whatever_batch_says(self, batch):
        # At the parent: accepted with "off", refused with "on", clamped
        # to 1 by the platform's own copy.
        for size in (0, -3):
            with pytest.raises(ConfigurationError, match="batch_size must be >= 1"):
                RuntimeConfig(batch=batch, batch_size=size)

    def test_the_platform_reads_each_nodes_one_batch_policy(self):
        platform = FederatedPlatform(
            shards=2, runtime=RuntimeConfig(batch="on", batch_size=7))
        assert {node.controller.batch_size for node in platform.nodes()} == {7}
        assert not {"_batching", "_batch_size"} & set(vars(platform))

    def test_a_node_is_observed_by_the_telemetry_it_is_handed(self):
        handed = InMemoryTelemetry(clock=None)
        controller = DataController(telemetry=handed)
        assert controller.telemetry is handed
        platform = FederatedPlatform(shards=2, telemetry=handed)
        assert all(node.controller.telemetry is handed
                   for node in platform.nodes())

    @pytest.mark.parametrize("store", ["segmented"])
    def test_a_restart_replays_to_the_live_heads(self, store, tmp_path):
        """The wall driver's ``recover_nodes``, on a platform given nothing
        but a directory: fails at the parent, which kept the audit chain
        of such a platform in memory (no audit log on disk)."""
        deployment = build_federation(runtime=RuntimeConfig(
            data_dir=tmp_path, store=store, batch="on"))
        platform = deployment.platform
        platform.subscribe("FamilyDoctors/Dr-Rossi", "BloodTest")
        for index in range(12):
            notification = deployment.publish_blood_test(subject_id=f"pat-{index}")
            platform.request_details(
                "FamilyDoctors/Dr-Rossi", "BloodTest", notification.event_id,
                "healthcare-treatment")
        platform.dispatch_all()
        platform.flush_batches()
        for node in platform.nodes():
            reopened = StorageEngine(tmp_path / node.node_id)
            audit = JsonlAuditSink(reopened.log("audit"))
            audit.verify_integrity()
            index = JsonlIndexStore(
                reopened.log("index"), KeyStore("css-platform-secret"))
            live = node.controller
            assert len(audit) == len(live.audit_log) > 0
            assert audit.head_digest == live.audit_log.head_digest
            assert index.sequence == live.index.local.sequence
        assert sum(len(node.controller.index) for node in platform.nodes()) == 12


def observed_state(arm, name, hand, per_node, guard):
    """Build the arm the way the row says and name the state it ended in:
    ``off`` (``None`` everywhere), ``shared`` (one backend everywhere, the
    handed object when one was handed) or ``per-node`` (one backend per
    node, one guard between them) — with the backends' guard mode."""
    clock = Clock()
    runtime = RuntimeConfig(telemetry=name, telemetry_guard=guard)
    handed = InMemoryTelemetry(clock=clock, guard_mode=guard) if hand else None
    if not ARMS[arm]:
        owner = DataController(clock=clock, runtime=runtime, telemetry=handed)
        controllers = [owner]
    else:
        owner = FederatedPlatform(
            shards=ARMS[arm], clock=clock, runtime=runtime, telemetry=handed,
            per_node_telemetry=per_node)
        controllers = [node.controller for node in owner.nodes()]
        assert [node.telemetry for node in owner.nodes()] == [
            controller.telemetry for controller in controllers]
    backends = [controller.telemetry for controller in controllers]
    if per_node and ARMS[arm]:
        assert len({id(backend) for backend in backends}) == len(backends)
        assert len({id(backend.guard) for backend in backends}) == 1
        assert owner.telemetry is handed
        return "per-node", backends[0].guard.mode
    assert owner.telemetry is backends[0]
    assert all(backend is backends[0] for backend in backends)
    if backends[0] is None:
        return "off", None
    assert not hand or backends[0] is handed
    return "shared", backends[0].guard.mode


def observer_script(runtime):
    """One seeded publish / subscribe / permitted-request / denied-request
    script on the standard 2-node federation: (decisions, per-node audit
    heads)."""
    deployment = build_federation(runtime=runtime)
    platform = deployment.platform
    platform.subscribe("FamilyDoctors/Dr-Rossi", "BloodTest")
    decisions = []
    for index in range(6):
        notification = deployment.publish_blood_test(subject_id=f"pat-{index}")
        for purpose in ("healthcare-treatment", "reimbursement"):
            try:
                detail = platform.request_details(
                    "FamilyDoctors/Dr-Rossi", "BloodTest",
                    notification.event_id, purpose)
                decisions.append(("permit", sorted(detail.exposed_values())))
            except AccessDeniedError:
                decisions.append(("deny", purpose))
    platform.dispatch_all()
    platform.flush_batches()
    heads = {node.node_id: (len(node.controller.audit_log),
                            node.controller.audit_log.head_digest)
             for node in platform.nodes()}
    return decisions, heads


class TestOneObserverRule:
    """Off is ``None``, a reader is built by whoever reads, and a platform
    is observed by what its runtime names — the same on a bare controller
    and on every node of a platform."""

    @pytest.mark.parametrize(
        "name, hand, per_node, guard",
        list(product(("noop", "inmemory"), (False, True), (False, True),
                     ("hash", "reject"))))
    def test_every_row_ends_in_one_of_three_states_on_every_arm(
            self, name, hand, per_node, guard):
        states = {arm: observed_state(arm, name, hand, per_node, guard)
                  for arm in ARMS}
        # ``per_node_telemetry`` is a platform's word: a bare controller is
        # its own one node and stays shared / off.
        assert states["1-node"] == states["2-node"], states
        if per_node:
            assert states["2-node"] == ("per-node", guard)
        if hand or name == "inmemory":
            assert states["bare"] == ("shared", guard)
        else:
            assert states["bare"] == ("off", None)
        if not per_node:
            assert states["2-node"] == states["bare"], states

    @pytest.mark.parametrize("kind, name", sorted(OFF_NAMES))
    def test_an_off_name_builds_nothing(self, kind, name):
        controller = DataController(runtime=RuntimeConfig(**{kind: name}))
        assert getattr(controller, COLLABORATORS[kind]) is None

    @pytest.mark.parametrize("arm", ARMS)
    def test_a_runtime_that_names_a_backend_records_on_every_node(self, arm):
        # (1) At the parent a platform handed no object substituted a noop
        # for what its runtime named; only the bare controller recorded.
        runtime = RuntimeConfig(telemetry="inmemory")
        if not ARMS[arm]:
            controller, hospital, blood, _ = build_world(runtime)
            publish(hospital, blood)
            telemetries = [controller.telemetry]
        else:
            deployment = build_federation(shards=ARMS[arm], runtime=runtime)
            deployment.publish_blood_test()
            telemetries = [node.controller.telemetry
                           for node in deployment.platform.nodes()]
        for telemetry in telemetries:
            assert any(span.name == "pipeline.publish"
                       for span in telemetry.tracer.finished_spans())

    def test_the_platforms_own_backend_is_what_an_slo_engine_reads(self):
        # (2) At the parent: ConfigurationError telling the caller to set
        # the ``telemetry='inmemory'`` they had set.
        deployment = build_federation(runtime=RuntimeConfig(telemetry="inmemory"))
        deployment.publish_blood_test()
        report = SLOEngine(deployment.platform.telemetry).evaluate()
        assert report.statuses and not report.breaches()

    @pytest.mark.parametrize("guard", ["hash", "reject"])
    def test_per_node_backends_are_guarded_as_the_runtime_says(self, guard):
        # (3) At the parent every node's guard was ``hash`` whatever the
        # runtime said: the privacy setting failed open.
        platform = FederatedPlatform(
            shards=2, per_node_telemetry=True,
            runtime=RuntimeConfig(telemetry="inmemory", telemetry_guard=guard))
        for node in platform.nodes():
            assert node.telemetry.guard.mode == guard
            if guard == "reject":
                with pytest.raises(TelemetryPrivacyError):
                    node.telemetry.count("probe", subject_id="ap-00000001")

    def test_a_shared_backend_has_the_one_profiler_its_caller_attached(self):
        # (4) Once ``profiling="sampling"`` built one profiler per node and
        # left the last node's attached, beside the first node's recorder.
        # The one profiler now is the wall ledger's traced run: a shared
        # backend carries none, and still keeps the first node's recorder
        # when a node joins.
        with pytest.raises(ConfigurationError, match="RuntimeConfig.profiling selects nothing"):
            RuntimeConfig(telemetry="inmemory", profiling="sampling")
        deployment = build_federation(shards=4, runtime=RuntimeConfig(
            telemetry="inmemory", recorder="ring"))
        platform = deployment.platform
        telemetry = platform.telemetry
        platform.add_node()
        deployment.publish_blood_test()
        assert not hasattr(telemetry, "profiler")
        assert telemetry.recorder is platform.controller_of("node-0").recorder
        assert len({id(node.controller.recorder) for node in platform.nodes()}) == 5
        assert not any(hasattr(node.controller, name)
                       for node in platform.nodes() for name in ("profiler", "slo"))

    def test_all_off_and_all_on_decide_and_audit_alike(
            self, tmp_path, linear_reference):
        with linear_reference():
            off = observer_script(RuntimeConfig(
                telemetry="noop", recorder="noop", batch="off"))
        on = observer_script(RuntimeConfig(
            telemetry="inmemory", recorder="ring", batch="on",
            data_dir=tmp_path))
        assert off == on
        decisions, heads = off
        assert [outcome for outcome, _ in decisions] == ["permit", "deny"] * 6
        assert all(count > 0 for count, _ in heads.values())

    def test_no_null_object_and_no_enabled_probe_in_the_source(self):
        import ast
        from pathlib import Path

        import repro

        offenders = []
        for path in sorted(Path(repro.__file__).parent.rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.ClassDef) and node.name.startswith("Noop"):
                    offenders.append(f"{path.name}: class {node.name}")
                if isinstance(node, ast.Attribute) and node.attr == "enabled":
                    offenders.append(f"{path.name}:{node.lineno}: .enabled")
        assert offenders == []


def on_disk(directory):
    """Every byte of the segment files under ``directory``, oldest first."""
    return b"".join(path.read_bytes()
                    for path in sorted(directory.glob("*.seg")))


class TestJsonlBackends:
    def test_full_flow_on_jsonl_backends(self, tmp_path):
        runtime = RuntimeConfig(data_dir=tmp_path)
        controller, hospital, blood, doctor = build_world(runtime)
        doctor.subscribe("BloodTest")
        notification = publish(hospital, blood)
        detail = doctor.request_details(notification, "healthcare-treatment")
        assert detail.exposed_values()
        assert on_disk(tmp_path / "index")
        assert on_disk(tmp_path / "audit")
        assert isinstance(controller.store, StorageEngine)
        assert isinstance(controller.index, JsonlIndexStore)
        assert isinstance(controller.audit_log, JsonlAuditSink)

    def test_identity_slots_are_sealed_on_disk(self, tmp_path):
        runtime = RuntimeConfig(data_dir=tmp_path)
        controller, hospital, blood, doctor = build_world(runtime)
        publish(hospital, blood, "secret-patient")
        rows = list(SegmentedLog(tmp_path / "index").iter_records())
        assert len(rows) == 1
        raw = on_disk(tmp_path / "index")
        assert b"secret-patient" not in raw
        assert b"Mario Bianchi" not in raw

    def test_index_replay_restores_notifications_and_nonce_sequence(self, tmp_path):
        runtime = RuntimeConfig(data_dir=tmp_path)
        controller, hospital, blood, doctor = build_world(runtime)
        first = publish(hospital, blood, "p1")
        publish(hospital, blood, "p2")
        old_sequence = controller.index.sequence

        reloaded = JsonlIndexStore(SegmentedLog(tmp_path / "index"),
                                   KeyStore("css-platform-secret"))
        assert len(reloaded) == 2
        assert reloaded.sequence == old_sequence  # the row count, live and replayed
        replayed = reloaded.get(first.event_id)
        assert replayed.subject_ref == "p1"
        assert replayed.subject_display == "Mario Bianchi"

    def test_audit_replay_verifies_the_hash_chain(self, tmp_path):
        runtime = RuntimeConfig(data_dir=tmp_path)
        controller, hospital, blood, doctor = build_world(runtime)
        publish(hospital, blood)
        head = controller.audit_log.head_digest
        stored = on_disk(tmp_path / "audit")

        reloaded = JsonlAuditSink(SegmentedLog(tmp_path / "audit"))
        reloaded.verify_integrity()
        assert len(reloaded) == len(controller.audit_log)
        assert reloaded.head_digest == head
        # Replay chains the stored rows; it does not write them again.
        assert on_disk(tmp_path / "audit") == stored
        rows = list(SegmentedLog(tmp_path / "audit").iter_records())
        assert rows == [
            {**record.to_payload(), "digest": reloaded._chain.digest_at(index)}
            for index, record in enumerate(reloaded.records())]

    def test_tampered_audit_file_is_rejected_on_replay(self, tmp_path):
        runtime = RuntimeConfig(data_dir=tmp_path)
        controller, hospital, blood, doctor = build_world(runtime)
        publish(hospital, blood)
        # Rewrite the first row under a *valid* frame checksum: the segment
        # log accepts the frame, the hash chain does not.
        (segment,) = sorted((tmp_path / "audit").glob("*.seg"))
        frames = segment.read_bytes().splitlines(keepends=True)
        doctored = list(SegmentedLog(tmp_path / "audit").iter_records())[0]
        doctored["actor"] = "someone-else"
        frames[0] = encode_frame(1, encode_entry(doctored))
        segment.write_bytes(b"".join(frames))
        with pytest.raises(TamperedLogError):
            JsonlAuditSink(SegmentedLog(tmp_path / "audit"))


class TestAuditChainCommitsAfterTheStore:
    """A durable node whose disk fails once, at any mutating filesystem
    call of a run of 4 publishes, 4 requests for details and 2
    withdrawals: the chain advances only once the store has accepted the
    link, and the index changes only once its row or tombstone is kept,
    so the live trail still verifies, the directory reopens to the same
    head and the same index, and no record is stored twice."""

    @staticmethod
    def run_script(controller, hospital, blood, doctor) -> None:
        for number in range(4):
            try:
                notification = publish(hospital, blood, f"p{number}")
            except OSError:
                continue
            try:
                doctor.request_details(notification, "healthcare-treatment")
            except OSError:
                pass
            if number % 2 and notification.event_id in controller.index:
                try:
                    controller.index.withdraw(notification.event_id)
                except OSError:
                    pass

    @pytest.mark.parametrize("batch", ["off", "on"])
    def test_one_enospc_at_any_call_leaves_a_trail_that_verifies_and_reopens(
            self, batch, tmp_path, monkeypatch):
        def runtime(directory):
            return RuntimeConfig(data_dir=directory, batch=batch, batch_size=3)

        controller, hospital, blood, doctor = build_world(runtime(tmp_path / "ref"))
        with monkeypatch.context() as patch:
            faults = DiskFaults(patch, tmp_path / "ref")
            self.run_script(controller, hospital, blood, doctor)
        assert faults.calls > 8
        broken = {}
        for k in range(1, faults.calls + 1):
            directory = tmp_path / f"enospc-{k}"
            try:
                controller, hospital, blood, doctor = build_world(runtime(directory))
                with monkeypatch.context() as patch:
                    DiskFaults(patch, directory, fail_at=k)
                    self.run_script(controller, hospital, blood, doctor)
                live = controller.audit_log
                live.verify_integrity()
                controller.flush_storage()
                reopened = DataController(seed="kern", runtime=runtime(directory))
                assert reopened.audit_log.head_digest == live.head_digest
                assert reopened.index.dump() == controller.index.dump()
                ids = [record.record_id for record in reopened.audit_log.records()]
                assert len(ids) == len(set(ids))
            except Exception as failure:  # reported per point, below
                broken[k] = repr(failure)
        assert not broken, f"{len(broken)} of {faults.calls} fault points: {broken}"
