"""Unit tests for the audit substrate (log, query, reports)."""

import pytest

from repro.audit.log import AuditAction, AuditLog, AuditOutcome, AuditRecord
from repro.audit.query import AuditQuery
from repro.audit.reports import data_subject_report, denial_report, guarantor_report
from repro.exceptions import AuditError, TamperedLogError


def record(
    record_id: str,
    actor: str = "doctor",
    action: AuditAction = AuditAction.DETAIL_REQUEST,
    outcome: AuditOutcome = AuditOutcome.PERMIT,
    timestamp: float = 0.0,
    **kwargs,
) -> AuditRecord:
    return AuditRecord(
        record_id=record_id,
        timestamp=timestamp,
        actor=actor,
        action=action,
        outcome=outcome,
        **kwargs,
    )


@pytest.fixture()
def log() -> AuditLog:
    audit = AuditLog()
    audit.append(record("r1", actor="doctor", timestamp=10.0,
                        event_id="e1", event_type="BloodTest",
                        subject_ref="pat-1", purpose="healthcare-treatment"))
    audit.append(record("r2", actor="statistician", timestamp=20.0,
                        event_id="e1", event_type="BloodTest",
                        subject_ref="pat-1", purpose="statistical-analysis",
                        outcome=AuditOutcome.DENY))
    audit.append(record("r3", actor="doctor", timestamp=30.0,
                        action=AuditAction.INDEX_INQUIRY,
                        event_type="HomeCare", subject_ref="pat-2"))
    return audit


class TestAuditLog:
    def test_append_and_len(self, log):
        assert len(log) == 3

    def test_records_snapshot_ordered(self, log):
        assert [r.record_id for r in log.records()] == ["r1", "r2", "r3"]

    def test_record_at(self, log):
        assert log.record_at(1).record_id == "r2"
        with pytest.raises(AuditError):
            log.record_at(99)

    def test_head_digest_changes_per_append(self):
        audit = AuditLog()
        empty_head = audit.head_digest
        audit.append(record("r1"))
        assert audit.head_digest != empty_head

    def test_verify_integrity_passes(self, log):
        log.verify_integrity()

    def test_tampering_detected(self, log):
        # Simulate an attacker rewriting a stored record in place.
        log._records[1] = record("r2", actor="statistician", timestamp=20.0,
                                 outcome=AuditOutcome.PERMIT)  # flipped outcome
        with pytest.raises(TamperedLogError):
            log.verify_integrity()


class TestAuditQuery:
    def test_by_actor(self, log):
        assert AuditQuery().by_actor("doctor").count(log) == 2

    def test_by_action(self, log):
        assert AuditQuery().by_action(AuditAction.INDEX_INQUIRY).count(log) == 1

    def test_by_outcome(self, log):
        assert AuditQuery().by_outcome(AuditOutcome.DENY).count(log) == 1

    def test_about_event_type(self, log):
        assert AuditQuery().about_event_type("HomeCare").count(log) == 1

    def test_about_subject(self, log):
        assert AuditQuery().about_subject("pat-1").count(log) == 2

    def test_time_window(self, log):
        assert AuditQuery().between(15.0, 25.0).count(log) == 1
        assert AuditQuery().between(since=15.0).count(log) == 2
        assert AuditQuery().between(until=15.0).count(log) == 1

    def test_conjunction(self, log):
        matches = (AuditQuery().by_actor("doctor")
                   .about_subject("pat-1").run(log))
        assert [r.record_id for r in matches] == ["r1"]

    def test_empty_query_matches_everything(self, log):
        assert AuditQuery().count(log) == 3


class TestReports:
    def test_guarantor_report_scopes_by_class(self, log):
        report = guarantor_report(log, event_type="BloodTest")
        assert report.total == 2
        assert report.chain_verified
        assert report.by_outcome["deny"] == 1

    def test_guarantor_report_all_classes(self, log):
        assert guarantor_report(log).total == 3

    def test_guarantor_report_time_window(self, log):
        assert guarantor_report(log, since=25.0).total == 1

    def test_data_subject_report(self, log):
        report = data_subject_report(log, "pat-1")
        assert report.total == 2
        assert report.by_actor["doctor"] == 1
        assert report.by_actor["statistician"] == 1

    def test_denial_report(self, log):
        report = denial_report(log)
        assert report.total == 1
        assert report.records[0].record_id == "r2"

    def test_report_renders_text(self, log):
        text = guarantor_report(log).to_text()
        assert "Guarantor access report" in text
        assert "doctor" in text

    def test_report_fails_on_tampered_log(self, log):
        log._records[0] = record("r1", actor="evil")
        with pytest.raises(TamperedLogError):
            guarantor_report(log)
