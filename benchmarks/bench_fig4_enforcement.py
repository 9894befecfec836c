"""Experiment F4 (paper Fig. 4): detail-request resolution inside the
policy enforcer.

Fig. 4 traces a request through PEP → PIP (id mapping) → PDP (matching +
evaluation) → producer obligation; here the decision is Def. 3 over the
requester's policy buckets.  We measure:

* permit-path latency as the candidate-policy population grows (grants
  to other actors sit in other buckets: ~constant in candidates);
* deny-path latency (deny-by-default exits before the gateway hop, so it
  is cheaper than a permit);
* the effect of the released-field count on the gateway's filtering step.
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import build_micro_platform
from repro import AccessDeniedError


@pytest.mark.parametrize("n_policies", [1, 10, 100, 500])
def test_permit_path_scaling_in_policies(benchmark, n_policies):
    """Permit latency with ``n_policies`` candidates for the event class."""
    platform = build_micro_platform(n_policies=n_policies)

    detail = benchmark(
        platform.consumer.request_details,
        platform.notification, "healthcare-treatment",
    )
    assert detail.exposed_values()


def test_deny_path_is_short_circuit(benchmark):
    """A deny-by-default request never reaches the gateway."""
    platform = build_micro_platform(n_policies=10)
    gateway_calls_before = platform.controller.endpoints.get(
        "gateway.Hospital.getResponse"
    ).stats.calls

    def denied_request():
        try:
            platform.consumer.request_details(platform.notification, "administration")
        except AccessDeniedError:
            return True
        return False

    was_denied = benchmark(denied_request)
    assert was_denied
    gateway_calls_after = platform.controller.endpoints.get(
        "gateway.Hospital.getResponse"
    ).stats.calls
    assert gateway_calls_after == gateway_calls_before  # gateway untouched


@pytest.mark.parametrize("n_fields", [1, 4, 7])
def test_field_filtering_cost(benchmark, n_fields):
    """Gateway projection cost versus the number of released fields."""
    all_fields = ["PatientId", "Name", "Surname", "Hemoglobin", "Glucose",
                  "Cholesterol", "HivResult"]
    platform = build_micro_platform(granted_fields=all_fields[:n_fields])

    detail = benchmark(
        platform.consumer.request_details,
        platform.notification, "healthcare-treatment",
    )
    assert len(detail.exposed_values()) == n_fields


def test_pip_id_mapping_resolution(benchmark):
    """Step 1 of Algorithm 1: global eID → (producer, src_eID)."""
    platform = build_micro_platform()
    id_map = platform.controller.id_map
    event_id = platform.notification.event_id

    entry = benchmark(id_map.resolve, event_id)
    assert entry.producer_id == "Hospital"


def test_pdp_statistics_accumulate(benchmark):
    """Sanity: the PDP counters that feed EXPERIMENTS.md keep moving."""
    platform = build_micro_platform(n_policies=20)

    def request():
        return platform.consumer.request_details(
            platform.notification, "healthcare-treatment"
        )

    benchmark(request)
    stats = platform.controller.enforcer.pdp_stats
    assert stats.requests > 0
    # The consumer's own bucket holds its grant; the 19 others are never walked.
    assert stats.policies_evaluated == stats.requests
