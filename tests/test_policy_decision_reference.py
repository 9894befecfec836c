"""Def. 3 (``PolicyRepository.decide``) against its XACML reference.

The platform decides a request for details by Def. 3 over the actor's
bucket candidates; ``tests/xacml_reference.py`` compiles the producer's
whole policy set to XACML and runs the PEP and PDP over it.  Drawn policy
sets — grants and restrictions, unit hierarchies and roles, purposes,
revocations and validity windows — and drawn requests must get the same
verdict, the same released fields and the same deny message from both.

Times are drawn on the microsecond grid, which the XACML rendering of a
time (``020.6f``) resolves exactly.  Off the grid the two can part: the
straddle below is decided by Def. 3's float comparison (the simulator's
and the enforcer's) and by the reference's six-decimal strings
differently — docs/PROTOCOL.md §5 ("Time, to the microsecond") records it.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.policy import DetailRequestSpec, PolicyRepository, PrivacyPolicy
from tests.xacml_reference import reference_response, released_fields

PRODUCERS = ("Hospital", "Lab")
EVENT_TYPES = ("BloodTest", "Discharge")
UNITS = ("Asl", "Asl/Cardio", "Asl/Cardio/Ward-1", "Asl/Psych", "Clinic",
         "Clinic/Lab", "Aslx")
ROLES = ("family-doctor", "nurse", "statistician")
PURPOSES = ("healthcare-treatment", "statistical-analysis", "administration")
FIELDS = ("PatientId", "Name", "Hemoglobin", "HivResult")

#: Microseconds up to 2,000 s: every draw renders exactly in ``020.6f``.
MICROS = st.integers(min_value=0, max_value=2_000_000_000).map(lambda us: us / 1e6)


@st.composite
def policies(draw, index: int) -> PrivacyPolicy:
    deny = draw(st.booleans())
    by_role = draw(st.booleans())
    window = sorted(draw(st.lists(MICROS, min_size=2, max_size=2)))
    valid_from = window[0] if draw(st.booleans()) else None
    valid_until = window[1] if draw(st.booleans()) else None
    return PrivacyPolicy(
        policy_id=f"p-{index}",
        producer_id=draw(st.sampled_from(PRODUCERS)),
        event_type=draw(st.sampled_from(EVENT_TYPES)),
        fields=frozenset() if deny else frozenset(
            draw(st.sets(st.sampled_from(FIELDS), min_size=1))),
        purposes=frozenset(draw(st.sets(st.sampled_from(PURPOSES), min_size=1))),
        actor_id="" if by_role else draw(st.sampled_from(UNITS)),
        actor_role=draw(st.sampled_from(ROLES)) if by_role else "",
        valid_from=valid_from, valid_until=valid_until, deny=deny,
    )


@st.composite
def repositories(draw) -> PolicyRepository:
    repository = PolicyRepository()
    count = draw(st.integers(min_value=0, max_value=8))
    for index in range(count):
        repository.add(draw(policies(index)))
    for index in draw(st.sets(st.integers(min_value=0, max_value=max(count - 1, 0)))):
        if index < count:
            repository.revoke(f"p-{index}")
    return repository


REQUESTS = st.builds(
    DetailRequestSpec,
    actor_id=st.sampled_from((*UNITS, "Asl/Cardio/Ward-1/Bed-3", "Stranger")),
    event_type=st.sampled_from(EVENT_TYPES),
    purpose=st.sampled_from(PURPOSES),
    actor_role=st.sampled_from(("", *ROLES)),
    requested_at=MICROS,
)


def product(repository: PolicyRepository, producer_id: str, request) -> tuple:
    decision = repository.decide(producer_id, request)
    return decision.permitted, decision.released_fields, decision.message


def reference(repository: PolicyRepository, producer_id: str, request) -> tuple:
    response = reference_response(repository, producer_id, request)
    fields = released_fields(response) if response.permitted else frozenset()
    return response.permitted, fields, response.status_message


class TestDecideIsTheXacmlReference:
    @settings(max_examples=200, deadline=None)
    @given(repositories(), st.sampled_from(PRODUCERS), st.lists(REQUESTS, min_size=1,
                                                                max_size=6))
    def test_verdict_fields_and_message_agree(self, repository, producer_id, requests):
        for request in requests:
            assert product(repository, producer_id, request) == reference(
                repository, producer_id, request), request

    @settings(max_examples=100, deadline=None)
    @given(repositories(), st.sampled_from(PRODUCERS), REQUESTS)
    def test_a_window_edge_decides_alike(self, repository, producer_id, request):
        """At each window bound of the drawn policies, and a microsecond
        either side, the two still agree."""
        edges = {bound for policy in repository.candidates(producer_id, request.event_type)
                 for bound in (policy.valid_from, policy.valid_until) if bound is not None}
        for edge in edges:
            for at in (edge - 1e-6, edge, edge + 1e-6):
                if at < 0:
                    continue
                probe = DetailRequestSpec(request.actor_id, request.event_type,
                                          request.purpose, request.actor_role,
                                          round(at, 6))
                assert product(repository, producer_id, probe) == reference(
                    repository, producer_id, probe), probe

    def test_a_sub_microsecond_straddle_is_decided_by_the_float(self):
        """A grant valid until 100.0000001 asked at 100.0000004: the float
        comparison has the window closed, the six-decimal rendering reads
        both instants as ``100.000000`` and has it open."""
        repository = PolicyRepository()
        repository.add(PrivacyPolicy(
            policy_id="p-0", producer_id="Hospital", event_type="BloodTest",
            fields=frozenset({"PatientId"}),
            purposes=frozenset({"healthcare-treatment"}), actor_id="Asl",
            valid_until=100.0000001,
        ))
        request = DetailRequestSpec("Asl", "BloodTest", "healthcare-treatment",
                                    requested_at=100.0000004)
        assert product(repository, "Hospital", request) == (
            False, frozenset(), "no matching policy (deny-by-default)")
        assert reference(repository, "Hospital", request) == (
            True, frozenset({"PatientId"}), "")
