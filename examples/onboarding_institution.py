"""Progressive onboarding: a new institution joins the running ecosystem.

"Institutions progressively join the integrated CSS process monitoring
ecosystem, so that an additional challenge lies in how to facilitate the
addition of new institutions" (§1).  This example shows the full joining
protocol: contract, catalog browsing, the pending-access-request handshake,
policy definition via the producer's wizard, and the first notification —
all without touching any existing party.

Run with::

    python examples/onboarding_institution.py
"""

from repro import AccessDeniedError, DataConsumer, DataController, DataProducer
from repro.sim.generators import standard_event_templates


def main() -> None:
    controller = DataController(seed="onboarding")
    templates = standard_event_templates()

    # The established ecosystem: a municipality producing autonomy
    # assessments, consumed by its social workers.
    municipality = DataProducer(controller, "Municipality-Trento/SocialServices",
                                "Social Services of Trento")
    autonomy = municipality.declare_event_class(
        templates["AutonomyAssessment"].build_schema(), category="social")
    social = DataConsumer(controller, "Municipality-Trento/SocialWorkers",
                          "Social workers", role="social-worker")
    municipality.define_policy(
        "AutonomyAssessment",
        fields=["PatientId", "Name", "Surname", "AutonomyScore",
                "CognitiveScore", "AssessorNotes"],
        consumers=[("Municipality-Trento/SocialWorkers", "unit")],
        purposes=["healthcare-treatment"],
    )
    social.subscribe("AutonomyAssessment")
    print("established ecosystem is running\n")

    # --- a new institution arrives: the provincial statistics office -----
    statistics = DataConsumer(controller, "Province-Trentino/Statistics",
                              "Provincial statistics office", role="statistician")
    print("1. the statistics office signs its contract and browses the catalog:")
    print("-" * 68)
    print(statistics.browse_catalog())
    print("-" * 68)
    print("   the XSD installed in the catalog for one class (§3.1):")
    xsd = controller.catalog.get("AutonomyAssessment").schema.to_xsd_text()
    print(xsd)
    assert xsd.count('css:sensitive="true"') == len(autonomy.schema.sensitive_fields)
    print("-" * 68)

    print("\n2. it tries to subscribe — deny-by-default kicks in:")
    try:
        statistics.subscribe("AutonomyAssessment")
    except AccessDeniedError as exc:
        print(f"   {exc}")

    print("\n3. the producer finds the pending access request:")
    pending = municipality.pending_access_requests()
    for request in pending:
        print(f"   {request.consumer_id} wants {request.event_type}")

    print("\n4. the producer answers it with the elicitation wizard")
    print("   (the paper's §5.1 example: age, sex and autonomy score,")
    print("    for statistical analysis only):")
    result = municipality.grant_pending_request(
        pending[0],
        fields=["Age", "Sex", "AutonomyScore"],
        purposes=["statistical-analysis"],
        label="elderly-needs statistics",
    )
    print(f"   -> policy {result.policies[0].policy_id} "
          f"({result.decisions} wizard decisions)")

    print("\n5. the subscription now succeeds and events start flowing:")
    statistics.subscribe("AutonomyAssessment")
    municipality.publish(
        autonomy, subject_id="pat-9", subject_name="Franco Romano",
        summary="autonomy assessment performed for Franco Romano",
        details={"PatientId": "pat-9", "Name": "Franco", "Surname": "Romano",
                 "Age": 81, "Sex": "M", "AutonomyScore": 35,
                 "CognitiveScore": 60, "AssessorNotes": "needs daily assistance"},
    )
    note = statistics.inbox[0]
    detail = statistics.request_details(note, "statistical-analysis")
    print(f"   statistics sees exactly: {detail.exposed_values()}")

    print("\n6. the producer's dashboard (Fig. 6) reflects the new rule:")
    print(controller.dashboard.render("Municipality-Trento/SocialServices"))


if __name__ == "__main__":
    main()
