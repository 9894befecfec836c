"""A tour of the Privacy Requirements Elicitation Tool (Figs. 6-8).

Walks the Fig. 7 wizard step by step, shows the warnings it raises, prints
the generated XACML document (the Fig. 8 artifact), proves the round-trip
through the XACML parser is lossless, carves a restriction out of a
hospital-wide grant (deny-overrides), and renders the Fig. 6 dashboard.

Run with::

    python examples/policy_elicitation_tour.py
"""

from repro import AccessDeniedError, DataConsumer, DataController, DataProducer
from repro.clock import YEAR
from repro.sim.generators import standard_event_templates
from repro.xacml.serialize import parse_policy


def main() -> None:
    controller = DataController(seed="elicitation")
    coop = DataProducer(controller, "HomeAssist-Coop", "HomeAssist Cooperative")
    home_care = coop.declare_event_class(
        standard_event_templates()["HomeCareServiceEvent"].build_schema(),
        category="social")
    DataConsumer(controller, "FamilyDoctors/Dr-Rossi", "Dr. Rossi",
                 role="family-doctor")
    cardiology = DataConsumer(controller, "Hospital/Cardiology", "Cardiology")
    psychiatry = DataConsumer(controller, "Hospital/Psychiatry", "Psychiatry")

    wizard = controller.elicitation_wizard()

    print("step 0 — pick the event class to protect:")
    wizard.start("HomeAssist-Coop", "HomeCareServiceEvent")
    print(f"  fields on offer: {', '.join(wizard.available_fields())}\n")

    print("step 1 — select the releasable fields (Fig. 8 releases three):")
    wizard.select_fields(["PatientId", "Name", "Surname"])

    print("step 2 — select the consumers (here: the family-doctor role):")
    wizard.select_consumers([("family-doctor", "role")])

    print("step 3 — select the admissible purposes:")
    wizard.select_purposes(["healthcare-treatment"])

    print("step 4 — label the rule and bound it in time (private companies")
    print("         should access events only for their contract, §6):")
    wizard.set_label("home care for family doctors",
                     "identification fields only, per Fig. 8")
    wizard.set_validity(valid_until=1 * YEAR)

    warnings = wizard.preview_warnings()
    print(f"\nwizard warnings before save: {warnings or '(none)'}")

    result = wizard.save()
    policy = result.policies[0]
    print(f"\nsaved policy {policy.policy_id} after {result.decisions} decisions")
    print(f"  subject : {policy.actor_selector}")
    print(f"  resource: {policy.event_type}")
    print(f"  purposes: {sorted(policy.purposes)}")
    print(f"  fields  : {sorted(policy.fields)}")

    print("\nthe generated XACML document (the Fig. 8 artifact):")
    print("-" * 68)
    xacml_text = result.xacml_documents[0]
    print(xacml_text)
    print("-" * 68)

    reparsed = parse_policy(xacml_text)
    assert reparsed == policy.to_xacml()
    print("round-trip through the XACML parser: lossless ✓")

    elements = xacml_text.count("<")
    print(f"\nauthoring-effort comparison (the Fig. 7 claim):")
    print(f"  wizard decisions      : {result.decisions}")
    print(f"  XACML elements emitted: {elements} (hand-writing this is the "
          f"'translation step' the paper eliminates)")

    print("\ndeny-overrides: grant the whole hospital, restrict one unit:")
    coop.define_policy(
        "HomeCareServiceEvent", fields=["PatientId", "ServiceType"],
        consumers=[("Hospital", "unit")], purposes=["healthcare-treatment"],
        label="hospital-wide grant")
    restriction = coop.define_restriction(
        "HomeCareServiceEvent", consumer=("Hospital/Psychiatry", "unit"),
        purposes=["healthcare-treatment"],
        label="psychiatry excluded from home-care events")
    print(f"  restriction {restriction.policy_id} on {restriction.actor_selector}")

    print("\nthe producer's Fig. 6 dashboard:")
    dashboard = controller.dashboard.render("HomeAssist-Coop")
    print(dashboard)
    assert f"[{restriction.policy_id}] unit:Hospital/Psychiatry" in dashboard
    assert "RESTRICTION (deny)" in dashboard

    notification = coop.publish(
        home_care, subject_id="pat-7", subject_name="Anna Conti",
        summary="home care service delivered to Anna Conti",
        details={"PatientId": "pat-7", "Name": "Anna", "Surname": "Conti",
                 "ServiceType": "nursing", "OperatorId": "op-012",
                 "DurationMinutes": 45, "CostEuro": 38.5})
    served = cardiology.request_details_by_id(
        "HomeCareServiceEvent", notification.event_id, "healthcare-treatment")
    print(f"\ncardiology is served: {served.exposed_values()}")
    assert served.exposed_values() == {"PatientId": "pat-7", "ServiceType": "nursing"}
    try:
        psychiatry.request_details_by_id(
            "HomeCareServiceEvent", notification.event_id, "healthcare-treatment")
    except AccessDeniedError as exc:
        print(f"psychiatry is denied: {exc}")
    else:
        raise AssertionError("the restriction did not deny psychiatry")

    print("\ntesting the rule before going live (§1's testability challenge):")
    tester = controller.policy_tester()
    probes = tester.probe_matrix(
        "HomeAssist-Coop", "HomeCareServiceEvent",
        actors=[("family-doctor", "role"), ("social-worker", "role"),
                ("Province/Statistics", "unit")],
        purposes=["healthcare-treatment", "statistical-analysis"],
    )
    print(tester.render_matrix(probes))
    assert tester.assert_never_released(
        "HomeAssist-Coop", "HomeCareServiceEvent", "CareNotes") == []
    print("regression check: CareNotes is never released ✓")


if __name__ == "__main__":
    main()
