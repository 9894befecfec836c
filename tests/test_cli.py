"""Tests for the command-line interface."""

import argparse
import io
import json

import pytest

from repro.cli import _build_parser, main


def run_cli(*argv: str) -> tuple[int, str]:
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


class TestScenarioCommand:
    def test_runs_and_prints_report(self):
        code, output = run_cli("scenario", "--events", "30", "--patients", "10",
                               "--seed", "3")
        assert code == 0
        assert "CSS SCENARIO REPORT" in output
        assert "events published:        30" in output

    def test_a_durable_run_is_the_storage_engines_to_operate(self, tmp_path):
        # At the parent a default ``--durable`` run wrote flat files that
        # ``repro store`` could not see.
        code, output = run_cli("scenario", "--events", "20", "--durable",
                               str(tmp_path))
        assert code == 0
        assert output.splitlines()[-1].startswith(
            "durable backends wrote segmented index and audit logs")
        code, output = run_cli("store", "stats", "--data",
                               str(tmp_path / "node-0"))
        assert code == 0
        assert [line.split()[0] for line in output.splitlines()[1:]] == [
            "audit", "index"]

    def test_archive_option(self, tmp_path):
        snap = tmp_path / "snap"
        code, output = run_cli("scenario", "--events", "20", "--archive", str(snap))
        assert code == 0
        assert (snap / "manifest.json").exists()
        assert "archived" in output


class TestCompareCommand:
    def test_prints_five_rows(self):
        code, output = run_cli("compare", "--events", "30")
        assert code == 0
        assert "CSS (two-phase)" in output
        assert "manual (Fig. 1)" in output
        assert "point-to-point SOA" in output
        assert "central warehouse" in output
        assert "full-push pub/sub" in output


class TestMonitorCommand:
    def test_prints_aggregates(self):
        code, output = run_cli("monitor", "--events", "40", "--threshold", "1")
        assert code == 0
        assert "SERVICE VOLUME" in output
        assert "distinct citizens served:" in output

    def test_suppression_threshold_respected(self):
        code, output = run_cli("monitor", "--events", "30",
                               "--threshold", "1000000")
        assert code == 0
        assert "<1000000" in output


class TestInspectCommand:
    def test_round_trip_through_archive(self, tmp_path):
        snap = tmp_path / "snap"
        run_cli("scenario", "--events", "25", "--archive", str(snap))
        code, output = run_cli("inspect", str(snap))
        assert code == 0
        assert "chain verified" in output
        assert "Guarantor access report" in output

    def test_tampered_archive_exits_nonzero_with_the_mismatches(self, tmp_path):
        snap = tmp_path / "snap"
        run_cli("scenario", "--events", "25", "--archive", str(snap))
        _, output = run_cli("inspect", str(snap))
        assert "matches the manifest" in output
        policies = snap / "policies.jsonl"
        policies.write_text(policies.read_text().replace(
            '"fields": [', '"fields": ["HivResult", ', 1))
        code, output = run_cli("inspect", str(snap))
        assert code == 1
        assert "policies.jsonl: sha256 mismatch" in output
        assert "chain verified" not in output

    def test_missing_archive_fails(self, tmp_path):
        from repro.exceptions import ConfigurationError

        with pytest.raises(ConfigurationError):
            run_cli("inspect", str(tmp_path / "nothing"))


class TestFederateCommand:
    def test_runs_a_sharded_deployment(self):
        code, output = run_cli("federate", "--nodes", "2", "--events", "60",
                               "--patients", "12", "--seed", "5")
        assert code == 0
        assert "FEDERATED CSS SCENARIO REPORT" in output
        assert "nodes:                   2" in output
        assert "federated audit:" in output
        assert "2 verified chains" in output

    def test_rebalance_option_reports_the_new_node(self):
        code, output = run_cli("federate", "--nodes", "2", "--events", "40",
                               "--patients", "10", "--rebalance")
        assert code == 0
        assert "rebalance: added node-2" in output

    def test_batched_run_matches_unbatched_outcomes(self):
        args = ("--nodes", "2", "--events", "40", "--patients", "10",
                "--seed", "5")
        _code, plain = run_cli("federate", *args)
        code, batched = run_cli("federate", *args, "--batch", "on",
                                "--batch-size", "64")
        assert code == 0
        assert "2 verified chains" in batched

        def outcomes(report: str) -> list[str]:
            # Timing lines shrink under batching (the point of the knob);
            # every decision-derived line must be identical.
            keep = ("events published", "blocked by consent",
                    "notifications delivered", "detail requests",
                    "cross-node hops", "audit chains verified",
                    "federated audit")
            return [line for line in report.splitlines()
                    if line.strip().startswith(keep)]

        assert outcomes(batched) == outcomes(plain)

    def test_unknown_batch_name_suggests_the_nearest(self):
        with pytest.raises(SystemExit) as excinfo:
            run_cli("federate", "--batch", "onn")
        assert "did you mean 'on'?" in str(excinfo.value)

    def test_telemetry_federated_scenario(self):
        code, output = run_cli("telemetry", "--scenario", "federated",
                               "--nodes", "2", "--events", "40",
                               "--patients", "10")
        assert code == 0
        assert "federation.hops_total" in output

    def test_slo_out_writes_report_payload(self, tmp_path):
        report = tmp_path / "slo.json"
        code, output = run_cli("federate", "--nodes", "2", "--events", "40",
                               "--patients", "10", "--slo-out", str(report))
        assert code == 0
        payload = json.loads(report.read_text())
        names = {row["name"] for row in payload["objectives"]}
        assert "link-delivery" in names and "pdp-deny-rate" in names


class TestTelemetryObservability:
    def test_slo_out_writes_evaluated_objectives(self, tmp_path):
        report = tmp_path / "slo.json"
        code, _ = run_cli("telemetry", "--scenario", "default", "--events",
                          "30", "--slo-out", str(report))
        assert code == 0
        payload = json.loads(report.read_text())
        assert payload["breaches"] >= 0
        assert all(0.0 <= row["target"] <= 1.0
                   for row in payload["objectives"])


class TestSloCommand:
    def test_scripted_drops_breach_link_delivery(self, tmp_path):
        report = tmp_path / "slo.json"
        code, output = run_cli("slo", "--scenario", "federated", "--nodes",
                               "2", "--events", "60", "--patients", "10",
                               "--drops", "2", "--slo-out", str(report))
        assert code == 0
        assert "link-delivery" in output
        assert "BREACH" in output
        assert "platform.slo.alerts" in output
        payload = json.loads(report.read_text())
        by_name = {row["name"]: row for row in payload["objectives"]}
        assert by_name["link-delivery"]["breached"] is True

    def test_default_scenario_evaluates_local_objectives(self):
        code, output = run_cli("slo", "--scenario", "default",
                               "--events", "30")
        assert code == 0
        assert "pdp-deny-rate" in output

    def test_unknown_scenario_suggests_the_nearest(self):
        with pytest.raises(SystemExit) as excinfo:
            run_cli("slo", "--scenario", "federatd")
        assert "did you mean 'federated'?" in str(excinfo.value)


class TestTraceCommand:
    def test_stitches_a_federated_run(self, tmp_path):
        out = tmp_path / "trace.jsonl"
        code, output = run_cli("trace", "--scenario", "federated", "--nodes",
                               "2", "--events", "30", "--patients", "8",
                               "--stitch", "--out", str(out))
        assert code == 0
        assert "stitched" in output
        assert "cross-node" in output
        assert "0 orphan spans" in output
        lines = out.read_text().splitlines()
        assert lines
        assert all(json.loads(line)["span_id"] for line in lines)

    def test_unknown_scenario_suggests_the_nearest(self):
        with pytest.raises(SystemExit) as excinfo:
            run_cli("trace", "--scenario", "defalt")
        assert "did you mean 'default'?" in str(excinfo.value)


class TestParser:
    def test_the_run_flags_default_to_the_config_defaults(self):
        """One default each: ``n_patients`` was 50 in the config and 30 here."""
        from repro.sim.scenario import ScenarioConfig

        args, config = _build_parser().parse_args(["scenario"]), ScenarioConfig()
        assert (args.patients, args.events, args.rate, args.seed) == (
            config.n_patients, config.n_events, config.detail_request_rate,
            config.seed) == (30, 200, 0.3, 2010)

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            run_cli("frobnicate")

    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            run_cli()


def subparsers() -> dict[str, argparse.ArgumentParser]:
    (sub,) = [action for action in _build_parser()._actions
              if isinstance(action, argparse._SubParsersAction)]
    return sub.choices


def options_of(parser: argparse.ArgumentParser) -> list[argparse.Action]:
    return [action for action in parser._actions
            if not isinstance(action, argparse._HelpAction)]


#: Every option of every subcommand — (option strings, dest, default, type) —
#: captured from the parser as it stood before the option table replaced the
#: 61 hand-written ``add_argument`` calls.  A dropped flag or a drifted
#: default fails here; a deliberate change edits this literal in the same PR.
SURFACE = {
    "scenario": [
        (("--events",), "events", 200, int),
        (("--patients",), "patients", 30, int),
        (("--rate",), "rate", 0.3, float),
        (("--seed",), "seed", 2010, int),
        (("--archive",), "archive", None, None),
        (("--durable",), "durable", None, None),
        (("--sched",), "sched", "none", None),
    ],
    "compare": [
        (("--events",), "events", 200, int),
        (("--patients",), "patients", 30, int),
        (("--rate",), "rate", 0.3, float),
        (("--seed",), "seed", 2010, int),
    ],
    "monitor": [
        (("--events",), "events", 200, int),
        (("--patients",), "patients", 30, int),
        (("--rate",), "rate", 0.3, float),
        (("--seed",), "seed", 2010, int),
        (("--threshold",), "threshold", 5, int),
    ],
    "telemetry": [
        (("--scenario",), "scenario", "default", None),
        (("--nodes",), "nodes", 2, int),
        (("--events",), "events", 200, int),
        (("--patients",), "patients", 30, int),
        (("--rate",), "rate", 0.3, float),
        (("--seed",), "seed", 2010, int),
        (("--guard",), "guard", "hash", None),
        (("--trace-out",), "trace_out", None, None),
        (("--metrics-out",), "metrics_out", None, None),
        (("--bench-out",), "bench_out", None, None),
        (("--slo-out",), "slo_out", None, None),
    ],
    "federate": [
        (("--events",), "events", 200, int),
        (("--patients",), "patients", 30, int),
        (("--rate",), "rate", 0.3, float),
        (("--seed",), "seed", 2010, int),
        (("--nodes",), "nodes", 2, int),
        (("--sched",), "sched", "none", None),
        (("--batch",), "batch", "off", None),
        (("--batch-size",), "batch_size", 256, int),
        (("--rebalance",), "rebalance", False, None),
        (("--slo-out",), "slo_out", None, None),
    ],
    "slo": [
        (("--scenario",), "scenario", "federated", None),
        (("--nodes",), "nodes", 2, int),
        (("--events",), "events", 200, int),
        (("--patients",), "patients", 30, int),
        (("--rate",), "rate", 0.3, float),
        (("--seed",), "seed", 2010, int),
        (("--guard",), "guard", "hash", None),
        (("--drops",), "drops", 0, int),
        (("--slo-out",), "slo_out", None, None),
    ],
    "trace": [
        (("--scenario",), "scenario", "federated", None),
        (("--nodes",), "nodes", 2, int),
        (("--events",), "events", 200, int),
        (("--patients",), "patients", 30, int),
        (("--rate",), "rate", 0.3, float),
        (("--seed",), "seed", 2010, int),
        (("--stitch",), "stitch", False, None),
        (("--out",), "out", None, None),
    ],
    "store": [
        ((), "action", None, None),
        (("--data",), "data", None, None),
        (("--snapshots",), "snapshots", None, None),
        (("--id",), "snapshot_id", None, None),
        (("--target",), "target", None, None),
        (("--to-sequence",), "to_sequence", None, int),
        (("--log",), "log", "index", None),
    ],
    "workload": [
        (("--scenario",), "scenario", "steady", None),
        (("--population",), "population", 100000, int),
        (("--ops",), "ops", 5000, int),
        (("--nodes",), "nodes", "1,2,4,8", None),
        (("--seed",), "seed", None, int),
        (("--list",), "list_scenarios", False, None),
        (("--sched",), "sched", "none", None),
        (("--batch",), "batch", "off", None),
        (("--batch-size",), "batch_size", 256, int),
        (("--out",), "out", None, None),
    ],
    "sched": [
        (("--scenario",), "scenario", "anomaly", None),
        (("--population",), "population", 4000, int),
        (("--ops",), "ops", 600, int),
        (("--nodes",), "nodes", 2, int),
        (("--seed",), "seed", None, int),
        (("--list",), "list_scenarios", False, None),
        (("--out",), "out", None, None),
    ],
    "incident": [
        (("--scenario",), "scenario", "anomaly", None),
        (("--population",), "population", 4000, int),
        (("--ops",), "ops", 600, int),
        (("--nodes",), "nodes", 2, int),
        (("--seed",), "seed", None, int),
        (("--list",), "list_scenarios", False, None),
        (("--out",), "out", None, None),
    ],
    "timeline": [
        (("--scenario",), "scenario", "anomaly", None),
        (("--population",), "population", 4000, int),
        (("--ops",), "ops", 600, int),
        (("--nodes",), "nodes", 2, int),
        (("--seed",), "seed", None, int),
        (("--limit",), "limit", 20, int),
        (("--out",), "out", None, None),
    ],
    "inspect": [
        ((), "directory", None, None),
        (("--secret",), "secret", "css-platform-secret", None),
    ],
}


class TestSurface:
    def test_every_flag_and_default_is_the_pinned_one(self):
        surface = {
            command: [(tuple(option.option_strings), option.dest,
                       option.default, option.type)
                      for option in options_of(parser)]
            for command, parser in subparsers().items()}
        assert surface == SURFACE
        assert sum(len(options) for options in surface.values()) == 94

    def test_no_option_keeps_a_private_list_of_choices(self):
        """Enumerations are refused by the CLI's one path (exit 1, with a
        suggestion), not by argparse's ``choices`` (exit 2, without)."""
        assert [(command, option.dest)
                for command, parser in subparsers().items()
                for option in options_of(parser) if option.choices] == []


def enumerating_flags() -> list[tuple[str, str, tuple[str, ...]]]:
    """(command, option string or positional name, known values) of every
    option that enumerates its values, read from the parser."""
    found = []
    for command, parser in subparsers().items():
        enumerated = parser.get_default("enumerated")
        for option in options_of(parser):
            if option.dest in enumerated:
                found.append((command, (option.option_strings or [None])[0],
                              enumerated[option.dest]))
    return found


class TestOneRejectionPath:
    def test_the_enumerating_flags_are_the_expected_ones(self):
        assert sorted({(command, flag) for command, flag, _ in
                       enumerating_flags()}, key=str) == sorted([
            ("scenario", "--sched"),
            ("telemetry", "--scenario"), ("telemetry", "--guard"),
            ("federate", "--sched"), ("federate", "--batch"),
            ("slo", "--scenario"), ("slo", "--guard"),
            ("trace", "--scenario"),
            ("store", None), ("workload", "--scenario"),
            ("workload", "--sched"), ("workload", "--batch"),
            ("sched", "--scenario"), ("incident", "--scenario"),
            ("timeline", "--scenario")], key=str)

    @pytest.mark.parametrize(
        "command, flag, known", enumerating_flags(),
        ids=[f"{command} {flag or 'ACTION'}"
             for command, flag, _ in enumerating_flags()])
    def test_a_one_letter_typo_is_refused_with_a_suggestion(
            self, command, flag, known):
        typo = known[0][:-1]
        assert typo not in known
        argv = [command, typo] if flag is None else [command, flag, typo]
        with pytest.raises(SystemExit) as excinfo:
            run_cli(*argv)
        message = str(excinfo.value)
        assert excinfo.value.code != 2  # not argparse's usage error
        assert message.startswith(f"repro {command}: unknown ")
        assert f"{typo!r}; did you mean {known[0]!r}?" in message
        assert message.endswith(f"available: {', '.join(known)}")

    @pytest.mark.parametrize("command", [
        command for command, parser in subparsers().items()
        if any(option.dest == "nodes" for option in options_of(parser))])
    def test_a_zero_node_count_is_refused_in_one_wording(self, command):
        with pytest.raises(SystemExit) as excinfo:
            run_cli(command, "--nodes", "0")
        assert str(excinfo.value) == (
            f"repro {command}: --nodes must be a positive node count, or "
            f"several separated by commas; got '0'")

    def test_drops_on_a_scenario_without_links_is_refused(self):
        """``--drops`` needs links, and one node is one node however it is
        asked for: ``--scenario default`` used to be refused by the CLI's
        own check, ``--scenario federated --nodes 1`` to exit 0 having
        dropped nothing.  The one check is ``ScenarioConfig``'s."""
        for spelling in (("--scenario", "default"),
                         ("--scenario", "federated", "--nodes", "1")):
            with pytest.raises(SystemExit) as excinfo:
                run_cli("slo", *spelling, "--drops", "2")
            assert excinfo.value.code != 2  # not argparse's usage error
            assert str(excinfo.value).startswith("repro slo: 2 scripted drops ")
            assert "no links to drop" in str(excinfo.value)

