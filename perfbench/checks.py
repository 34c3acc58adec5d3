"""Correctness checks run after the measured window, outside its timing.

Every workload checks a seeded sample whose answer does not come from
the compiler: a probe tagged for a sampled prefix must leave the switch
on a port of the participant the route server chose as that sender's
best route. Dropped runtime events and verifier errors count as failures
too.

Every workload also compares the measured controller with one
cold-started from the final routes and the same policies: their
canonical states must be equal (up to VNH renaming), the dataplane
verifier must find no error in the installed table, and — when a fabric
is attached — forwarding must agree on a seeded probe set.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import List

#: Sampled (sender, prefix) pairs on ``sample`` workloads.
SAMPLE_PROBES = 400

#: Prefixes drawn for the forwarding-oracle probe set.
ORACLE_PREFIXES = 24

#: A destination port the workload policies never match on.
UNMATCHED_PORT = 9


@dataclass
class CheckResult:
    """How many checks ran and which failed."""

    attempted: int = 0
    problems: List[str] = field(default_factory=list)
    verifier_errors: int = 0


def run_checks(spec, inputs, session) -> CheckResult:
    """Every check for one settled session."""
    result = CheckResult()
    stats = session.runtime.stats()
    result.attempted += stats["submitted_total"]
    if stats["dropped"]:
        result.problems.append(f"runtime dropped {stats['dropped']} events")
    verifier = session.controller.dataplane_verifier
    if verifier is not None:
        errors = verifier.state_report().errors
        result.verifier_errors = len(errors)
        result.problems.extend(
            f"verifier: {diagnostic.describe()}" for diagnostic in errors)
    _sample_check(inputs, session.controller, result)
    _reference_check(spec, inputs, session, result)
    return result


def _sample_check(inputs, controller, result: CheckResult) -> None:
    from repro.net.packet import Packet

    rng = random.Random(inputs.probe_seed)
    route_server = controller.route_server
    prefixes = route_server.all_prefixes()
    senders = [participant for participant in controller.topology.participants()
               if not participant.is_remote
               and not participant.outbound_policies]
    for _ in range(SAMPLE_PROBES):
        sender = rng.choice(senders)
        prefix = rng.choice(prefixes)
        best = route_server.best_route_for(sender.name, prefix)
        vmac = controller.allocator.vmac_for_prefix(prefix)
        if best is None or vmac is None:
            continue
        result.attempted += 1
        packet = Packet(port=sender.switch_ports[0], dstmac=vmac,
                        dstip=prefix.first_address + 1, srcip="10.0.0.1",
                        srcport=1234, dstport=UNMATCHED_PORT, protocol=6)
        rule = controller.table.lookup(packet)
        got = set() if rule is None else {
            action.apply(packet).get("port") for action in rule.actions}
        want = set(controller.topology.participant(
            best.learned_from).switch_ports)
        if not got or not got <= want:
            result.problems.append(
                f"{sender.name} -> {prefix}: table sends to ports "
                f"{sorted(got)}, best route is via {best.learned_from} "
                f"(ports {sorted(want)})")


def empty_controller(ixp, fabric: bool, **config):
    """A controller with the exchange's members registered and no routes."""
    from repro.core.controller import SdxController

    controller = SdxController(with_dataplane=fabric, **config)
    for member in ixp.participants:
        controller.add_participant(member.name, member.asn,
                                   ports=member.ports, announce=False)
    return controller


def reference_controller(spec, inputs, session):
    """A controller cold-started from the session's final routes and
    policies (verifier off: it is the oracle, not the subject)."""
    from repro.bgp.messages import Announcement, Update
    from repro.workloads.policies import install_assignments

    measured = session.controller
    reference = empty_controller(inputs.ixp, spec.fabric)
    updates = []
    for peer in measured.route_server.peers():
        routes = measured.route_server.routes_from(peer)
        if routes:
            updates.append(Update(sender=peer, announcements=tuple(
                Announcement(entry.prefix, entry.attributes)
                for entry in routes)))
    reference.load_routes(updates)
    install_assignments(reference, inputs.policies)
    reference.start()
    return reference


def oracle_probes(inputs, controller):
    """A seeded probe set over sampled prefixes and policy ports."""
    from repro.net.packet import Packet

    rng = random.Random(inputs.probe_seed)
    prefixes = controller.route_server.all_prefixes()
    chosen = rng.sample(prefixes, k=min(ORACLE_PREFIXES, len(prefixes)))
    return [Packet(dstip=prefix.first_address + 1, dstport=dstport,
                   srcip=srcip, srcport=1234, protocol=6)
            for prefix in chosen
            for dstport in (80, 443, UNMATCHED_PORT)
            for srcip in ("10.0.0.1", "200.0.0.1")]


def _reference_check(spec, inputs, session, result: CheckResult) -> None:
    from repro.statics.dataplane import analyze_controller_dataplane
    from repro.verification.oracle import compare_controllers
    from repro.verification.runtime import canonical_state

    controller = session.controller
    reference = reference_controller(spec, inputs, session)
    result.attempted += 2
    result.problems.extend(
        f"canonical state: {problem}" for problem in
        canonical_state(reference).diff(canonical_state(controller)))
    report = analyze_controller_dataplane(controller)
    result.problems.extend(
        f"dataplane analysis: {diagnostic.describe()}"
        for diagnostic in report.errors)
    if spec.fabric:
        probes = oracle_probes(inputs, controller)
        result.attempted += len(probes)
        result.problems.extend(
            f"forwarding oracle: {violation.detail}" for violation in
            compare_controllers(reference, controller, probes))
