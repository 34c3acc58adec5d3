"""End-to-end benchmark of the SDX pipeline.

Usage (from the repository root)::

    python3 perfbench/run.py --workload bgp_stream --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15

One run builds the workload's exchange, then repeats a closed-loop cycle
of operations for ``--seconds``: a cold start of a fresh controller
(``setup_s``), single BGP updates (each followed by a southbound flush),
a background re-optimisation, a policy change and a runtime burst
drained and settled. Every operation waits for the previous one, and
input generation stays outside every timed region. Every time is CPU
time scaled to a nominal machine speed by a calibration kernel timed
around each operation (see :mod:`perfbench.calibration`). After the
window the run checks its output (see :mod:`perfbench.checks`) and
replays the seeded count window on a second controller, requiring every
count metric to repeat exactly.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` wraps the
layers' public methods in spans (:mod:`perfbench.tracing`) and reports
the per-layer metrics, writing the span file and a per-layer self-time
table under ``perfbench/out/``. Every run also writes its count metrics
and its operation samples there. ``--workload all`` runs every workload
untraced and traced, each in a fresh process with its own hash seed,
prints every metric by name and unit, and fails unless the count metrics
of the two processes agree.

The last line on standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the exit code is
non-zero when a correctness or determinism check fails.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Workload shapes, count metrics and what each per-layer metric should move.
SPEC = json.loads((HERE / "metrics.json").read_text(encoding="utf-8"))

#: Every measured time is CPU time of this process, then scaled (see
#: calibration.py): the pipeline runs on one thread and never waits (step
#: mode, manual runtime clock), so CPU time is its latency without the
#: host's descheduling of a shared vCPU.
clock = time.process_time
#: Wall time, for the ``--seconds`` window and the phase log.
wall = time.perf_counter

#: Layers whose public methods a traced run wraps in spans. The policy
#: layer runs inside the compiler, so its work shows in core's self time
#: and in the ``policy.rule_pairs`` count.
TRACED_LAYERS = ("bgp", "core", "southbound", "dataplane", "runtime",
                 "statics")

#: Distinct hot-prefix sets the bursts of one run rotate through.
HOT_SETS = 32


@dataclass(frozen=True)
class Workload:
    """The shape of one workload; see ``perfbench/metrics.json``."""

    name: str
    participants: int
    prefixes: int
    exchange_seed: int
    fabric: bool
    cycle_updates: int
    burst_size: int
    hot_prefixes: int
    max_updates: int
    updated_fraction: float


WORKLOADS: Dict[str, Workload] = {
    entry["name"]: Workload(**{key: entry[key]
                               for key in Workload.__dataclass_fields__})
    for entry in SPEC["workloads"]
}


# ----------------------------------------------------------------------
# Inputs (generated from the seed, outside every timed region)
# ----------------------------------------------------------------------


@dataclass
class Inputs:
    """Everything a run feeds the controller, made from its seed."""

    ixp: object
    routes: list
    policies: list
    churn: object
    trace: list
    bursts: List[list]
    probe_seed: int


def make_inputs(spec: Workload, seed: int) -> Inputs:
    """The workload's inputs for ``seed``.

    The exchange (members, routes, installed policies and the one
    policy churned in and out) is fixed per workload by its exchange
    seed, so set-up and compile cost do not swing with ``--seed``; the
    update trace, the burst trace and the probe sample are drawn from
    ``--seed``. Churning one policy keeps every policy sample the same
    operation: recompiles for different policies differ by up to 4x.
    """
    from repro.workloads.policies import generate_policies
    from repro.workloads.seeding import derive_seed
    from repro.workloads.topology import generate_ixp
    from repro.workloads.updates import generate_burst_trace, generate_trace

    ixp = generate_ixp(spec.participants, spec.prefixes,
                       seed=spec.exchange_seed)
    routes = route_updates(ixp)
    policies = generate_policies(ixp, seed=spec.exchange_seed + 1)
    churn = next(assignment for assignment in generate_policies(
        ixp, seed=spec.exchange_seed + 2) if assignment.direction == "out")
    trace = [event.update for event in generate_trace(
        ixp, seed=derive_seed(seed, "trace"), max_updates=spec.max_updates,
        fraction_prefixes_updated=spec.updated_fraction)]
    # Consecutive bursts hammer different hot sets, so a run's settle
    # times average over several hot sets instead of hinging on one draw.
    count = spec.max_updates // spec.cycle_updates
    sets = [generate_burst_trace(
        ixp, bursts=-(-count // HOT_SETS), burst_size=spec.burst_size,
        hot_prefixes=spec.hot_prefixes,
        seed=derive_seed(seed, f"burst{index}")) for index in range(HOT_SETS)]
    bursts = [[event.update for event in sets[index % HOT_SETS][
        (index // HOT_SETS) * spec.burst_size:
        (index // HOT_SETS + 1) * spec.burst_size]] for index in range(count)]
    return Inputs(ixp=ixp, routes=routes, policies=policies, churn=churn,
                  trace=trace, bursts=bursts,
                  probe_seed=derive_seed(seed, "probes"))


def route_updates(ixp) -> list:
    """One bulk Update per announcing member, as the exchange's members
    send them at start-up (what ``SyntheticIxp.build_controller`` loads)."""
    from repro.bgp.attributes import RouteAttributes
    from repro.bgp.messages import Announcement, Update
    from repro.core.controller import SDX_ORIGIN_IP
    from perfbench.checks import empty_controller

    # Port addresses are allocated in registration order, so an empty
    # controller with the same members gives every cold start's next hops.
    topology = empty_controller(ixp, fabric=False).topology
    per_sender: Dict[str, list] = {}
    for name, prefix, path in ixp.announcements:
        participant = topology.participant(name)
        next_hop = (SDX_ORIGIN_IP if participant.is_remote
                    else participant.ports[0].ip)
        per_sender.setdefault(name, []).append(Announcement(
            prefix, RouteAttributes(next_hop=next_hop, as_path=path)))
    return [Update(sender=name, announcements=tuple(announcements))
            for name, announcements in per_sender.items()]


def cold_start(spec: Workload, inputs: Inputs):
    """Empty controller -> routes loaded -> policies -> first table.

    A fabric workload attaches the data plane with the dataplane
    verifier in warn mode; the others run the control plane only.
    """
    from repro.workloads.policies import install_assignments
    from perfbench.checks import empty_controller

    controller = empty_controller(
        inputs.ixp, spec.fabric,
        dataplane_statics_mode="warn" if spec.fabric else "off")
    controller.load_routes(inputs.routes)
    install_assignments(controller, inputs.policies)
    controller.start()
    return controller


# ----------------------------------------------------------------------
# The closed-loop schedule
# ----------------------------------------------------------------------


def counter_total(registry, name: str) -> float:
    """Sum of every series of the metric ``name`` (0 when absent)."""
    return sum(metric.value for metric in registry.metrics()
               if metric.name == name)


class Session:
    """Controllers cold-started and driven through the workload's
    operation schedule, one at a time."""

    def __init__(self, spec: Workload, inputs: Inputs):
        self.spec = spec
        self.inputs = inputs
        self.controller = None
        self.runtime = None
        #: Scaled CPU seconds per operation kind (see calibration.py).
        self.samples: Dict[str, List[float]] = {
            "update": [], "reopt": [], "policy": [], "settle": [],
            "setup": []}
        #: The same samples unscaled, for the phase log.
        self.raw: Dict[str, List[float]] = {kind: [] for kind in self.samples}
        #: Kernel time of every calibration, and every operation as
        #: (kind, CPU seconds, share, index of the calibration before it).
        self.kernels: List[float] = []
        self.operations_log: List[Tuple[str, float, int, int]] = []
        self.updates = 0
        self.burst_updates = 0
        self.update_mods = 0
        self.counts: Optional[Dict[str, float]] = None
        #: CPU seconds inside the operations, raw and scaled.
        self.busy_s = 0.0
        self.busy_scaled_s = 0.0
        self.count_busy_s = 0.0
        #: CPU and wall seconds of the whole window, collections and
        #: calibrations included.
        self.window_cpu_s = 0.0
        self.window_wall_s = 0.0
        self.peak_rss_mib = 0.0
        #: Gives each operation of the window its own trace run id.
        self.tracer = None

    def _cold_start(self) -> None:
        """Drop the previous controller, then cold-start the next one as
        a ``setup`` sample, so one exchange is alive at a time."""
        from repro.runtime import RuntimeConfig
        from repro.runtime.clock import ManualClock

        self.controller = self.runtime = None
        self._next_op(collect=True)
        began = clock()
        controller = cold_start(self.spec, self.inputs)
        self._record("setup", clock() - began)
        self.controller = controller
        # Step mode on a manual clock: the idle trigger never fires, so
        # what the runtime does depends only on the inputs.
        self.runtime = controller.build_runtime(RuntimeConfig(),
                                                clock=ManualClock())

    def _mark_baseline(self) -> None:
        """Counter values the count metrics are taken against."""
        controller = self.controller
        self.initial_rule_pairs = (
            controller.last_compilation.report.stats.rule_pairs_examined)
        self.initial_rules = len(controller.table)
        registry = controller.telemetry.registry
        self.base = {name: counter_total(registry, name) for name in (
            "sdx_bgp_best_route_changes_total",
            "sdx_southbound_flowmods_total",
            "sdx_southbound_rules_unchanged_total",
            "sdx_vnh_ephemeral_total",
            "sdx_statics_dataplane_classes_total",
            "sdx_statics_dataplane_classes_reused_total",
            "sdx_statics_dataplane_checks_total",
            "sdx_statics_dataplane_batches_total",
            "sdx_runtime_recompiles_total")}
        self.base_fast_path = len(controller.fast_path_log)

    # -- operations ----------------------------------------------------

    def _record(self, kind: str, seconds: float, share: int = 1) -> None:
        """One operation took ``seconds`` of CPU time; its sample is the
        time over ``share``, scaled once the window ends. Set-ups do not
        count in ``updates_per_cpu_s``."""
        if kind != "setup":
            self.busy_s += seconds
        self.raw[kind].append(seconds / share)
        self.operations_log.append((kind, seconds, share,
                                    len(self.kernels) - 1))

    def _calibrate(self) -> None:
        from perfbench import calibration

        self.kernels.append(calibration.measure())

    def _scale_samples(self) -> None:
        """Scale every operation by the calibrations on both sides of it
        (see calibration.py)."""
        from perfbench import calibration

        for kind, seconds, share, index in self.operations_log:
            scaled = seconds * calibration.scale_around(self.kernels, index)
            if kind != "setup":
                self.busy_scaled_s += scaled
            self.samples[kind].append(scaled / share)

    def _update(self, update) -> None:
        controller = self.controller
        before = controller.southbound.stats.mods_sent
        began = clock()
        if self.spec.fabric:
            self.runtime.submit_update(update)
            self.runtime.step()
        else:
            controller.submit_update(update)
            controller.southbound.flush()
        self._record("update", clock() - began)
        self.update_mods += controller.southbound.stats.mods_sent - before
        self.updates += 1

    def _reopt(self) -> None:
        began = clock()
        result = self.controller.run_background_recompilation()
        elapsed = clock() - began
        if result is not None:
            self._record("reopt", elapsed)

    def _add_policy(self, controller) -> None:
        from repro.workloads.policies import install_assignments

        install_assignments(controller, [self.inputs.churn])
        controller.notify_policy_change(self.inputs.churn.participant)

    def _remove_policy(self, controller) -> None:
        name = self.inputs.churn.participant
        member = controller.participant(name).participant
        member.remove_outbound(member.outbound_policies[-1])
        controller.notify_policy_change(name)

    def _policy(self) -> None:
        """Add the churn policy, then remove it again. One sample is the
        pair's time over two, so every sample weighs an add and a remove
        alike."""
        began = clock()
        for change in (self._add_policy, self._remove_policy):
            if self.spec.fabric:
                self.runtime.submit_policy("churn", change)
                self.runtime.step()
            else:
                change(self.controller)
        self._record("policy", clock() - began, share=2)

    def _burst(self, index: int) -> None:
        """Submit a whole burst, step until it is drained, then settle."""
        burst = self.inputs.bursts[index % len(self.inputs.bursts)]
        began = clock()
        for update in burst:
            self.runtime.submit_update(update)
        while self.runtime.step():
            pass
        self.runtime.settle()
        self._record("settle", clock() - began)
        self.burst_updates += len(burst)

    # -- the loop --------------------------------------------------------

    def _next_op(self, collect: bool = False) -> None:
        """Start an operation; ``collect`` first runs a full collection,
        so the collections inside the operation are set by its own
        allocations rather than by where the previous ones left the
        collector, and then calibrates the machine speed. Neither is
        part of any operation's time."""
        if collect:
            gc.collect()
            self._calibrate()
        if self.tracer is not None:
            self.tracer.run_id += 1

    def run(self, seconds: Optional[float]) -> None:
        """Replay the schedule, one cycle at a time.

        A cycle cold-starts a fresh controller, then runs
        ``cycle_updates`` single updates of the trace, one background
        re-optimisation, one policy add and remove, and one burst.
        Operation costs drift as the routes' state wanders away from the
        cold start; starting every cycle afresh keeps each cycle's state
        the same however many cycles a run fits. The first cycle is the
        count window. With ``seconds`` set, start no cycle once
        ``seconds`` have elapsed; with ``None``, stop after the first.
        """
        spec = self.spec
        trace = self.inputs.trace
        started, wall_started = clock(), wall()
        deadline = wall_started + (seconds or 0.0)
        for cycle in range(len(trace) // spec.cycle_updates):
            if cycle and wall() >= deadline:
                break
            self._cold_start()
            if not cycle:
                self._mark_baseline()
            first = cycle * spec.cycle_updates
            self._next_op(collect=True)
            for update in trace[first:first + spec.cycle_updates]:
                self._next_op()
                self._update(update)
            self._next_op(collect=True)
            self._reopt()
            self._next_op(collect=True)
            self._policy()
            self._next_op(collect=True)
            self._burst(cycle)
            if not cycle:
                self.count_busy_s = self.busy_s
                self.counts = self.snapshot()
                # High-water mark after a fixed amount of work; a later
                # reading would grow with how fast the window ran.
                self.peak_rss_mib = resource.getrusage(
                    resource.RUSAGE_SELF).ru_maxrss / 1024.0
                if seconds is None:
                    break
        self._next_op(collect=True)
        self.window_cpu_s = clock() - started
        self.window_wall_s = wall() - wall_started
        self._scale_samples()

    def snapshot(self) -> Dict[str, float]:
        """The count metrics; deterministic for a seed."""
        controller = self.controller
        registry = controller.telemetry.registry
        delta = {name: counter_total(registry, name) - base
                 for name, base in self.base.items()}
        sessions = [controller.route_server.session(peer)
                    for peer in controller.route_server.peers()]
        fast_path = controller.fast_path_log[self.base_fast_path:]
        synced = (delta["sdx_southbound_rules_unchanged_total"]
                  + delta["sdx_southbound_flowmods_total"])
        reused = delta["sdx_statics_dataplane_classes_reused_total"]
        classes = delta["sdx_statics_dataplane_classes_total"]
        return {
            "flow_rules": self.initial_rules,
            "bgp.best_route_changes":
                delta["sdx_bgp_best_route_changes_total"],
            "bgp.session_log_len": sum(
                len(s.received_log) + len(s.sent_log) for s in sessions),
            "core.prefix_groups":
                controller.last_compilation.prefix_group_count,
            "core.fast_path_rules": sum(r.rules_installed for r in fast_path),
            "core.fast_path_log_len": len(controller.fast_path_log),
            "core.vnh_ephemeral": delta["sdx_vnh_ephemeral_total"],
            "policy.rule_pairs": self.initial_rule_pairs,
            "southbound.flowmods": delta["sdx_southbound_flowmods_total"],
            "southbound.flowmods_per_update": self.update_mods / self.updates,
            "southbound.unchanged_ratio": (
                delta["sdx_southbound_rules_unchanged_total"] / synced
                if synced else 0.0),
            "runtime.coalescing_ratio":
                self.runtime.stats()["coalescing_ratio"],
            "runtime.recompiles": delta["sdx_runtime_recompiles_total"],
            "statics.classes": classes,
            "statics.classes_reused_ratio": (
                reused / (classes + reused) if classes + reused else 0.0),
            "statics.checks": delta["sdx_statics_dataplane_checks_total"],
            "statics.windows": delta["sdx_statics_dataplane_batches_total"],
        }

    def settle(self) -> None:
        """Drain the runtime and swap in the optimal table."""
        self.runtime.settle()
        self.controller.run_background_recompilation()

    @property
    def operations(self) -> int:
        """Operations completed in the window."""
        return sum(len(samples) for samples in self.samples.values())


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------


def quantile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank quantile."""
    ordered = sorted(samples)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def end_to_end(session: Session) -> Dict[str, float]:
    """The end-to-end metrics of one untraced run."""
    samples = session.samples
    counts = session.counts
    return {
        "setup_s": statistics.median(samples["setup"]),
        "update_cpu_p50_ms": quantile(samples["update"], 0.50) * 1e3,
        "update_cpu_p90_ms": quantile(samples["update"], 0.90) * 1e3,
        "updates_per_cpu_s": (session.updates + session.burst_updates)
        / session.busy_scaled_s,
        "reopt_cpu_p50_ms": quantile(samples["reopt"], 0.50) * 1e3,
        "policy_cpu_p50_ms": quantile(samples["policy"], 0.50) * 1e3,
        "settle_cpu_p50_ms": quantile(samples["settle"], 0.50) * 1e3,
        "flow_rules": counts["flow_rules"],
        "peak_rss_mib": session.peak_rss_mib,
    }


def fit_slope(points: Sequence[Tuple[int, float]], floor: int) -> float:
    """Least-squares slope of log(seconds) against log(size)."""
    usable = [(math.log(size), math.log(seconds))
              for size, seconds in points if size >= floor and seconds > 0]
    if len(usable) < 2:
        return 0.0
    mean_x = statistics.fmean(x for x, _ in usable)
    mean_y = statistics.fmean(y for _, y in usable)
    var = sum((x - mean_x) ** 2 for x, _ in usable)
    if var == 0:
        return 0.0
    return sum((x - mean_x) * (y - mean_y) for x, y in usable) / var


def per_layer(tracer, session: Session) -> Dict[str, float]:
    """The per-layer metrics of one traced run, but trace.overhead_s."""
    from perfbench import calibration

    children = tracer.children_by_layer()
    by_name: Dict[str, list] = {}
    for span in tracer.spans:
        by_name.setdefault(span.name, []).append(span)

    def spans(name: str) -> list:
        return by_name.get(name, [])

    def mean_ms(items: list, seconds: Callable = lambda s: s.duration) -> float:
        return (statistics.fmean(seconds(s) for s in items) * 1e3
                if items else 0.0)

    def median_s(values: list) -> float:
        return statistics.median(values) if values else 0.0

    def excluding(layers: Tuple[str, ...]) -> Callable:
        return lambda s: s.duration - sum(
            seconds for layer, seconds in children[s.span_id].items()
            if layer in layers)

    compiles = [s.tags["timings"] for s in spans("SdxCompiler.compile")]
    applies = [s for s in spans("SouthboundEngine.flush")
               + spans("SouthboundEngine.flush_installs") if s.tags["mods"]]
    steps = [s for s in spans("ControlPlaneRuntime.step") if s.tags["events"]]
    lookups, lookup_s = tracer.hot.get("FlowTable.lookup", (0, 0.0))
    installs, install_s = tracer.hot.get("BorderRouter.install_route", (0, 0.0))
    _, withdraw_s = tracer.hot.get("BorderRouter.withdraw_route", (0, 0.0))
    receive_self = sum(tracer.self_time(s, children)
                       for s in spans("BorderRouter.receive_update"))
    stats = session.runtime.stats()
    counts = session.counts
    metrics = {
        "bgp.bulk_load_s": median_s(
            [s.duration for s in spans("RouteServer.bulk_load")]),
        "bgp.ingest_exponent": fit_slope(
            [(size, seconds) for size, seconds, parent
             in tracer.sized["AdjRibIn.apply"]
             if parent == "RouteServer.bulk_load"],
            SPEC["ingest_fit_min_prefixes"]),
        "bgp.submit_self_ms": mean_ms(
            spans("RouteServer.submit"),
            excluding(("core", "southbound", "dataplane", "runtime",
                       "statics"))),
        "core.fast_path_ms": mean_ms(spans("IncrementalEngine.handle_prefixes")),
        "core.background_recompile_s": median_s(
            [s.duration for s in spans("IncrementalEngine.background_recompile")]),
        "southbound.sync_ms": mean_ms(spans("SouthboundEngine.sync_classifier")),
        "southbound.apply_ms": mean_ms(applies, excluding(("statics",))),
        "dataplane.apply_delta_ms": mean_ms(spans("FlowTable.apply_delta")),
        "dataplane.lookups": lookups,
        "dataplane.lookup_us": lookup_s / lookups * 1e6 if lookups else 0.0,
        "dataplane.router_installs": installs,
        "dataplane.router_s": install_s + withdraw_s + receive_self,
        "runtime.step_ms": mean_ms(steps),
        "runtime.wait_ms": stats["ingest_seconds"]["p50"] * 1e3,
        "runtime.queue_depth_max": stats["queue_depth_percentiles"]["max"],
        "runtime.dropped": stats["dropped"],
        "statics.verify_delta_ms": mean_ms(
            spans("DataplaneVerifier.verify_delta")),
    }
    for stage in SPEC["compile_stages"]:
        metrics[f"core.compile.{stage}_s"] = median_s(
            [timings[stage] for timings in compiles])
    # Above 1 when the host descheduled the process during the window.
    metrics["process.wall_cpu_ratio"] = (session.window_wall_s
                                         / session.window_cpu_s)
    metrics["process.speed_scale"] = calibration.NOMINAL_S / statistics.median(
        session.kernels)
    table = tracer.layer_table()
    for layer in TRACED_LAYERS:
        metrics[f"{layer}.self_s"] = table.get(layer, {"self_s": 0.0})["self_s"]
    # Layer counts are named "<layer>.<count>"; the rest are end-to-end.
    metrics.update((name, value) for name, value in counts.items()
                   if "." in name)
    return metrics


# ----------------------------------------------------------------------
# One run
# ----------------------------------------------------------------------


def probes_for(tracing_module):
    """The methods wrapped by a traced run, with their layers."""
    from repro.bgp.rib import AdjRibIn
    from repro.bgp.routeserver import RouteServer
    from repro.core.compiler import SdxCompiler
    from repro.core.controller import SdxController
    from repro.core.incremental import IncrementalEngine
    from repro.dataplane.flowtable import FlowTable
    from repro.dataplane.router import BorderRouter
    from repro.runtime.loop import ControlPlaneRuntime
    from repro.southbound.engine import SouthboundEngine
    from repro.statics.dataplane import DataplaneVerifier

    Probe = tracing_module.Probe

    return [
        Probe(RouteServer, "bulk_load", "bgp"),
        Probe(RouteServer, "submit", "bgp"),
        Probe(RouteServer, "readvertise", "bgp"),
        Probe(AdjRibIn, "apply", "bgp", hot=True,
              size=lambda args: len(args[1].announcements)
              + len(args[1].withdrawals)),
        Probe(SdxController, "start", "core"),
        Probe(SdxController, "submit_update", "core"),
        Probe(SdxController, "recompile", "core"),
        Probe(SdxController, "run_background_recompilation", "core"),
        Probe(SdxController, "notify_policy_change", "core"),
        Probe(SdxCompiler, "compile", "core",
              tag=lambda _a, r: {"timings": dict(r.timings)}),
        Probe(IncrementalEngine, "handle_prefixes", "core"),
        Probe(IncrementalEngine, "install_full", "core"),
        Probe(IncrementalEngine, "background_recompile", "core"),
        Probe(SouthboundEngine, "sync_classifier", "southbound"),
        Probe(SouthboundEngine, "push_rules", "southbound"),
        Probe(SouthboundEngine, "retract_rules", "southbound"),
        Probe(SouthboundEngine, "flush", "southbound",
              tag=lambda _a, r: {"mods": r}),
        Probe(SouthboundEngine, "flush_installs", "southbound",
              tag=lambda _a, r: {"mods": r}),
        Probe(FlowTable, "apply_delta", "dataplane"),
        Probe(FlowTable, "lookup", "dataplane", hot=True),
        Probe(BorderRouter, "receive_update", "dataplane"),
        Probe(BorderRouter, "install_route", "dataplane", hot=True),
        Probe(BorderRouter, "withdraw_route", "dataplane", hot=True),
        Probe(ControlPlaneRuntime, "submit_update", "runtime"),
        Probe(ControlPlaneRuntime, "submit_policy", "runtime"),
        Probe(ControlPlaneRuntime, "step", "runtime",
              tag=lambda _a, r: {"events": r}),
        Probe(ControlPlaneRuntime, "settle", "runtime"),
        Probe(DataplaneVerifier, "verify_delta", "statics"),
        Probe(DataplaneVerifier, "on_apply_begin", "statics"),
        Probe(DataplaneVerifier, "on_batch_pending", "statics"),
        Probe(DataplaneVerifier, "on_apply_end", "statics"),
        Probe(DataplaneVerifier, "__call__", "statics"),
    ]


@dataclass
class Result:
    """What one run prints as its last line."""

    correct: bool
    attempted: int
    failed: int
    metrics: Dict[str, float]
    counts: Dict[str, float]
    problems: List[str] = field(default_factory=list)

    def line(self, units: Dict[str, str]) -> str:
        return json.dumps({
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {name: {"value": value, "unit": units[name]}
                        for name, value in self.metrics.items()},
        })


def run_workload(spec: Workload, seed: int, seconds: float,
                 traced: bool) -> Result:
    """Set up, replay the count window, measure, check."""
    from perfbench import calibration, checks, tracing

    tracer = tracing.Tracer()
    probes = probes_for(tracing) if traced else []
    phases = {"begin": wall()}
    inputs = make_inputs(spec, seed)
    phases["inputs"] = wall()

    measured = Session(spec, inputs)
    measured.tracer = tracer
    with tracer.wrapping(probes):
        measured.run(seconds)
    phases["window"] = wall()

    measured.settle()
    check = checks.run_checks(spec, inputs, measured)
    problems = check.problems
    phases["checks"] = wall()

    if traced:
        metrics = per_layer(tracer, measured)
        metrics["statics.errors"] = check.verifier_errors
    else:
        metrics = end_to_end(measured)
    attempted = measured.operations + check.attempted + len(
        SPEC["count_metrics"])
    ops = ", ".join(f"{kind} {len(samples)}"
                    for kind, samples in measured.samples.items())
    counts, count_busy_s = measured.counts, measured.count_busy_s
    raw = {f"{kind}_p50_ms": quantile(samples, 0.5) * 1e3
           for kind, samples in measured.raw.items() if samples}
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    (out / f"{spec.name}-seed{seed}-samples.json").write_text(json.dumps(
        {"scaled": measured.samples, "unscaled": measured.raw,
         "kernels": measured.kernels, "log": measured.operations_log}),
        encoding="utf-8")
    raw["speed_scale"] = calibration.NOMINAL_S / statistics.median(
        measured.kernels)

    # An untraced replay of the count window on a fresh cold start must
    # repeat every count metric; its time is the untraced baseline of
    # trace.overhead_s.
    del measured
    gc.collect()
    replay = Session(spec, inputs)
    replay.run(None)
    problems.extend(
        f"count metric {name} differs on replay: "
        f"{counts[name]!r} != {replay.counts[name]!r}"
        for name in SPEC["count_metrics"] if counts[name] != replay.counts[name])
    phases["replay"] = wall()
    marks = list(phases.items())
    sys.stderr.write("phases: " + ", ".join(
        f"{name} {end - start:.2f}s" for (_, start), (name, end)
        in zip(marks, marks[1:])) + f"; samples: {ops}\n")
    sys.stderr.write("unscaled: " + json.dumps(raw) + "\n")

    if traced:
        metrics["trace.overhead_s"] = count_busy_s - replay.count_busy_s
        write_trace(tracer, spec, seed, metrics)
    return Result(correct=not problems, attempted=attempted,
                  failed=len(problems), metrics=metrics,
                  counts=counts, problems=problems)


def write_trace(tracer, spec: Workload, seed: int,
                metrics: Dict[str, float]) -> None:
    """The span file and the per-layer self-time table."""
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    stem = f"{spec.name}-seed{seed}"
    tracer.write(out / f"{stem}-spans.jsonl", spec.name, seed)
    table = tracer.layer_table()
    total = sum(row["self_s"] for row in table.values()) or 1.0
    lines = [f"{'layer':<12}{'calls':>12}{'self_s':>12}{'share':>8}"]
    for layer, row in sorted(table.items(), key=lambda kv: -kv[1]["self_s"]):
        lines.append(f"{layer:<12}{row['calls']:>12}"
                     f"{row['self_s']:>12.3f}{row['self_s'] / total:>8.1%}")
    lines.append(f"tracing overhead over the count window: "
                 f"{metrics['trace.overhead_s']:.3f} s")
    text = "\n".join(lines) + "\n"
    (out / f"{stem}-layers.txt").write_text(text, encoding="utf-8")
    sys.stderr.write(text)


# ----------------------------------------------------------------------
# Command line
# ----------------------------------------------------------------------


def units() -> Dict[str, str]:
    """Unit of every metric name, end-to-end and per-layer."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {metric["name"]: metric["unit"]
            for metric in declared["end_to_end"] + declared["per_layer"]}


def counts_path(workload: str, seed: int) -> Path:
    """Where a run leaves its count metrics."""
    return HERE / "out" / f"{workload}-seed{seed}-counts.json"


def run_all(seed: int, seconds: float) -> int:
    """Every workload untraced and traced in fresh processes with
    different hash seeds; their count metrics must agree."""
    attempted = failed = 0
    merged: Dict[str, Dict[str, object]] = {}
    print(f"{'workload':<12}{'metric':<32}{'value':>14}  unit")
    for name in WORKLOADS:
        counts = []
        for trace in (0, 1):
            counts_path(name, seed).unlink(missing_ok=True)
            completed = subprocess.run(
                [sys.executable, str(Path(__file__)), "--workload", name,
                 "--seed", str(seed), "--seconds", str(seconds),
                 "--trace", str(trace)],
                cwd=ROOT, env=dict(os.environ, PYTHONHASHSEED=str(trace)),
                capture_output=True, text=True, check=False)
            sys.stderr.write(completed.stderr)
            lines = completed.stdout.strip().splitlines()
            if completed.returncode != 0 or not lines:
                print(f"{name}: trace {trace} run failed")
                return 1
            result = json.loads(lines[-1])
            attempted += result["attempted"]
            failed += result["failed"]
            for metric, entry in result["metrics"].items():
                print(f"{name:<12}{metric:<32}{entry['value']:>14.4f}  "
                      f"{entry['unit']}")
                merged[f"{name}.{metric}"] = entry
            counts.append(json.loads(counts_path(name, seed).read_text()))
        for metric in SPEC["count_metrics"]:
            if counts[0][metric] != counts[1][metric]:
                print(f"{name}: {metric} differs between processes: "
                      f"{counts[0][metric]} != {counts[1][metric]}")
                failed += 1
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": merged}))
    return 0 if failed == 0 else 1


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        sys.stderr.write("perfbench: no SDX sources under src/repro; run it "
                         "from a checkout of the repository\n")
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(ROOT))

    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    result = run_workload(WORKLOADS[args.workload], args.seed,
                          args.seconds, bool(args.trace))
    counts_path(args.workload, args.seed).parent.mkdir(exist_ok=True)
    counts_path(args.workload, args.seed).write_text(
        json.dumps(result.counts, indent=1), encoding="utf-8")
    for problem in result.problems:
        sys.stderr.write(f"check failed: {problem}\n")
    unit = units()
    for name, value in result.metrics.items():
        sys.stderr.write(f"{args.workload:<12}{name:<32}{value:>14.4f}  "
                         f"{unit[name]}\n")
    print(result.line(unit))
    return 0 if result.correct else 1


if __name__ == "__main__":
    sys.exit(main())
