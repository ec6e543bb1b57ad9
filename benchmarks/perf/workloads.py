"""The five workloads: inputs from the seed, set-up, one timed pass, checks.

Every workload drives the program through its public, default-configured
entry points and sees only inputs generated from ``--seed``.  A *pass* is a
fixed amount of work on fresh state (a same-seed agent, a fresh server), so
the passes of one run are identical: their exact outputs must repeat, and
their times are samples of one quantity.
"""

from __future__ import annotations

import hashlib
import json
import time
from collections import deque
from dataclasses import dataclass
from typing import Callable, Dict, List

import numpy as np

from bootstrap import FIXTURE_POLICY
from gauge import slowdown_between
from spans import SpanRecorder

WORKLOAD_WHY = {
    "train-tree": "DT censor, the CLI attack default: statistical feature extraction on growing "
    "prefixes dominates; features/ml/censors do the work, nn and PPO almost none",
    "train-neural": "DF censor is cheap, so the agent's own code shows: env emulator, encoder "
    "step, autograd backward, PPO update; features work must not show here",
    "train-sharded": "train-neural's exact inputs through a forked rollout worker: same digest, "
    "different path (checkpoint broadcast, framed commands, merge); its extra cost is the transport's",
    "serve-saturated": "closed loop, one client, no think time, trained fixture policy: full "
    "batches, compute-bound; capacity of the serving tier",
    "serve-paced": "open loop at 2000 packets/s (about a quarter of capacity), timed from when "
    "each packet was due: queueing-bound, bypasses compute; the Fig. 11 question",
}

# Run and checked like the others, but not among BENCHMARK.json's workloads,
# whose end-to-end metrics must all repeat within a quarter on a shared host.
# Open-loop latency does not: it is queueing, so it neither scales with the
# host's speed (the gauge cannot correct it) nor averages out a stall.  And
# the sharded run is train-neural's work plus a second process.
UNGATED = ("train-sharded", "serve-paced")

# The most delay the policy itself may add to a packet (AmoebaConfig /
# ServeConfig ``max_delay_ms``): a packet served later than this after it
# was due has cost the flow more than shaping is allowed to.
PACKET_LIMIT_MS = 100.0
# The policy under test is configuration, like the checked-in policy the
# serve workloads load: initial weights, encoder pre-training and exploration
# noise come from this fixed seed, so ``--seed`` varies the traffic and the
# censor, not how much the policy truncates (which moved training throughput
# by +-12 % and attack time by 8x between seeds).
AGENT_SEED = 20230905
PACER_POLL_INTERVAL_S = 1e-4
PACER_GRACE_S = 30.0


@dataclass(frozen=True)
class Scale:
    """Input sizes; ``full`` is the benchmark, ``smoke`` the self-test."""

    flows_per_class: int
    max_packets: int
    tree_iterations: int
    neural_iterations: int
    attack_flows: int
    packet_rate: float
    sessions: int
    setup_repeats: int


# A pass is a few seconds at most, so a run repeats it several times and
# best-of-passes (see ``run.steady_metrics``) has something to choose from.
SCALES = {
    "full": Scale(1000, 40, 3, 20, 25, 2000.0, 300, 3),
    "smoke": Scale(60, 16, 2, 2, 8, 2000.0, 80, 1),
}
# Packets per slice of the paced schedule; each slice reports its own median.
PACED_SLICE_PACKETS = 500


def stage_rng(seed: int, stage: int) -> np.random.Generator:
    """Child ``stage`` of ``SeedSequence(seed)``, rebuilt fresh on every call.

    Spawning from a generator advances its seed sequence, so an identical
    pass needs an identical, unshared sequence object.
    """
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(stage,)))


# A percentile is only as good as the samples beyond it (choosing-metrics §1).
MIN_SAMPLES_BEYOND = 10


def percentile(values, q: float) -> float:
    """``q``-th percentile, refused unless >= 10 samples lie beyond it."""
    data = np.asarray(values, dtype=np.float64)
    beyond = data.size * min(q, 100.0 - q) / 100.0
    if beyond < MIN_SAMPLES_BEYOND:
        raise ValueError(
            f"p{q:g} of {data.size} samples has {beyond:.1f} samples beyond it; "
            f"{MIN_SAMPLES_BEYOND} are required"
        )
    return float(np.percentile(data, q))


class Checks:
    """Correctness checks of one run; each check is one attempted operation."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: List[str] = []

    def expect(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)

    def expect_all(self, oks, what: str) -> None:
        """One operation per element of ``oks``; failures named by index."""
        oks = list(oks)
        self.attempted += len(oks)
        self.failures.extend(f"{what} [{i}]" for i, ok in enumerate(oks) if not ok)


@dataclass
class PassOutcome:
    """What one pass measured and produced."""

    main_wall_s: float  # Amoeba.train / run_workload / the pacer
    decisions: int  # env steps (train) or served decisions (serve)
    # ``main_wall_s`` cut where the harness can see a boundary (PPO
    # iterations; one piece for a serve pass).  Piece i is the same work in
    # every pass of a run.
    wall_parts_s: np.ndarray
    # Typical latencies of the pass, index by index the same work in every
    # pass: PPO iterations after the first (train), the median decision
    # (saturated), the median packet of each schedule slice (paced).
    latency_parts_ms: np.ndarray
    latency_samples: int  # raw samples behind ``latency_parts_ms``
    # The host's slowdown while each wall / latency piece ran (see gauge.py);
    # all ones where it was not gauged (traced runs) or does not apply.
    wall_slowdown: np.ndarray
    latency_slowdown: np.ndarray
    exact: Dict[str, object]  # must repeat exactly across the run's passes
    info: Dict[str, float]  # informational and per-layer values of the pass
    timed_s: float  # everything the pass timed, for the trace residual


# --------------------------------------------------------------------------- #
# Training workloads
# --------------------------------------------------------------------------- #
class TrainWorkload:
    """``prepare_experiment_data`` -> ``make_censor().fit`` -> ``Amoeba.train``
    -> ``attack_many`` on held-out censored flows, at library defaults."""

    kind = "train"
    paced = False

    def __init__(self, name: str, seed: int, scale: Scale, checks: Checks, gauge) -> None:
        from repro.core import AmoebaConfig

        self.name = name
        self.seed = seed
        self.scale = scale
        self.checks = checks
        self.gauge = gauge
        tree = name == "train-tree"
        self.dataset = "tor" if tree else "v2ray"
        self.censor_name = "DT" if tree else "DF"
        make_config = AmoebaConfig.for_tor if tree else AmoebaConfig.for_v2ray
        self.config = make_config(n_envs=8, max_episode_steps=2 * scale.max_packets)
        self.iterations = scale.tree_iterations if tree else scale.neural_iterations
        # One worker, not one per core: driver and worker then never run at
        # the same time, so the difference to train-neural is the transport's
        # cost alone, and the run needs one core.  With two workers on the
        # 2-core reference host the run was bimodal (+-25 % with whatever
        # else the host was doing), too unsteady to bound.
        self.workers = 1 if name == "train-sharded" else None
        self.timesteps = self.iterations * self.config.rollout_length * self.config.n_envs
        # Names the generated inputs: equal ids must give equal digests,
        # whichever workload (train-neural / train-sharded) consumed them.
        self.inputs = (
            f"{self.dataset}/{self.censor_name}/{scale.flows_per_class}x{scale.max_packets}"
            f"/iterations{self.iterations}/attack{scale.attack_flows}/seed{seed}"
        )

    def set_up(self, recorder: SpanRecorder) -> None:
        from repro.pipeline import make_censor, prepare_experiment_data

        scale = self.scale
        with recorder.span("flows.synth"):
            self.data = prepare_experiment_data(
                self.dataset,
                n_censored=scale.flows_per_class,
                n_benign=scale.flows_per_class,
                max_packets=scale.max_packets,
                rng=stage_rng(self.seed, 0),
            )
        self.censor = make_censor(self.censor_name, self.data, rng=stage_rng(self.seed, 1))
        with recorder.span("censors.fit"):
            self.censor.fit(self.data.splits.clf_train.flows)
        with recorder.span("core.agent.init"):
            self._new_agent()
        self.train_flows = self.data.splits.attack_train.censored_flows
        self.held_out = self.data.splits.test.censored_flows[: scale.attack_flows]

    def _new_agent(self):
        from repro.core import Amoeba

        return Amoeba(self.censor, self.data.normalizer, self.config, rng=stage_rng(AGENT_SEED, 0))

    def run_pass(self, recorder: SpanRecorder, in_process: bool = False) -> PassOutcome:
        """Train a fresh same-seed agent, then attack the held-out flows.

        ``in_process`` collects without workers whatever the workload says:
        the reference that ``train-sharded`` must reproduce bit for bit.
        """
        workers = None if in_process else self.workers
        clock = time.perf_counter
        self.censor.reset_query_count()
        with recorder.suspended():  # encoder pre-training is set-up, not the pass
            agent = self._new_agent()
        records: List[dict] = []
        ends: List[float] = []  # when each piece of the train call ended ...
        begins: List[float] = []  # ... and when the next began, the gauge between
        gauged: List[float] = []

        def boundary() -> None:
            ends.append(clock())
            if self.gauge is not None:
                gauged.append(self.gauge.sample())
            begins.append(clock())

        def on_iteration(record: dict) -> None:
            records.append(record)
            boundary()

        with recorder.span("core.agent.train"):
            boundary()
            agent.train(
                self.train_flows,
                total_timesteps=self.timesteps,
                callback=on_iteration,
                workers=workers,
            )
            boundary()
        # Callback to callback: collect + GAE + PPO update.  The first piece
        # also holds the engine start-up, the last one only its shutdown.
        wall_parts = np.subtract(ends[1:], begins[:-1])
        train_wall = float(wall_parts.sum())
        slowdown = slowdown_between(gauged) if gauged else np.ones_like(wall_parts)
        train_queries = self.censor.query_count
        with recorder.span("core.agent.attack"):
            attack_start = clock()
            results = agent.attack_many(self.held_out)
            attack_wall = clock() - attack_start

        checks = self.checks
        checks.expect(len(records) == self.iterations, "one training-log record per iteration")
        checks.expect_all(
            (
                all(np.isfinite(r[key]) for key in ("policy_loss", "value_loss", "entropy"))
                for r in records
            ),
            "training-log losses finite",
        )
        checks.expect(
            train_queries >= self.timesteps, "at least one censor query per training step"
        )
        checks.expect(len(results) == len(self.held_out), "one attack result per held-out flow")
        checks.expect_all(
            (
                np.abs(r.adversarial_flow.sizes).sum() >= np.abs(r.original_flow.sizes).sum()
                for r in results
            ),
            "attacked flow carries at least the original payload",
        )

        digest = hashlib.sha256()
        for record in records:
            digest.update(json.dumps(record, sort_keys=True).encode())
        for result in results:
            digest.update(result.adversarial_flow.sizes.tobytes())
            digest.update(result.adversarial_flow.delays.tobytes())
        return PassOutcome(
            main_wall_s=train_wall,
            decisions=self.timesteps,
            wall_parts_s=wall_parts,
            latency_parts_ms=wall_parts[1:-1] * 1000.0,
            latency_samples=len(records) - 1,
            wall_slowdown=slowdown,
            latency_slowdown=slowdown[1:-1],
            exact={
                "digest": digest.hexdigest(),
                "queries": int(self.censor.query_count),
                "train_queries": int(train_queries),
            },
            info={
                "asr": float(np.mean([r.success for r in results])),
                "data_overhead": float(np.mean([r.data_overhead for r in results])),
                "time_overhead": float(np.mean([r.time_overhead for r in results])),
                "train_asr": float(records[-1]["train_asr"]) if records else 0.0,
                # Policy steps, not flows: steps per flow belongs to the policy.
                "attack_steps_per_s": sum(r.n_steps for r in results) / attack_wall,
            },
            timed_s=train_wall + attack_wall,
        )

    def codec_probe_message(self) -> tuple:
        """One real worker reply frame: a shard's collect result."""
        from repro.distrib.shard import ShardRunner
        from repro.utils.rng import collection_seed_tree

        agent = self._new_agent()
        shard = self.config.n_envs // (self.workers or 1)
        runner = ShardRunner(
            agent.actor,
            agent.critic,
            agent.state_encoder,
            self.censor,
            self.data.normalizer,
            self.config,
            self.train_flows,
            collection_seed_tree(stage_rng(self.seed, 2), self.config.n_envs)[:shard],
        )
        return ("result", runner.collect(self.config.rollout_length))


# --------------------------------------------------------------------------- #
# Serving workloads
# --------------------------------------------------------------------------- #
@dataclass
class PacedRun:
    """What the open-loop pacer observed."""

    wall_s: float
    busy_s: float  # time spent inside server calls (the rest is idle spin)
    packet_ms: np.ndarray  # due -> last decision returned; NaN if never served
    queue_ms: np.ndarray  # sum of the packet's decisions' ``latency_ms``
    late_ms: np.ndarray  # how late the pacer submitted vs the schedule
    decisions: list


def pace(server, workload, clock: Callable[[], float] = time.perf_counter) -> PacedRun:
    """Open-loop pacer: submit each packet at its scheduled time.

    One thread plays the proxy's event loop: a packet is submitted the
    moment it is due, ``server.poll()`` runs every 100 µs in between (the
    timeout flushes fire there), and a packet is complete when its last
    (non-truncation) decision comes back from ``take_decisions()``.  The
    schedule never waits for the server, so a stall delays every later
    packet and is charged to them: latency runs from the *due* time.
    """
    events = workload.events
    n = len(events)
    for session_id in workload.flows:
        server.open_session(session_id, protocol=workload.protocols[session_id])
    outstanding: Dict[str, deque] = {session_id: deque() for session_id in workload.flows}
    packet_ms = np.full(n, np.nan)
    queue_ms = np.zeros(n)
    late_ms = np.zeros(n)
    decisions: list = []
    completed = 0
    busy = 0.0

    start = clock()
    due = [start + event.time_ms / 1000.0 for event in events]
    give_up = due[-1] + PACER_GRACE_S
    next_poll = start
    submitted = 0
    while completed < n:
        now = clock()
        if submitted < n and now >= due[submitted]:
            event = events[submitted]
            late_ms[submitted] = (now - due[submitted]) * 1000.0
            outstanding[event.session_id].append(submitted)
            submitted += 1
            server.submit(event.session_id, event.size, event.delay_ms)
            served = server.take_decisions()
        elif now >= next_poll:
            next_poll = now + PACER_POLL_INTERVAL_S
            served = server.poll() and server.take_decisions()
        else:
            continue
        returned = clock()
        busy += returned - now
        if not served:
            if (submitted == n and not server.pending_decisions) or returned > give_up:
                break  # nothing left that could complete a packet
            continue
        decisions.extend(served)
        for decision in served:
            queue = outstanding[decision.session_id]
            packet = queue[0]
            queue_ms[packet] += decision.latency_ms
            if decision.kind != "truncation":
                queue.popleft()
                packet_ms[packet] = (returned - due[packet]) * 1000.0
                completed += 1
    wall = clock() - start
    server.close_all()
    return PacedRun(wall, busy, packet_ms, queue_ms, late_ms, decisions)


class ServeWorkload:
    """The checked-in fixture policy behind ``PolicyServer.from_checkpoint``
    with ``ServeConfig`` defaults, fed the default Tor/HTTPS/V2Ray mix."""

    kind = "serve"

    def __init__(self, name: str, seed: int, scale: Scale, checks: Checks, gauge) -> None:
        self.name = name
        self.seed = seed
        self.scale = scale
        self.checks = checks
        self.paced = name == "serve-paced"
        # Open-loop latency is queueing, not work: it does not scale with the
        # host's speed, so the paced workload is reported as it was timed.
        self.gauge = None if self.paced else gauge
        self.n_sessions = scale.sessions
        self.inputs = (
            f"sessions{self.n_sessions}x{scale.max_packets}/rate{scale.packet_rate:g}/seed{seed}"
        )

    def set_up(self, recorder: SpanRecorder) -> None:
        from repro.serve import SyntheticWorkload

        with recorder.span("flows.workload_gen"):
            self.workload = SyntheticWorkload.generate(
                self.n_sessions,
                arrival_rate_pps=self.scale.packet_rate,
                max_packets=self.scale.max_packets,
                rng=stage_rng(self.seed, 0),
            )
        with recorder.span("serve.checkpoint_load"):
            self._new_server()
        self.payload_bytes = {
            session_id: float(np.abs(flow.sizes).sum())
            for session_id, flow in self.workload.flows.items()
        }

    def _new_server(self):
        from repro.serve import PolicyServer

        return PolicyServer.from_checkpoint(FIXTURE_POLICY)

    def run_pass(self, recorder: SpanRecorder) -> PassOutcome:
        from repro.serve import run_workload

        server = self._new_server()
        workload = self.workload
        info: Dict[str, float] = {}
        slowdown = np.ones(1)
        if self.paced:
            with recorder.span("serve.run"):
                run = pace(server, workload)
            wall, decisions = run.wall_s, run.decisions
            done = ~np.isnan(run.packet_ms)
            self.checks.expect_all(done, "paced packet completed")
            unit_ms = run.packet_ms[done]
            # A packet never served is over the limit too, and infinitely late.
            info["over_limit_share"] = float(
                1.0 - np.count_nonzero(unit_ms <= PACKET_LIMIT_MS) / len(run.packet_ms)
            )
            slices = np.array_split(
                np.where(done, run.packet_ms, np.inf),
                max(1, len(run.packet_ms) // PACED_SLICE_PACKETS),
            )
            latency_parts = np.asarray([np.median(part) for part in slices])
            info["session_wait_ms_p50"] = float(np.median(unit_ms - run.queue_ms[done]))
            info["gen_late_ms_p99"] = float(np.percentile(run.late_ms, 99))
            info["busy_s"] = run.busy_s
            info["busy_share"] = run.busy_s / run.wall_s
        else:
            before = self.gauge.sample() if self.gauge else None
            with recorder.span("serve.run"):
                start = time.perf_counter()
                run_workload(server, workload)
                wall = time.perf_counter() - start
            if self.gauge:
                slowdown = slowdown_between([before, self.gauge.sample()])
            info["busy_s"] = wall  # closed loop: the client never idles
            info["busy_share"] = 1.0
            decisions = server.take_decisions()
            unit_ms = np.asarray([decision.latency_ms for decision in decisions])
            latency_parts = np.asarray([np.median(unit_ms)])
        info["latency_ms_p99"] = percentile(unit_ms, 99)
        decision_ms = np.asarray([decision.latency_ms for decision in decisions])
        info["queue_wait_ms_p50"] = float(np.percentile(decision_ms, 50))
        info["queue_wait_ms_p99"] = float(np.percentile(decision_ms, 99))
        info["decisions_per_packet"] = len(decisions) / workload.n_packets
        info["flushes"] = float(server.stats()["flushes"])

        reports = {report.session_id: report for report in server.reports()}
        self.checks.expect(len(reports) == workload.n_sessions, "every session closed with a report")
        digest = hashlib.sha256()
        served_ok = []
        for session_id in workload.flows:
            report = reports.get(session_id)
            payload = self.payload_bytes[session_id]
            served_ok.append(
                report is not None
                and not report.demoted
                and report.unserved_packets == 0
                and bool(np.isclose(report.payload_bytes, payload, rtol=1e-12, atol=0.0))
                and report.emitted_bytes >= report.payload_bytes
                and report.shaped_flow is not None
            )
            if served_ok[-1]:
                digest.update(session_id.encode())
                digest.update(report.shaped_flow.sizes.tobytes())
                digest.update(report.shaped_flow.delays.tobytes())
        self.checks.expect_all(served_ok, "session served its whole payload")
        return PassOutcome(
            main_wall_s=wall,
            decisions=len(decisions),
            wall_parts_s=np.asarray([wall]),
            latency_parts_ms=latency_parts,
            latency_samples=int(unit_ms.size),
            wall_slowdown=slowdown,
            latency_slowdown=np.broadcast_to(slowdown, latency_parts.shape),
            exact={"digest": digest.hexdigest(), "decisions": len(decisions)},
            info=info,
            timed_s=wall,
        )


def make_workload(name: str, seed: int, scale: Scale, checks: Checks, gauge=None):
    """``gauge``: the run's ``HostGauge``, or None to leave times as timed."""
    if name not in WORKLOAD_WHY:
        raise ValueError(f"unknown workload {name!r}; expected one of {sorted(WORKLOAD_WHY)}")
    if name.startswith("train-"):
        return TrainWorkload(name, seed, scale, checks, gauge)
    return ServeWorkload(name, seed, scale, checks, gauge)
