"""The traced round: per-operation counters and every per-layer metric.

A :class:`Tracer` owns the :class:`ledger.Ledger`, hands array workloads a
fresh ``repro.obs.Profiler`` per operation, reads the public counters at
operation boundaries, and after the window turns spans, counters, worker
profiles and probes into the named per-layer metrics (README.md lists
which end-to-end number each one should move).
"""

from __future__ import annotations

import json
import math
import os
import shutil
import statistics
import time
from typing import Any, Dict, List, Optional

import probes
from ledger import ROOT, Ledger, layer_of
from repro.legate.array import LegateContext
from repro.obs import Profiler
from repro.regions import region_cache_stats
from repro.runtime import Runtime

__all__ = ["Tracer"]


class Tracer:
    """The traced round's bookkeeping around each operation.

    Owns the :class:`ledger.Ledger`, a fresh ``Profiler`` per array
    operation, and the public counters read at operation boundaries.
    Traced and plain operations alternate, one whole input cycle
    (``count_cycle`` operations) at a time, so each side sees every input
    whatever the pool size.  The plain ones run through the same
    interpreter seconds apart, so the tracing overhead (and METG, which
    wants untraced walls) is a difference between neighbours, not between
    two processes in two moods of the machine.
    """

    def __init__(self, wl: Any, out_dir: str):
        self.wl = wl
        self.ledger = Ledger()
        self.ledger.install()
        self.is_service = hasattr(wl, "svc")
        self.profile_dir = os.path.join(out_dir, f"prof-{os.getpid()}") \
            if self.is_service else None
        self.ops: List[Dict[str, float]] = []   # counters per good traced op
        self.good: List[int] = []               # their op ids
        self.plain_wall: List[float] = []       # walls of good untraced ops
        self.plain_sweeps: List[Any] = []       # (run, reference) walls
        self._prev_report: Any = None           # last job the gang ran
        self._contexts: List[Any] = []
        contexts = self._contexts
        plain_init = LegateContext.__init__

        def capturing_init(lg: Any, *args: Any, **kwargs: Any) -> None:
            plain_init(lg, *args, **kwargs)
            contexts.append(lg)

        LegateContext.__init__ = capturing_init

    # -- per operation -------------------------------------------------------

    def before_op(self, op_id: int) -> None:
        self.tracing = (op_id // self.wl.count_cycle) % 2 == 0
        if not self.tracing:
            self.wl.profiler = None
            return
        self._contexts.clear()
        self._cache0 = region_cache_stats()
        if not self.is_service:
            self.wl.profiler = Profiler(enabled=True)
            self._origin = time.perf_counter() \
                - self.wl.profiler.now_us() * 1e-6
        self.ledger.op_id = op_id
        self.ledger.enabled = True

    def after_op(self, t0: float, t1: float, failed: bool) -> None:
        if not self.tracing:
            if not failed:
                self._after_plain_op(t1 - t0)
            return
        led = self.ledger
        led.enabled = False
        led.root(t0, t1)
        if failed:
            return
        self.good.append(led.op_id)
        c: Dict[str, float] = {"wall_s": t1 - t0}
        cache1 = region_cache_stats()
        for k, v in cache1.items():
            c["cache." + k] = v - self._cache0[k]
        if self.is_service:
            self._service_counters(c)
        else:
            led.add_profile(self.wl.profiler.events, self._origin)
            self._array_counters(c)
        self.ops.append(c)

    def _after_plain_op(self, wall_s: float) -> None:
        self.plain_wall.append(wall_s)
        wl = self.wl
        if self.is_service and not wl.report.template_hit:
            self._prev_report = wl.report     # cumulative-counter baseline
        if hasattr(wl, "reference_walls"):
            # NumPy on the same inputs, timed right after the run it is
            # compared with (between operations, outside their timing).
            self.plain_sweeps.append((wl.last_walls, wl.reference_walls()))

    def _array_counters(self, c: Dict[str, float]) -> None:
        def add(key: str, value: float) -> None:
            c[key] = c.get(key, 0) + value

        for rt in self.wl.rts:
            st = rt.pipeline.stats
            for k in ("ops", "traced_ops", "fences", "fences_elided",
                      "coarse_scans", "points", "trace_fallbacks",
                      "scans_saved", "auto_traces"):
                add("core." + k, getattr(st, k))
            add("points_executed", rt.executed_points)
            add("coll_model_rounds", rt.collectives.stats.rounds)
            add("coll_model_messages", rt.collectives.stats.messages)
            add("det_checks", rt.monitor.checks_performed + rt.dist_checks)
            for rep in rt.replica_reports:
                add("det_checks", rep["checks"])
                add("remote_calls", rep["calls"])
                add("remote_frames", rep["frames_sent"])
            for prof in rt.replica_profiles:
                begin = None
                for ev in prof["events"]:
                    if ev["cat"] == "collective" and ev["ph"] == "X":
                        add("coll_rounds", ev["args"]["rounds"])
                        add("coll_messages", ev["args"]["msgs_total"])
                    elif ev["name"] == "control.replay":
                        if ev["ph"] == "B":
                            begin = ev["ts"]
                        elif begin is not None:
                            c["worker_wall_s"] = max(
                                c.get("worker_wall_s", 0.0),
                                (ev["ts"] - begin) * 1e-6)
        if self._contexts:
            fm = self._contexts[0].fields     # the driver shard's manager
            c["fields_created"] = fm.created
            c["fields_reused"] = fm.reused

    def _service_counters(self, c: Dict[str, float]) -> None:
        r, prev = self.wl.report, self._prev_report
        if r.template_hit:
            return                    # served driver-side: no gang work
        c["worker_wall_s"] = max(s.wall_s for s in r.shards)
        c["core.ops"] = r.ops_analyzed
        c["core.points"] = r.total_points
        c["core.fences"] = r.fences
        c["core.fences_elided"] = r.fences_elided
        c["det_checks"] = sum(s.checks for s in r.shards)
        c["remote_calls"] = sum(s.call_count for s in r.shards)
        if prev is not None:
            # Worker transports and collectives persist across jobs, so
            # their counters are cumulative: one job is the difference.
            frames = barriers = 0
            for s, p in zip(r.shards, prev.shards):
                frames += s.frames_sent - p.frames_sent
                barriers += (s.collectives.get("barrier", 0)
                             - p.collectives.get("barrier", 0))
            s0, p0 = r.shards[0], prev.shards[0]
            c["remote_frames"] = frames
            c["barrier_ops"] = barriers
            c["coll_rounds"] = s0.coll_rounds - p0.coll_rounds
            c["coll_messages"] = s0.coll_messages - p0.coll_messages
        self._prev_report = r

    def note_warmup(self) -> None:
        """Baselines taken after the warm-up operation, before the window."""
        if self.is_service:
            if not self.wl.report.template_hit:
                self._prev_report = self.wl.report
            self._tpl0 = self.wl.svc.templates.stats()

    # -- after the window ----------------------------------------------------

    def metrics(self, leaked_children: int,
                leaked_shm: int) -> Dict[str, Optional[float]]:
        """Every named per-layer metric; None where the layer did not run."""
        wl, ops = self.wl, self.ops
        n = len(ops)
        tot = self.ledger.totals(self.good)
        wall = sum(c["wall_s"] for c in ops)
        cycle = ops[:wl.count_cycle]

        def total(key: str) -> float:
            return sum(c.get(key, 0) for c in ops)

        def exact(key: str) -> Optional[float]:
            """Per-operation count over one full input cycle: repeats
            exactly from run to run, however many operations fit."""
            return sum(c.get(key, 0) for c in cycle) / len(cycle) \
                if cycle else None

        def span(name: str, field: str) -> float:
            return tot.get(name, {}).get(field, 0)

        def ratio(num: float, den: float, scale: float = 1.0
                  ) -> Optional[float]:
            return num / den * scale if den else None

        def span_ms_per_op(name: str) -> Optional[float]:
            return ratio(span(name, "total_s"), n, 1e3) \
                if span(name, "calls") else None

        m: Dict[str, Optional[float]] = {}

        # legate
        array_ops = span("legate.array_op", "calls") - tot.get(
            "legate.array_op", {}).get("parents", {}).get(
            "legate.array_op", 0)
        m["legate.from_values_ms"] = span_ms_per_op("legate.from_values")
        m["legate.to_numpy_ms"] = span_ms_per_op("legate.to_numpy")
        m["legate.array_op_us"] = ratio(
            span("legate.array_op", "self_s"), array_ops, 1e6)
        m["legate.launches_per_array_op"] = ratio(
            tot.get("runtime.launch", {}).get("parents", {}).get(
                "legate.array_op", 0), array_ops)
        created, reused = total("fields_created"), total("fields_reused")
        m["legate.fields_created"] = exact("fields_created") \
            if array_ops else None
        m["legate.field_reuse_ratio"] = ratio(reused, created + reused)

        # runtime
        kernel_s = span("runtime.exec_point", "total_s")
        m["runtime.launch_us"] = ratio(span("runtime.launch", "self_s"),
                                       span("runtime.launch", "calls"), 1e6)
        m["runtime.get_value_us"] = ratio(
            span("runtime.get_value", "total_s"),
            span("runtime.get_value", "calls"), 1e6)
        m["runtime.exec_point_us"] = ratio(
            kernel_s, span("runtime.exec_point", "calls"), 1e6)
        m["runtime.kernel_ms"] = ratio(kernel_s, n, 1e3) \
            if not self.is_service else None
        m["runtime.kernel_share"] = ratio(kernel_s, wall) \
            if not self.is_service else None
        m["runtime.points_executed"] = exact("points_executed") \
            if not self.is_service else None
        m["runtime.empty_run_ms"] = self._empty_run_ms
        for key in ("metg_us", "metg_reached", "peak_efficiency"):
            m["runtime." + key] = None
        if self.plain_sweeps:
            m.update(wl.metg(self.plain_sweeps))

        # core: timings from the wrappers when analysis ran in this
        # process, from worker 0's profile when it ran on the gang
        remote = self._worker_profile() if self.is_service else {}
        # the profile covers every timed job, traced or plain
        share = n / remote["jobs"] if remote.get("jobs") else 0.0
        ops_analyzed = total("core.ops")
        points_analyzed = total("core.points")
        if remote.get("analyze_n"):
            m["core.analyze_us_per_op"] = ratio(
                remote["analyze_s"], remote["analyze_n"], 1e6)
            m["core.coarse_us_per_op"] = ratio(
                remote["coarse_s"], remote["analyze_n"], 1e6)
            m["core.fine_us_per_point"] = ratio(
                remote["fine_s"], remote["points"], 1e6)
        else:
            m["core.analyze_us_per_op"] = ratio(
                span("core.analyze", "total_s"),
                span("core.analyze", "calls"), 1e6)
            m["core.coarse_us_per_op"] = ratio(
                span("core.coarse", "total_s"), ops_analyzed, 1e6)
            m["core.fine_us_per_point"] = ratio(
                span("core.fine", "total_s"), points_analyzed, 1e6)
        m["core.ops_analyzed"] = exact("core.ops")
        m["core.points_analyzed"] = exact("core.points")
        m["core.fences"] = exact("core.fences")
        m["core.fences_elided"] = exact("core.fences_elided")
        m["core.coarse_scans"] = exact("core.coarse_scans") \
            if not self.is_service else None
        m["core.trace_replayed_ratio"] = ratio(total("core.traced_ops"),
                                               ops_analyzed)
        m["core.trace_fallbacks"] = exact("core.trace_fallbacks")
        m["core.auto_traces"] = exact("core.auto_traces")
        m["core.scans_saved"] = exact("core.scans_saved")

        # core.determinism + core.collectives
        records = span("core.determinism.record", "calls")
        m["core.determinism_record_us"] = ratio(
            span("core.determinism.record", "total_s"), records, 1e6)
        m["core.determinism_calls"] = ratio(
            records + total("remote_calls"), n)
        m["core.determinism_checks"] = ratio(total("det_checks"), n)
        check_s = span("core.determinism.check", "total_s") \
            + remote.get("check_s", 0.0) * share
        m["core.determinism_check_ms"] = ratio(check_s, n, 1e3)
        m["core.determinism_payload_us_per_kelem"] = \
            probes.determinism_payload_us_per_kelem()
        m["core.collective_rounds"] = exact("coll_model_rounds") \
            if not self.is_service else None
        m["core.collective_messages"] = exact("coll_model_messages") \
            if not self.is_service else None

        # regions / oracle
        m["regions.alias_hit_ratio"] = ratio(
            total("cache.alias_hits"),
            total("cache.alias_hits") + total("cache.alias_misses"))
        m["regions.contains_hit_ratio"] = ratio(
            total("cache.contains_hits"),
            total("cache.contains_hits") + total("cache.contains_misses"))

        # dist.transport, dist.collectives, dist.monitor
        fabric = wl.backend != "inprocess"
        frames = span("dist.transport.send", "calls") \
            + total("remote_frames")
        m["dist.frames_sent"] = frames if fabric else None
        m["dist.frames_per_run"] = ratio(frames, n) if fabric else None
        last = self._prev_report
        m["dist.duplicates_dropped"] = max(
            s.duplicates_dropped for s in last.shards) if last else \
            (0 if fabric else None)
        m["dist.out_of_order"] = max(
            s.out_of_order for s in last.shards) if last else \
            (0 if fabric else None)
        m["dist.coll_rounds"] = exact("coll_rounds") if fabric else None
        m["dist.coll_messages"] = exact("coll_messages") if fabric else None
        hops = max(1, math.ceil(math.log2(max(2, wl.shards))))
        monitor_frames = total("remote_frames") \
            - total("barrier_ops") * hops
        m["dist.monitor_frames_per_call"] = ratio(
            monitor_frames, total("remote_calls")) if fabric else None
        probe = probes.fabric_probe(wl.backend, wl.shards) if fabric else {}
        for key in ("rtt_us_small", "mb_per_s_large", "barrier_us",
                    "allreduce_us"):
            m["dist." + key] = probe.get(key)

        # dist.runner / service.gang
        remote_wall = total("worker_wall_s")
        m["dist.worker_wall_ms"] = ratio(remote_wall, n, 1e3) \
            if remote_wall else None
        if self.is_service:
            m["dist.driver_wait_ms"] = ratio(wall - remote_wall, n, 1e3) \
                if remote_wall else None
        else:
            m["dist.driver_wait_ms"] = ratio(
                span("dist.transport.recv", "total_s"), n, 1e3) \
                if fabric else None
        m["dist.leaked_children"] = leaked_children
        m["dist.leaked_shm_segments"] = leaked_shm

        # service
        for key in ("template_hit_ratio", "template_lookup_us",
                    "template_patch_us", "template_record_us",
                    "template_evictions", "dispatch_us", "jobs_rejected",
                    "jobs_expired"):
            m["service." + key] = None
        if self.is_service:
            tpl1, tpl0 = self._tpl1, self._tpl0
            hits = tpl1["hits"] - tpl0["hits"]
            misses = tpl1["misses"] - tpl0["misses"]
            m["service.template_hit_ratio"] = ratio(hits, hits + misses)
            m["service.template_evictions"] = ratio(
                tpl1["evictions"] - tpl0["evictions"],
                n + len(self.plain_wall))
            for key, name in (("lookup", "service.template.lookup"),
                              ("patch", "service.template.patch"),
                              ("record", "service.template.record")):
                m[f"service.template_{key}_us"] = ratio(
                    span(name, "total_s"), span(name, "calls"), 1e6)
            submit = self.ledger.starts("service.submit", self.good)
            lookup = self.ledger.starts("service.template.lookup",
                                        self.good)
            gaps = [lookup[o] - submit[o] for o in submit if o in lookup]
            m["service.dispatch_us"] = ratio(sum(gaps), len(gaps), 1e6)
            m["service.jobs_rejected"] = self._svc_stats["rejected"]
            m["service.jobs_expired"] = self._svc_stats["expired"]

        # the ledger itself: self time per layer and what no span covers
        by_layer: Dict[str, float] = {}
        for name, agg in tot.items():
            if name != ROOT:
                layer = layer_of(name)
                by_layer[layer] = by_layer.get(layer, 0.0) + agg["self_s"]
        if remote.get("analyze_n"):
            # The driver only sees itself waiting in ServiceGang.run_job.
            # Worker 0's profile says what the gang did meanwhile: analysis,
            # collectives (mostly waiting for the peer) and digest checks.
            # What is left of run_job is hand-off and worker plumbing.
            inside = {"core": remote["analyze_s"] * share,
                      "dist.collectives": remote["collective_s"] * share,
                      "core.determinism": max(
                          0.0, remote["check_s"] - remote["allreduce_s"])
                      * share}
            for layer, seconds in inside.items():
                by_layer[layer] = by_layer.get(layer, 0.0) + seconds
            by_layer["dist.runner"] = max(
                0.0, by_layer.get("dist.runner", 0.0) - sum(inside.values()))
        for layer in ("legate", "runtime", "kernel", "core",
                      "core.determinism", "dist.transport",
                      "dist.collectives", "dist.runner", "service"):
            m[f"ledger.{layer.replace('.', '_')}_self_ms"] = ratio(
                by_layer.get(layer, 0.0), n, 1e3)
        m["obs.unattributed_frac"] = ratio(
            wall - sum(by_layer.values()), wall)
        if ops and self.plain_wall:
            traced_p50 = statistics.median(c["wall_s"] for c in ops)
            plain_p50 = statistics.median(self.plain_wall)
            m["obs.trace_overhead_frac"] = (traced_p50 - plain_p50) \
                / plain_p50
        else:
            m["obs.trace_overhead_frac"] = None
        return m

    def before_teardown(self) -> None:
        """What needs the service still up: its counters, then the
        empty-run probe (an empty control program on this backend and
        width), in that order because the probe adds lookups of its own."""
        wl = self.wl
        if self.is_service:
            self._tpl1 = wl.svc.templates.stats()
            self._svc_stats = wl.svc.stats()
            self._empty_run_ms = probes.median_ms(wl.empty_job, 5)
            return

        def empty() -> None:
            Runtime(backend=wl.backend, num_shards=wl.shards,
                    auto_trace=wl.auto_trace).execute(lambda ctx: None)

        self._empty_run_ms = probes.median_ms(empty, 5)

    def _worker_profile(self) -> Dict[str, float]:
        """Analysis time inside the timed session's jobs on worker 0.

        The gang's workers write ``shard<k>.profile.json`` at shutdown;
        their ``service.job.dispatch`` spans carry the session name, which
        separates timed jobs from set-up jobs.
        """
        path = os.path.join(self.profile_dir, "shard0.profile.json")
        try:
            with open(path) as f:
                events = json.load(f)["events"]
        except OSError:
            return {}
        finally:
            # megabytes per round; the spans file is what is kept
            shutil.rmtree(self.profile_dir, ignore_errors=True)
        windows = sorted(
            (e["ts"], e["ts"] + e["dur"]) for e in events
            if e["name"] == "service.job.dispatch" and e["ph"] == "X"
            and e.get("args", {}).get("session") == "timed")
        # the warm-up job also ran in the timed session: drop it
        windows = windows[1:]
        out = {"jobs": len(windows), "analyze_s": 0.0, "analyze_n": 0,
               "coarse_s": 0.0, "fine_s": 0.0, "points": 0, "check_s": 0.0,
               "collective_s": 0.0, "allreduce_s": 0.0}
        if not windows:
            return out
        lo, hi = windows[0][0], windows[-1][1]
        for e in events:
            if e["ph"] != "X" or not lo <= e["ts"] <= hi:
                continue
            dur = e["dur"] * 1e-6
            if e["name"] in ("op.analyze", "trace.replay"):
                out["analyze_s"] += dur
                out["analyze_n"] += 1
                out["points"] += e["args"]["points"]
            elif e["name"] == "coarse.group" and e["shard"] == 0:
                out["coarse_s"] += dur
            elif e["name"] == "fine.points":
                out["fine_s"] += dur
            elif e["name"] == "determinism.check":
                out["check_s"] += dur
            elif e["cat"] == "collective":
                out["collective_s"] += dur
                if e["name"].startswith("allreduce"):
                    out["allreduce_s"] += dur
        return out
