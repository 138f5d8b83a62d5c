"""Structure guards: mechanisms that exist once stay that way.

* ``repro/dist/gang.py`` is the only rank launcher.  Before it existed
  the same gang was spawned by six hand-copied paths (runtime × runner ×
  service, each for threads and for forks) that drifted apart; the first
  test walks ``src/repro`` and fails if a process start method, a
  ``Process(...)`` or a new ``Thread(...)`` launch shows up anywhere else.
* ``repro/core/collectives.py`` is the only place a communication
  schedule is written and ``repro/core/determinism.py`` holds the only
  determinism monitor.  Both once had a hand-mirrored twin under
  ``repro/dist`` (and a fourth fabric beside them); the remaining tests
  fail if partner arithmetic, a second ``maybe_check`` or the
  ``"multiprocess"`` backend grows back.
* ``repro/core/epochs.py`` is the only epoch index.  The coarse and the
  fine stage each used to carry a full copy (class interning, decision
  memo, buckets, retirement), stamped with order-maintenance labels no
  decision ever read; the next tests fail if a second index, the labeler
  or a ``clock`` under the fine stage grows back.
* ``repro/core/tracing.py`` holds one way to record a fragment, one replay
  cursor, one repeat detector and one identify/record/replay policy, which
  the pipeline and the cost model both drive.  The policy used to be
  written three times (and the copies disagreed), recordings were built
  two ways, and a rolling hash sat in front of comparisons that decided
  everything anyway; the last tests fail if any of that grows back — or
  if a replay starts re-deriving point tasks, building the pipeline's
  records, or reaching the epochs from anywhere but ``settle``.
* The determinism hash depends only on the program.  ``Context`` once
  hashed process-global field ids, so the same program hashed differently
  after unrelated work in the process, and a counter rewind
  (``fresh_id_epoch``) papered over it; the window was also sized by two
  knobs (``coalesce`` × ``batch``).  The next tests fail if either
  workaround or a hashed ``.fid`` comes back.
* Recovery keeps only what recovers.  RESTART once deep-copied the store
  (and could mirror it to disk) to restore a replica that performs no
  effects, REJOIN labelled a resync source nothing read, and a simulator
  fault clock ran under no model; the next tests fail if any of that, or
  a transport ``retry`` knob, grows back.
* A dead serving gang heals one way, by rebuilding.  REJOIN respawned the
  culprit rank into the live gang and re-endpointed the survivors through
  per-rank fabric claims and gang generations, reaching the same width
  and digests as a RESTART rebuild no faster; the rejoin test fails if
  any of it grows back.
* The wire carries control frames.  No frame the system sends holds an
  ndarray, yet the shm ring once decoded large arrays as views that
  pinned their slots until garbage collection (weakref reaping under a
  re-entrant lock), frames had a second encoder and decoder, a multi-host
  rendezvous sat beside a launcher that never called it, LOCALIZE was a
  switch, and service fault plans crossed to the workers through a
  hand-written codec that dropped three kinds of fault; the next test
  fails if any of that grows back.
* A fault fires only where a caller planned it.  Six ``REPRO_FAULT_*``
  environment variables once configured faults and recovery inside every
  ``Runtime`` (and made the gang backends refuse to start when a policy
  was exported), seeded per-site rates drew faults nobody planned, and the
  in-process collectives simulated message loss, retransmission and
  backoff that no transport implements; the last test fails if an
  environment read, any of those names, or a ``repro.faults`` import in
  the collectives grows back.
* One recovery plane, and it is the service's.  ``Runtime`` once carried a
  second one, on its in-process backend only: DEGRADE quarantined a shard,
  remapped sharding around it and re-elected the driver, RESTART re-ran a
  crashed replica in place, and the monitor, the deferred-op manager and
  the sharding functions grew hooks for them.  A run now detects and
  localizes, a serving gang heals by rebuilding; the last test fails if a
  quarantine, a shard reset or a movable driver grows back under the
  runtime or the core, or if the runtime imports the recovery policies.
* Analysis state belongs to the stage that uses it.  The coarse and fine
  class tables once lived at module scope, shared by every pipeline in the
  process (rank threads included, which raced ``intern`` into wrong class
  ids), bounded by a generation protocol and reset through a process-wide
  clearer registry, and they kept every finished program's regions alive.
  The last tests fail if a module-level table, the generation protocol or
  the registry grows back, or if a process-wide memo appears under the
  core, the regions or the oracle without a listed reason.
* One front door.  ``repro/runtime/frontdoor.py`` lowers every ``reqs``
  spec and makes every call-time check, and the rule that the points of
  one launch are pairwise independent is written once, as
  ``core/semantics.py``'s ``group_interference``.  The rule used to be
  written three times (the runtime's group check, ``TaskGroup.validate``
  and a post-hoc loop in ``spy``), the privilege parser twice, and
  ``runtime/nested.py`` lowered child launches a second way, outside the
  checks and the pipeline; the last tests fail if any of that grows back.
* One liveness rule, one job driver.  A serving gang reads each rank's
  result off the rank's channel under one silence budget.  It once also
  ran a heartbeat plane (a ticker thread per worker, a driver pump
  polling every channel into mailboxes, a phi monitor), and a second
  one-shot driver (``DistRunner``) sat beside the one-job serving gang;
  the next test fails if any of that grows back.
* One wait and one death signal.  Every fabric's receive blocks until a
  frame, the peer's end-of-stream or the deadline.  The shm fabric once
  slept 0.2 ms per empty look at its ring and found dead peers through a
  shared-memory status board of pids read from ``/proc``, and a
  geometric poll backoff sat above all three fabrics; the next test
  fails if any of that grows back.
* One socket transport for both process fabrics.  The shm fabric once
  copied every frame into a single-producer ring in
  ``multiprocessing.shared_memory`` per directed channel, sized by a
  ``ring_bytes`` knob that ``fabric_for_backend`` and ``Gang`` forwarded
  as ``**kwargs``, and rang a socket pair per rank pair as its doorbell
  — two hand-offs per frame where the socket pair alone delivers it,
  faster for every frame the wire carries.  The next test fails if the
  ring, its knob, its part-wise encoder or a forwarded ``**kwargs``
  grows back.
* Every ``src`` module has a consumer outside its own package's
  ``__init__``: another ``src`` module, ``benchmarks/`` or
  ``examples/``.  The modules only tests use are listed, each with the
  ROADMAP item that retires it or the reason it stays (a CLI, the fuzz
  tier), so adding one is deliberate; the consumer test fails on an
  unlisted one or a stale entry.
* A resource is named by how the program built it.  The hasher once
  numbered every object by first use and held each one so that CPython
  could not reuse a freed id, ``fence_sequence`` renumbered region uids
  and field fids by first appearance, finalizer deletions were agreed on
  under uids, and a task was keyed by its source line, so adding a
  docstring line moved every pinned digest; the last test fails if any
  of that grows back.
* Every shard builds its own handles.  Replicas once took the driver's
  regions, partitions, field spaces and futures from two creation-order
  logs through ``Context._intern_resource``, so a replica read objects the
  driver had already changed: field spaces kept every ``declared`` field
  and the front door its own ``_deleted`` set, futures were resolved in
  place, and the timing oracle asked ``runtime._current_shard``, which
  loopback's replica threads raced on, so loopback refused an oracle.
  The handle-ownership test fails if any of that grows back.
* A repeated array op is lowered from one memo.  Every operand of every
  array op once rebuilt a 7-tuple of its view's fields to key a
  key-partition table, beside a tiling and a domain table; the op memo,
  keyed by the launch site and the operands' (block, view) identities,
  subsumed all three, and the last test fails if they grow back.
"""

import ast
import pathlib
import re

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "repro"
LAUNCHER = "dist/gang.py"

#: Threads that are not ranks of a gang, by (file, target): the service's
#: job scheduler and the load generator's client threads.
HELPER_THREADS = {
    ("service/service.py", "_dispatch_loop"),
    ("service/loadgen.py", "client"),
}


def _callee(node: ast.Call) -> str:
    func = node.func
    return func.attr if isinstance(func, ast.Attribute) else \
        getattr(func, "id", "")


def _thread_target(node: ast.Call) -> str:
    for kw in node.keywords:
        if kw.arg == "target":
            value = kw.value
            return value.attr if isinstance(value, ast.Attribute) else \
                getattr(value, "id", "<expr>")
    return "<none>"


def test_ranks_are_launched_in_one_module_only():
    offenders = []
    launcher_sites = set()
    helpers_seen = set()
    for path in sorted(SRC.rglob("*.py")):
        rel = path.relative_to(SRC).as_posix()
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(node, ast.Call):
                continue
            name = _callee(node)
            if name not in ("get_context", "Process", "Thread"):
                continue
            if rel == LAUNCHER:
                launcher_sites.add(name)
            elif name == "Thread" and \
                    (rel, _thread_target(node)) in HELPER_THREADS:
                helpers_seen.add((rel, _thread_target(node)))
            else:
                offenders.append(f"{rel}:{node.lineno}: {name}(...)")
    assert not offenders, (
        "rank launches outside repro/dist/gang.py — start ranks through "
        "Gang.spawn (or, for a genuinely non-rank helper thread, add it to "
        "HELPER_THREADS with a reason):\n  " + "\n  ".join(offenders))
    # The guard is looking at the right things: the launcher has all three.
    assert launcher_sites == {"get_context", "Process", "Thread"}
    stale = sorted(HELPER_THREADS - helpers_seen)
    assert not stale, f"HELPER_THREADS lists threads that are gone: {stale}"


# -- one schedule, one monitor, three fabrics --------------------------------

SCHEDULES = "core/collectives.py"

#: Everything that talks to a transport or a collectives object — where a
#: hand-written schedule would reappear.
SCHEDULE_CONSUMERS = ("dist/", "service/", "runtime/", "core/determinism.py")


def _trees(prefixes):
    for path in sorted(SRC.rglob("*.py")):
        rel = path.relative_to(SRC).as_posix()
        if rel.startswith(tuple(prefixes)):
            yield rel, ast.parse(path.read_text(), str(path))


def _has_binop(node: ast.AST, op: type) -> bool:
    return any(isinstance(n, ast.BinOp) and isinstance(n.op, op)
               for n in ast.walk(node))


def _moves_messages(loop: ast.AST) -> bool:
    return any(isinstance(n, ast.Call) and _callee(n) in ("send", "recv")
               for n in ast.walk(loop))


def test_exactly_one_class_defines_maybe_check():
    owners = [f"{rel}:{cls.name}"
              for rel, tree in _trees(("",))
              for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
              for fn in cls.body
              if isinstance(fn, ast.FunctionDef) and fn.name == "maybe_check"]
    assert owners == ["core/determinism.py:DeterminismMonitor"], (
        "the determinism window protocol lives in one class, parameterised "
        f"by the collectives it is handed — found {owners}")


def test_partner_arithmetic_lives_in_the_schedule_module_only():
    offenders = []
    for rel, tree in _trees(SCHEDULE_CONSUMERS):
        for node in ast.walk(tree):
            if isinstance(node, ast.BinOp) and isinstance(node.op,
                                                          ast.BitXor):
                offenders.append(f"{rel}:{node.lineno}: butterfly partner "
                                 f"(a ^ b)")
            elif isinstance(node, (ast.For, ast.While)) and \
                    _moves_messages(node) and _has_binop(node, ast.Mod):
                offenders.append(f"{rel}:{node.lineno}: ring offset (% n) "
                                 f"inside a send/recv loop")
    assert not offenders, (
        "communication schedules are generated in repro/core/collectives.py "
        "and executed, not re-derived:\n  " + "\n  ".join(offenders))
    # The guard is looking at the right things: the generators have both.
    (_, generators), = _trees((SCHEDULES,))
    assert _has_binop(generators, ast.BitXor)
    assert _has_binop(generators, ast.Mod)


def test_rank_executor_only_walks_generated_schedules():
    (_, tree), = _trees(("dist/collectives.py",))
    loops = [n for n in ast.walk(tree) if isinstance(n, (ast.For, ast.While))]
    assert loops, "the rank-local executor walks its schedule"
    for loop in loops:
        assert isinstance(loop, ast.For), \
            f"dist/collectives.py:{loop.lineno}: while-loop in the executor"
        callees = {_callee(n) for n in ast.walk(loop.iter)
                   if isinstance(n, ast.Call)}
        assert callees & {"schedule", "rank_schedule"}, (
            f"dist/collectives.py:{loop.lineno}: loop over something other "
            f"than a generated schedule")


def test_the_pipe_mesh_backend_is_gone():
    from repro.dist.transport import PROCESS_BACKENDS
    assert "multiprocess" not in PROCESS_BACKENDS
    assert not (SRC / "dist" / "monitor.py").exists()


# -- one epoch index, no order-maintenance labels -----------------------------

EPOCHS = "core/epochs.py"


def _classes_defining(*methods):
    return [f"{rel}:{cls.name}"
            for rel, tree in _trees(("core/",))
            for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
            if set(methods) <= {fn.name for fn in cls.body
                                if isinstance(fn, ast.FunctionDef)}]


def test_exactly_one_epoch_index():
    assert _classes_defining("retire_contained") == [f"{EPOCHS}:Epoch"], (
        "the bucketed epoch (add/match/retire) lives once, under both "
        "analysis stages")
    assert _classes_defining("intern", "decide") == \
        [f"{EPOCHS}:ClassTable"], (
        "requirement classes are interned and decided in one table class, "
        "instantiated per stage with its own key and decision function")


def test_no_order_maintenance_labels():
    offenders = []
    for rel, tree in _trees(("",)):
        for node in ast.walk(tree):
            # Name.id, Attribute.attr, ClassDef/FunctionDef/alias.name
            names = {getattr(node, slot, None)
                     for slot in ("id", "attr", "name")}
            if isinstance(node, ast.Attribute) and node.attr == "label":
                offenders.append(f"{rel}:{node.lineno}: .label")
            for name in names & {"OMLabeler", "OMNode", "era_node"}:
                offenders.append(f"{rel}:{node.lineno}: {name}")
    assert not offenders, (
        "program order is append-only: order questions are answered from "
        "dense ranks and insertion counters, never from labels:\n  "
        + "\n  ".join(offenders))
    assert not (SRC / "core" / "om.py").exists()


def test_fine_stage_takes_no_clock():
    import inspect

    from repro.core.fine import FineAnalysis
    assert "clock" not in inspect.signature(FineAnalysis.__init__).parameters


# -- one record path, one replay cursor, one tracing policy -------------------

TRACING = "core/tracing.py"


def _names(node: ast.AST):
    """Every identifier an AST node spells: Name.id, Attribute.attr,
    def/class/alias .name, and parameter/keyword .arg."""
    return {getattr(node, slot) for slot in ("id", "attr", "name", "arg")
            if isinstance(getattr(node, slot, None), str)}


def test_the_rolling_hash_and_payload_round_trips_stay_deleted():
    gone = {"rolling_hash", "_window_hash", "_HASH_MOD", "_sig_intern",
            "from_payload", "template_key"}
    offenders = [f"{rel}:{node.lineno}: {name}"
                 for rel, tree in _trees(("",))
                 for node in ast.walk(tree)
                 for name in sorted(_names(node) & gone)]
    assert not offenders, (
        "every detector hit is confirmed by a slice compare, templates are "
        "keyed by their shape, reports and specs cross channels as "
        "objects:\n  " + "\n  ".join(offenders))


def test_trace_cache_has_one_way_to_record():
    (_, tree), = _trees((TRACING,))
    cache, = [n for n in tree.body
              if isinstance(n, ast.ClassDef) and n.name == "TraceCache"]
    spelled = set().union(*(_names(n) for n in ast.walk(cache)))
    assert "record" in spelled and "match" in spelled
    assert not spelled & {"observe", "RECORDING"}, (
        "recordings are cut from already-analyzed records by "
        "TraceCache.record; there is no per-op recording mode")


def test_tracing_never_reaches_into_the_pipeline():
    (_, tree), = _trees((TRACING,))
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.Lambda)):
            args = node.args
            params = {a.arg for a in args.posonlyargs + args.args
                      + args.kwonlyargs}
            assert "pipe" not in params, (
                f"{TRACING}:{node.lineno}: the tracer works over "
                f"(cache, signature), not a pipeline")
        if isinstance(node, ast.ImportFrom):
            assert not (node.module or "").endswith("pipeline"), (
                f"{TRACING}:{node.lineno}: a replay hands its products to "
                f"the pipeline, which builds its own record from them")
        if isinstance(node, ast.Import):
            assert not any(a.name.endswith("pipeline") for a in node.names)


def test_replays_are_folded_into_the_epochs_in_one_place():
    """``register_replayed`` is how a replayed op reaches the epochs;
    ``DCRPipeline.settle`` calls it for the ops a run's carry does not
    cover, and nothing else folds replays."""
    callers = [f"{rel}:{fn.name}"
               for rel, tree in _trees(("",))
               for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)
               for node in ast.walk(fn)
               if isinstance(node, ast.Call)
               and _callee(node) == "register_replayed"]
    assert set(callers) == {"core/pipeline.py:settle"}, callers


def test_replayed_tasks_come_from_the_recorded_ones():
    """The signature a replay matched pins every point's shard and
    requirements: the cache re-derives neither, and builds the occurrence's
    tasks from the recorded ones with ``PointTask.launch``."""
    (_, tree), = _trees((TRACING,))
    cache, = [n for n in tree.body
              if isinstance(n, ast.ClassDef) and n.name == "TraceCache"]
    called = {_callee(n) for n in ast.walk(cache) if isinstance(n, ast.Call)}
    assert any(isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute)
               and n.func.attr == "launch"
               and getattr(n.func.value, "id", "") == "PointTask"
               for n in ast.walk(cache))
    assert not called & {"shard_of", "point_requirements", "points"}, called


def test_tracing_keeps_no_module_level_mutable_state():
    """A process-global signature table outlived every pipeline that fed
    it (signatures carry one run's region uids, so nothing was re-hit)."""
    (_, tree), = _trees((TRACING,))
    mutable = (ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp,
               ast.SetComp, ast.Call)
    offenders = []
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)) \
                and isinstance(node.value, mutable):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            offenders += [f"{TRACING}:{node.lineno}: {t.id}"
                          for t in targets
                          if isinstance(t, ast.Name) and t.id != "__all__"]
    assert not offenders, offenders


def test_one_fallback_site_per_driver():
    """The pipeline and the cost model each drive the cursor under their
    own ``except TraceMismatch``; nothing else catches it."""
    owners = []
    for rel, tree in _trees(("",)):
        for fn in ast.walk(tree):
            if not isinstance(fn, ast.FunctionDef):
                continue
            if any(isinstance(h, ast.ExceptHandler) and h.type is not None
                   and "TraceMismatch" in _names(h.type)
                   for h in ast.walk(fn)):
                owners.append(f"{rel}:{fn.name}")
    assert owners == ["core/pipeline.py:analyze",
                      "core/tracing.py:auto_replay_flags"], owners


def test_templates_share_no_machinery_with_the_tracer():
    (_, tree), = _trees(("service/templates.py",))
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            assert not (node.module or "").endswith("tracing"), (
                f"service/templates.py:{node.lineno}: templates are keyed "
                f"by structural_signature itself")
        if isinstance(node, ast.Import):
            assert not any(a.name.endswith("tracing") for a in node.names)


# -- a determinism hash of the program alone, one window knob -----------------


def test_no_id_rewind_and_no_second_window_knob():
    gone = {"fresh_id_epoch", "coalesce", "check_coalesce"}
    offenders = [f"{rel}:{node.lineno}: {name}"
                 for rel, tree in _trees(("",))
                 for node in ast.walk(tree)
                 for name in sorted(_names(node) & gone)]
    assert not offenders, (
        "digests depend only on the program, and ``batch`` alone sizes a "
        "determinism window:\n  " + "\n  ".join(offenders))
    assert not (SRC / "regions" / "epoch.py").exists()


def test_context_hashes_no_field_ids():
    (_, tree), = _trees(("runtime/runtime.py",))
    ctx, = [n for n in tree.body
            if isinstance(n, ast.ClassDef) and n.name == "Context"]
    records = [n for n in ast.walk(ctx)
               if isinstance(n, ast.Call) and _callee(n) == "_record"]
    assert len(records) > 10
    offenders = [f"runtime/runtime.py:{node.lineno}: .fid"
                 for call in records for arg in call.args
                 for node in ast.walk(arg)
                 if isinstance(node, ast.Attribute) and node.attr == "fid"]
    assert not offenders, (
        "fids come from a process-global counter; hash field names, which "
        "are unique within the field space:\n  " + "\n  ".join(offenders))


# -- recovery keeps only what recovers -----------------------------------------


def test_no_store_snapshots_resync_label_or_fault_clock():
    """RESTART re-runs a crashed replica, which performs no effects, so the
    store copies it restored were never needed; their disk mirror had ids
    no other run could map back, ``resync_source`` was a label no code
    path read, and the simulator's fault clock ran under no model."""
    gone = {"checkpoint_dir", "on_batch", "resync_source", "SimEngine",
            "min_interval", "max_interval"}
    offenders = [f"{rel}:{node.lineno}: {name}"
                 for rel, tree in _trees(("",))
                 for node in ast.walk(tree)
                 for name in sorted(_names(node) & gone)]
    for rel, tree in _trees(("",)):
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) \
                    and node.attr in ("snapshot", "restore") \
                    and "store" in _names(node.value):
                offenders.append(f"{rel}:{node.lineno}: store.{node.attr}")
    (_, store), = _trees(("runtime/store.py",))
    offenders += [f"runtime/store.py:{fn.lineno}: def {fn.name}"
                  for fn in ast.walk(store)
                  if isinstance(fn, ast.FunctionDef)
                  and fn.name in ("snapshot", "restore")]
    assert not offenders, "\n  ".join(offenders)
    assert not (SRC / "sim" / "engine.py").exists()


def test_transports_take_no_retry_config():
    (_, tree), = _trees(("dist/transport.py",))
    offenders = [f"dist/transport.py:{node.lineno}: retry"
                 for node in ast.walk(tree)
                 if (isinstance(node, ast.arg) and node.arg == "retry")
                 or (isinstance(node, ast.Attribute) and node.attr == "retry")
                 or "RetryConfig" in _names(node)]
    assert not offenders, (
        "a receive waits for a frame, end-of-stream or its deadline, "
        "which raises CollectiveTimeout; nothing retransmits:\n  "
        + "\n  ".join(offenders))


# -- a dead serving gang heals one way, by rebuilding ------------------------


def test_no_live_rejoin():
    gone = {"transport_from_claim", "renew_fabric", "RejoinError",
            "PlannedRespawnFail"}
    offenders = [f"{rel}:{node.lineno}: {name}"
                 for rel, tree in _trees(("",))
                 for node in ast.walk(tree)
                 for name in sorted(_names(node))
                 if name in gone or "rejoin" in name.lower()
                 or "respawn" in name.lower()]
    assert not offenders, (
        "a failed gang job is healed by stopping the gang and building a "
        "new one at the planned width:\n  " + "\n  ".join(offenders))


# -- the wire carries control frames ------------------------------------------


def test_no_pinned_ring_slots_second_codec_or_rendezvous():
    gone = {"decode_frame_view", "ZERO_COPY_MIN_BYTES", "connect_tcp_mesh",
            "_recv_exact", "_reap", "localize", "_fault_payload",
            "_fault_injector"}
    offenders = [f"{rel}:{node.lineno}: {name}"
                 for rel, tree in _trees(("",))
                 for node in ast.walk(tree)
                 for name in sorted(_names(node) & gone)]
    (_, tree), = _trees(("dist/transport.py",))
    offenders += [f"dist/transport.py:{node.lineno}: {name}"
                  for node in ast.walk(tree)
                  for name in sorted(_names(node) & {
                      "weakref", "_reap_safe", "_reap_lock", "_inflight"})]
    assert not offenders, (
        "received frames are copied out and their ring slot freed at once, "
        "every fabric shares one encoder and one decoder, gangs run on one "
        "host, LOCALIZE always runs and a FaultPlan crosses to a worker as "
        "itself:\n  " + "\n  ".join(offenders))


# -- a fault fires only where a caller planned it -----------------------------


def test_no_environment_knobs_fault_rates_or_message_loss():
    gone = {"environ", "getenv", "from_env", "message_event", "MessageFault",
            "RetryConfig", "retransmissions", "MESSAGE_EVENTS", "_rate_hit",
            "FAULT_SITES"}
    offenders = [f"{rel}:{node.lineno}: {name}"
                 for rel, tree in _trees(("",))
                 for node in ast.walk(tree)
                 for name in sorted(_names(node) & gone)]
    (_, tree), = _trees(("core/collectives.py",))
    offenders += [f"core/collectives.py:{node.lineno}: import {module}"
                  for node in ast.walk(tree)
                  for module in ([node.module or ""]
                                 if isinstance(node, ast.ImportFrom)
                                 else [a.name for a in node.names]
                                 if isinstance(node, ast.Import) else [])
                  if module.split(".")[0] == "faults"
                  or module.startswith("repro.faults")]
    assert not offenders, (
        "faults come from a FaultPlan the caller passes in, and collectives "
        "deliver every message:\n  " + "\n  ".join(offenders))


# -- one recovery plane, and it is the service's ------------------------------


def test_runtime_has_one_recovery_story():
    fragments = ("quarantin", "reset_shard", "driver_shard",
                 "with_quarantine")
    offenders = [f"{rel}:{node.lineno}: {name}"
                 for rel, tree in _trees(("runtime/", "core/"))
                 for node in ast.walk(tree)
                 for name in sorted(_names(node))
                 if any(frag in name.lower() for frag in fragments)]
    for rel, tree in _trees(("runtime/",)):
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                module = "." * node.level + (node.module or "")
                if module.lstrip(".").split(".")[-1] == "resilience":
                    offenders.append(f"{rel}:{node.lineno}: from {module}")
            elif isinstance(node, ast.Import):
                offenders += [f"{rel}:{node.lineno}: import {a.name}"
                              for a in node.names
                              if a.name == "repro.resilience"]
    assert not offenders, (
        "a Runtime raises the localized violation or the crash on every "
        "backend and heals nothing; DCRService rebuilds a dead gang:\n  "
        + "\n  ".join(offenders))


# -- analysis state belongs to the stage that uses it -------------------------

#: Every process-wide memo or table under the core, the regions, the
#: oracle, the runtime and the array frontend, with why sharing it between
#: pipelines (and their threads) is safe.  Anything else an analysis
#: memoizes belongs to its stage, and what a shard memoizes while lowering
#: and hashing its calls belongs to its ``Context``, ``LegateContext`` or
#: ``ShardHasher``.
PROCESS_WIDE_MEMOS = {
    "regions/cache.py:_alias_cache":
        "may-alias of a region-uid pair never changes: racing writers "
        "store the same answer",
    "regions/cache.py:_contains_cache":
        "containment of a region-uid pair never changes: racing writers "
        "store the same answer",
    "core/sharding.py:_linearize_cache":
        "pure function of a launch point: racing writers store the same "
        "answer",
    "core/sharding.py:ShardingFunction._cache":
        "the builtin sharding functions live at module scope; a pure "
        "function of (point, launch size, shards)",
    "oracle/privileges.py:_CONFLICT_TABLE":
        "pure function of a privilege pair: racing writers store the same "
        "answer",
    "core/operation.py:_proj_registry":
        "a registry: projection functions by id, one meaning per process",
    "core/collectives.py:schedule":
        "lru_cache of a pure schedule generator; the schedules are immutable",
    "core/collectives.py:rank_schedule":
        "lru_cache of one rank's slice of an immutable schedule",
    "core/collectives.py:_GENERATORS":
        "a constant dispatch table, never written after import",
    "core/determinism.py:_KINDS":
        "a constant type-tag table, never written after import",
    "runtime/frontdoor.py:PRIVILEGES":
        "a constant table of privilege specs, never written after import",
    "legate/ops.py:KERNELS":
        "a constant kernel registry, never written after import",
    "legate/fuzz.py:_BINARY_NP":
        "a constant table of the fuzz tier's NumPy reference operators",
    "legate/fuzz.py:_BINARY_DEF":
        "a constant table of the fuzz tier's deferred-array operators",
    "legate/fuzz.py:_UNARY_NP":
        "a constant table of the fuzz tier's NumPy reference operators",
    "legate/fuzz.py:_UNARY_DEF":
        "a constant table of the fuzz tier's deferred-array operators",
}

_MUTABLE_LITERALS = (ast.Dict, ast.DictComp, ast.Set, ast.SetComp,
                     ast.List, ast.ListComp)
_MUTABLE_FACTORIES = {"dict", "set", "list", "defaultdict", "OrderedDict",
                      "Counter", "PairCache", "ClassTable"}


def _module_level_state(tree):
    """(name, line) of every module-level mutable container and memoized
    function a module defines."""
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)) and node.value:
            value = node.value
            if isinstance(value, _MUTABLE_LITERALS) or (
                    isinstance(value, ast.Call)
                    and _callee(value) in _MUTABLE_FACTORIES):
                targets = node.targets if isinstance(node, ast.Assign) \
                    else [node.target]
                for t in targets:
                    if isinstance(t, ast.Name) and t.id != "__all__":
                        yield t.id, node.lineno
        elif isinstance(node, ast.FunctionDef):
            for dec in node.decorator_list:
                call = dec.func if isinstance(dec, ast.Call) else dec
                if _names(call) & {"lru_cache", "cache"}:
                    yield node.name, node.lineno


def _instance_attributes(tree, cls_name):
    return {target.attr
            for cls in tree.body
            if isinstance(cls, ast.ClassDef) and cls.name == cls_name
            for node in ast.walk(cls)
            if isinstance(node, (ast.Assign, ast.AnnAssign))
            for target in (node.targets if isinstance(node, ast.Assign)
                           else [node.target])
            if isinstance(target, ast.Attribute)}


def test_no_module_level_class_table():
    offenders = [f"{rel}:{node.lineno}"
                 for rel, tree in _trees(("",))
                 for node in tree.body
                 if isinstance(node, (ast.Assign, ast.AnnAssign))
                 and isinstance(node.value, ast.Call)
                 and _callee(node.value) == "ClassTable"]
    assert not offenders, (
        "each CoarseAnalysis/FineAnalysis builds its own ClassTable: a "
        "table at module scope is shared by every pipeline in the "
        "process:\n  " + "\n  ".join(offenders))


def test_no_table_generations_or_clearer_registry():
    gone = {"register_cache_clearer", "_extra_clearers", "_refresh"}
    offenders = [f"{rel}:{node.lineno}: {name}"
                 for rel, tree in _trees(("core/", "regions/"))
                 for node in ast.walk(tree)
                 for name in sorted(_names(node) & gone)]
    offenders += [f"{rel}:{node.lineno}: .gen"
                  for rel, tree in _trees(("core/", "regions/"))
                  for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and node.attr == "gen"]
    assert not offenders, (
        "a class table lives and dies with its stage: a full table raises, "
        "a stamp names its table, and a cold table is a fresh pipeline:\n  "
        + "\n  ".join(offenders))


def test_process_wide_memos_are_listed():
    found = {}
    trees = dict(_trees(("core/", "regions/", "oracle/", "legate/",
                         "runtime/")))
    for rel, tree in trees.items():
        for name, line in _module_level_state(tree):
            found[f"{rel}:{name}"] = line
    unlisted = [f"{key} (line {line})" for key, line in sorted(found.items())
                if key not in PROCESS_WIDE_MEMOS]
    assert not unlisted, (
        "module-level state is shared by every pipeline in the process, "
        "rank threads included: give it to the stage that uses it, or list "
        "it in PROCESS_WIDE_MEMOS with why sharing it is safe:\n  "
        + "\n  ".join(unlisted))
    stale = []
    for key in PROCESS_WIDE_MEMOS:
        rel, name = key.split(":")
        cls, _, attr = name.rpartition(".")
        present = attr in _instance_attributes(trees[rel], cls) if cls \
            else key in found
        if not present:
            stale.append(key)
    assert not stale, f"listed but gone (drop them): {stale}"


# -- one front door -------------------------------------------------------------

FRONT_DOOR = "runtime/frontdoor.py"
GROUP_RULE = "group_interference"


def _calls_to(tree, name):
    return [node for node in ast.walk(tree)
            if isinstance(node, ast.Call) and _callee(node) == name]


def _function(tree, name):
    fn, = [node for node in ast.walk(tree)
           if isinstance(node, ast.FunctionDef) and node.name == name]
    return fn


def test_group_independence_is_defined_once():
    trees = dict(_trees(("",)))
    defs = [rel for rel, tree in trees.items() for node in ast.walk(tree)
            if isinstance(node, ast.FunctionDef) and node.name == GROUP_RULE]
    assert defs == ["core/semantics.py"], defs
    # The spec's TaskGroup and the front door both ask the one rule.
    assert _calls_to(_function(trees["core/semantics.py"], "validate"),
                     GROUP_RULE)
    assert _calls_to(_function(trees[FRONT_DOOR], "check_group"), GROUP_RULE)
    # Everything else that compares two tasks' requirements decides a
    # dependence between operations, not a group's well-formedness: the
    # fine stage, and spy's completeness check (one call).
    pair_tests = {"requirements_conflict", "tasks_interfere", "interfere"}
    callers = sorted({rel for rel, tree in trees.items()
                      if not rel.startswith("oracle/")
                      for node in ast.walk(tree)
                      if isinstance(node, ast.Call)
                      and _callee(node) in pair_tests})
    assert callers == ["core/fine.py", "core/semantics.py", "tools/spy.py"], \
        callers
    assert len(_calls_to(trees["tools/spy.py"], "tasks_interfere")) == 1, (
        "a group launch whose points interfere is rejected at the call; spy "
        "checks edges between operations only")


def test_one_privilege_spec_parser():
    offenders = []
    for rel, tree in _trees(("",)):
        if rel == FRONT_DOOR:
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and _callee(node) == "startswith" \
                    and any(isinstance(a, ast.Constant) and a.value == "red"
                            for a in node.args):
                offenders.append(f"{rel}:{node.lineno}: startswith('red')")
            if isinstance(node, ast.FunctionDef) \
                    and node.name == "_privilege":
                offenders.append(f"{rel}:{node.lineno}: def _privilege")
            if isinstance(node, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id == "PRIVILEGES"
                    for t in node.targets):
                offenders.append(f"{rel}:{node.lineno}: PRIVILEGES =")
    assert not offenders, (
        "a privilege spec is parsed in the front door only:\n  "
        + "\n  ".join(offenders))


def test_only_the_front_door_lowers_a_reqs_spec():
    """On the control program's side of the runtime, requirements are
    built by the front door alone; the analysis (``core/``) and the
    applications that build operations for it directly are not lowering a
    call."""
    offenders = [f"{rel}:{node.lineno}: {_callee(node)}(...)"
                 for rel, tree in _trees(("runtime/", "legate/", "tools/",
                                          "service/"))
                 if rel != FRONT_DOOR
                 for node in ast.walk(tree)
                 if isinstance(node, ast.Call) and _callee(node) in (
                     "CoarseRequirement", "RegionRequirement", "_privilege")]
    assert not offenders, (
        "lower a reqs spec through the front door:\n  "
        + "\n  ".join(offenders))


def test_the_nested_launch_path_stays_deleted():
    assert not (SRC / "runtime" / "nested.py").exists()
    gone = {"TaskContext", "launch_with_context", "_check_subsumed"}
    offenders = [f"{rel}:{node.lineno}: {name}"
                 for rel, tree in _trees(("",))
                 for node in ast.walk(tree)
                 for name in sorted(_names(node) & gone)]
    assert not offenders, (
        "child launches inside a task body ran outside the front door and "
        "the pipeline:\n  " + "\n  ".join(offenders))


# -- one liveness rule, one job driver ----------------------------------------


def test_the_heartbeat_plane_and_the_second_job_driver_stay_deleted():
    assert not (SRC / "dist" / "heartbeat.py").exists()
    gone = {"HeartbeatMonitor", "heartbeat_interval", "hb_interval_s",
            "PlannedBeatLoss", "PlannedStall", "drop_beat", "DistRunner",
            "suspicion", "_pump_loop", "_ticker_loop", "_drain_mailbox"}
    offenders = [f"{rel}:{node.lineno}: {name}"
                 for rel, tree in _trees(("",))
                 for node in ast.walk(tree)
                 for name in sorted(_names(node) & gone)]
    offenders += [f"{rel}:{node.lineno}: import {node.module}"
                  for rel, tree in _trees(("",))
                  for node in ast.walk(tree)
                  if isinstance(node, ast.ImportFrom)
                  and (node.module or "").endswith("heartbeat")]
    assert not offenders, (
        "a serving gang's liveness is its result channels under one "
        "silence budget, and a one-job ServiceGang is the one-shot "
        "driver:\n  " + "\n  ".join(offenders))


# -- one wait and one death signal on every fabric ----------------------------


def _sleeps_by_function(tree: ast.AST):
    """``(qualified function name, lineno)`` of every ``sleep(...)`` call."""
    def walk(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef,
                                  ast.AsyncFunctionDef)):
                yield from walk(child, scope + (child.name,))
                continue
            if isinstance(child, ast.Call) and _callee(child) == "sleep":
                yield ".".join(scope), child.lineno
            yield from walk(child, scope)
    return list(walk(tree, ()))


def test_the_fabric_poll_plane_stays_deleted():
    gone = {"_ShmStatus", "POLL_BASE_S", "POLL_CAP_S", "POLL_FACTOR",
            "LIVENESS_INTERVAL_S", "_next_liveness"}
    offenders = [f"{rel}:{node.lineno}: {name}"
                 for rel, tree in _trees(("",))
                 for node in ast.walk(tree)
                 for name in sorted(_names(node) & gone)]
    offenders += [f"{rel}:{node.lineno}: reads {node.value!r}"
                  for rel, tree in _trees(("dist/",))
                  for node in ast.walk(tree)
                  if isinstance(node, ast.Constant)
                  and isinstance(node.value, str)
                  and re.search(r"/proc\b", node.value)]
    (_, tree), = _trees(("dist/transport.py",))
    offenders += [f"dist/transport.py:{line}: sleep in {where}"
                  for where, line in _sleeps_by_function(tree)]
    assert not offenders, (
        "a receive blocks in select or Queue.get until a frame, the peer's "
        "end-of-stream or its deadline, a dead peer is end-of-stream on "
        "every fabric, and nothing in the transports sleeps:\n  "
        + "\n  ".join(offenders))


# -- one socket transport for both process fabrics ----------------------------


def test_the_shared_memory_ring_stays_deleted():
    import inspect

    from repro.dist import Gang, fabric_for_backend

    gone = {"_ShmRing", "ring_bytes", "DEFAULT_RING_BYTES", "shared_memory",
            "encode_frame_parts"}
    offenders = [f"{rel}:{node.lineno}: {name}"
                 for rel, tree in _trees(("",))
                 for node in ast.walk(tree)
                 for name in sorted(_names(node) & gone)]
    offenders += [f"{rel}:{node.lineno}: imports {node.module}"
                  for rel, tree in _trees(("",))
                  for node in ast.walk(tree)
                  if isinstance(node, ast.ImportFrom)
                  and "shared_memory" in (node.module or "")]
    offenders += [f"{fn.__qualname__} takes **{p.name}"
                  for fn in (Gang.__init__, fabric_for_backend)
                  for p in inspect.signature(fn).parameters.values()
                  if p.kind is inspect.Parameter.VAR_KEYWORD]
    assert not offenders, (
        "both process fabrics send length-prefixed frames over one socket "
        "pair per rank pair through one transport; a frame crosses one "
        "hand-off, and no fabric or gang takes a size knob:\n  "
        + "\n  ".join(offenders))


# -- one structural name per resource -----------------------------------------

#: Where a name crosses a shard, a process or an execute: each reads the
#: structural key, never a process-global ``uid`` or ``fid``.
STRUCTURAL_READERS = {
    "core/determinism.py": ("ShardHasher",),
    "core/pipeline.py": ("fence_sequence",),
    "dist/worker.py": ("op_signature",),
    "runtime/runtime.py": ("delete_region", "delete_field",
                           "_drain_deferred"),
}


def test_resources_are_named_by_structure_not_by_counters():
    trees = dict(_trees(("",)))
    offenders = [f"core/determinism.py:{node.lineno}: {name}"
                 for node in ast.walk(trees["core/determinism.py"])
                 for name in sorted(_names(node)
                                    & {"intern", "_intern", "_held"})]
    offenders += [f"{rel}:{node.lineno}: co_firstlineno"
                  for rel, tree in trees.items() for node in ast.walk(tree)
                  if "co_firstlineno" in _names(node)]
    for rel, names in STRUCTURAL_READERS.items():
        for node in ast.walk(trees[rel]):
            if isinstance(node, (ast.ClassDef, ast.FunctionDef)) \
                    and node.name in names:
                offenders += [f"{rel}:{n.lineno}: .{n.attr} in {node.name}"
                              for n in ast.walk(node)
                              if isinstance(n, ast.Attribute)
                              and n.attr in ("uid", "fid")]
    assert not offenders, (
        "a resource crosses shards, processes and executes under its "
        "structural key and a task under module:qualname; uids and fids "
        "are in-process identity:\n  " + "\n  ".join(offenders))
    found = {node.name for rel in STRUCTURAL_READERS
             for node in ast.walk(trees[rel])
             if isinstance(node, (ast.ClassDef, ast.FunctionDef))}
    assert found >= {n for names in STRUCTURAL_READERS.values()
                     for n in names}


# -- every src module has a consumer besides the tests ------------------------

ROOT = SRC.parent.parent

#: ``src`` modules that nothing imports outside their own package's
#: ``__init__`` — no other ``src`` module, nothing under ``benchmarks/`` or
#: ``examples/`` — with the ROADMAP item that retires each one or the
#: reason it stays.
TEST_ONLY_MODULES = {
    "apps/htr_mini.py": "item 20: a test program, moves under tests/",
    "apps/soleil_mini.py": "item 20: a test program, moves under tests/",
    "flexflow/training.py": "item 20: only tests train the MLP",
    "legate/fuzz.py": "stays: the differential fuzz tier's driver",
    "models/des.py": "item 9: the calibrated simulator consumes it",
    "tools/bench_gate.py": "stays: a CLI (python -m repro.tools.bench_gate)",
    "tools/checkpoint.py": "item 20: only tests save or load a region",
    "tools/dist.py": "stays: a CLI (python -m repro.tools.dist)",
    "tools/prof.py": "stays: a CLI (python -m repro.tools.prof)",
    "tools/serve.py": "stays: a CLI (python -m repro.tools.serve)",
    "tools/spy.py": "item 20: only tests validate a run",
}


def _dotted(path: pathlib.Path) -> str:
    parts = path.relative_to(SRC.parent).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def _imported(tree: ast.AST, package: str):
    """``(module, name)`` for each ``import module`` (name None) and each
    name of a ``from module import name``, relative imports resolved
    against ``package``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name, None
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level:
                base = package.split(".")[:len(package.split(".")) -
                                          node.level + 1]
                module = ".".join(base + ([module] if module else []))
            for alias in node.names:
                yield module, alias.name


def _unconsumed_modules():
    paths = {_dotted(p): p for p in sorted(SRC.rglob("*.py"))}
    packages = {m for m, p in paths.items() if p.name == "__init__.py"}
    trees = {m: ast.parse(p.read_text(), str(p)) for m, p in paths.items()}

    def package_of(module):
        return module if module in packages else module.rpartition(".")[0]

    # What each package __init__ re-exports, by name: its source module.
    exported = {pkg: {name: src for src, name in _imported(trees[pkg], pkg)
                      if name and src in paths}
                for pkg in packages}

    def target(module, name):
        if name and f"{module}.{name}" in paths:
            return f"{module}.{name}"               # a submodule
        source = exported.get(module, {}).get(name)
        if source is None:
            return module
        return target(source, name) if source in packages else source

    consumers = [(m, trees[m], package_of(m)) for m in paths]
    consumers += [(None, ast.parse(p.read_text(), str(p)), "")
                  for top in ("benchmarks", "examples")
                  for p in sorted((ROOT / top).rglob("*.py"))]
    consumed = set()
    for who, tree, package in consumers:
        for module, name in _imported(tree, package):
            used = target(module, name)
            # A package __init__ re-exporting from inside its own tree
            # consumes nothing: the name counts once someone outside
            # imports it from there.
            if used != who and not (who in packages
                                    and used.startswith(who + ".")):
                consumed.add(used)
    return {paths[m].relative_to(SRC).as_posix() for m in paths
            if m not in packages | consumed
            and not m.endswith(".__main__")}


def test_every_src_module_has_a_consumer_besides_the_tests():
    found = _unconsumed_modules()
    unlisted = sorted(found - TEST_ONLY_MODULES.keys())
    stale = sorted(TEST_ONLY_MODULES.keys() - found)
    assert not unlisted, (
        "modules no src module, benchmark or example imports (a re-export "
        "through their package __init__ alone does not count); give each a "
        "consumer, move it under tests/, or list it in TEST_ONLY_MODULES "
        "with the ROADMAP item that retires it:\n  " + "\n  ".join(unlisted))
    assert not stale, (
        f"TEST_ONLY_MODULES lists modules that now have a consumer or are "
        f"gone: {stale}")


# -- every shard builds its own handles ---------------------------------------

#: (file, class) -> members that held or served the driver's shared handles.
SHARED_HANDLE_MEMBERS = {
    ("runtime/runtime.py", "Runtime"): {"_resources", "_futures",
                                        "_current_shard"},
    ("runtime/runtime.py", "Context"): {"_cursors", "_intern_resource",
                                        "_oracle_binding"},
    ("runtime/future.py", "Future"): {"resolve"},
    ("runtime/future.py", "FutureMap"): {"fill"},
    ("runtime/frontdoor.py", "FrontDoor"): {"_deleted", "field_names"},
    ("regions/field_space.py", "FieldSpace"): {"declared"},
}


def test_replicas_build_their_own_handles():
    trees = dict(_trees(("",)))
    gone = {"_intern_resource", "_current_shard", "_oracle_binding",
            "_cursors"}
    offenders = [f"{rel}:{node.lineno}: {name}"
                 for rel, tree in trees.items()
                 for node in ast.walk(tree)
                 for name in sorted(_names(node) & gone)]
    for (rel, cls), members in SHARED_HANDLE_MEMBERS.items():
        for node in ast.walk(trees[rel]):
            if isinstance(node, ast.ClassDef) and node.name == cls:
                offenders += [f"{rel}:{n.lineno}: {cls}.{name}"
                              for n in ast.walk(node)
                              for name in sorted(_names(n) & members)]
    # a runtime's logs read from anywhere: ``ctx.runtime._futures``
    offenders += [f"{rel}:{node.lineno}: runtime.{node.attr}"
                  for rel, tree in trees.items()
                  for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute)
                  and node.attr in ("_resources", "_futures")
                  and "runtime" in _names(node.value)]
    offenders += [f"runtime/runtime.py:{node.lineno}: refuses an oracle"
                  for node in ast.walk(trees["runtime/runtime.py"])
                  if isinstance(node, ast.Raise)
                  and any(isinstance(c, ast.Constant)
                          and "timing_oracle" in str(c.value)
                          for c in ast.walk(node))]
    assert not offenders, (
        "every shard builds its own handles and reads launch values and "
        "stored data by structural name; the driver's logs, the shared "
        "field bookkeeping and the loopback oracle refusal stay deleted:"
        "\n  " + "\n  ".join(offenders))


def test_the_array_frontend_has_one_op_memo():
    """Each shard lowers a repeated array op from one memo per launch
    site, keyed by the operands' (block, view) identities.  The memos it
    subsumed, a tiling and a domain table and the key-partition table
    keyed by a 7-tuple of a view's fields, stay deleted, and so does the
    binary-operator indirection every array op once went through."""
    gone = {"_key_parts", "_tilings", "_domains", "_binary", "_rbinary"}
    offenders = [f"{rel}:{node.lineno}: {name}"
                 for rel, tree in _trees(("legate/",))
                 for node in ast.walk(tree)
                 for name in sorted(_names(node) & gone)]
    assert not offenders, (
        "a repeated array op is lowered from the op memo alone:\n  "
        + "\n  ".join(offenders))
