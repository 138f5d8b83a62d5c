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
  fault clock ran under no model; the last tests fail if any of that, or
  a transport ``retry`` knob, grows back.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "repro"
LAUNCHER = "dist/gang.py"

#: Threads that are not ranks of a gang, by (file, target): the service
#: gang's driver-side channel pump and worker-side heartbeat ticker, the
#: service's job scheduler, and the load generator's client threads.
HELPER_THREADS = {
    ("service/gang.py", "_pump_loop"),
    ("service/gang.py", "_ticker_loop"),
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
            elif name != "Thread" or \
                    (rel, _thread_target(node)) not in HELPER_THREADS:
                offenders.append(f"{rel}:{node.lineno}: {name}(...)")
    assert not offenders, (
        "rank launches outside repro/dist/gang.py — start ranks through "
        "Gang.spawn (or, for a genuinely non-rank helper thread, add it to "
        "HELPER_THREADS with a reason):\n  " + "\n  ".join(offenders))
    # The guard is looking at the right things: the launcher has all three.
    assert launcher_sites == {"get_context", "Process", "Thread"}


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
    requirements: the cache re-derives neither."""
    (_, tree), = _trees((TRACING,))
    cache, = [n for n in tree.body
              if isinstance(n, ast.ClassDef) and n.name == "TraceCache"]
    called = {_callee(n) for n in ast.walk(cache) if isinstance(n, ast.Call)}
    assert "PointTask" in called
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
        "the recv poll schedule is a module constant; the in-process "
        "Collectives keep their RetryConfig:\n  " + "\n  ".join(offenders))
