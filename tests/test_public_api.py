"""API-surface stability: every package exports what it declares."""

import importlib

import pytest

PACKAGES = [
    "repro", "repro.regions", "repro.oracle", "repro.core", "repro.runtime",
    "repro.sim", "repro.models", "repro.apps", "repro.legate",
    "repro.flexflow", "repro.tools", "repro.evaluation", "repro.obs",
    "repro.dist", "repro.service",
]


@pytest.mark.parametrize("package", PACKAGES)
def test_all_names_resolve(package):
    mod = importlib.import_module(package)
    assert hasattr(mod, "__all__"), package
    for name in mod.__all__:
        assert hasattr(mod, name), f"{package}.{name} declared but missing"


@pytest.mark.parametrize("package", PACKAGES)
def test_module_docstring(package):
    mod = importlib.import_module(package)
    assert mod.__doc__ and len(mod.__doc__.strip()) > 10, package


def test_top_level_surface():
    import repro

    core_names = {"Runtime", "Context", "Mapper", "DefaultMapper",
                  "BlockedMapper", "Future", "FutureMap",
                  "LogicalRegion", "Partition", "IndexSpace", "FieldSpace",
                  "CounterRNG", "ControlDeterminismViolation",
                  "CYCLIC", "BLOCKED", "HASHED", "TaskGraph"}
    assert core_names <= set(repro.__all__)
    assert repro.__version__


def test_dist_exports_one_launcher_and_one_worker():
    """The gang launcher is public; the second worker class is gone."""
    import repro.dist as dist

    assert {"Gang", "Channel", "ChannelClosed", "Fabric",
            "ShardWorker"} <= set(dist.__all__)
    assert not hasattr(dist, "ServiceShardWorker")
    assert not hasattr(dist.runner, "supervise_gang")


def test_dist_has_no_twins_of_core_mechanisms():
    """One determinism monitor (core's), three fabrics, no forwarding
    runner: the names PR 16 deleted stay deleted."""
    import repro.dist as dist
    from repro.core import DeterminismMonitor
    from repro.core.collectives import ScheduledCollectives

    for gone in ("DistDeterminismMonitor", "PipeFabric", "ServiceRunner",
                 "claimed_transport", "monitor"):
        assert gone not in dist.__all__ and not hasattr(dist, gone), gone
    assert issubclass(dist.DistCollectives, ScheduledCollectives)
    assert {"LoopbackFabric", "SharedMemFabric", "TCPFabric"} \
        <= set(dist.__all__)
    assert dist.PROCESS_BACKENDS == ("shm", "tcp")
    assert "localize" in DeterminismMonitor.__init__.__code__.co_varnames


def test_the_check_window_has_one_knob():
    """``batch`` alone sizes a determinism window: staging ``k`` windows
    of ``b`` calls per exchange was a window of ``k*b`` spelled twice."""
    import inspect

    from repro.core import DeterminismMonitor
    from repro.dist import DistRunner, ShardWorker
    from repro.runtime import Runtime

    for fn in (DeterminismMonitor, Runtime, ShardWorker, DistRunner):
        params = inspect.signature(fn.__init__).parameters
        assert not {"coalesce", "check_coalesce"} & set(params), fn


def test_recovery_surfaces_carry_no_dead_knobs():
    """The snapshot mirror, the batch-snapshot hook, the resync label, the
    deferred-poll back-off and the transports' ``retry`` are gone."""
    import dataclasses
    import inspect

    import repro.sim as sim
    from repro.core import DeferredOpManager, DeterminismMonitor
    from repro.dist import transport
    from repro.resilience import ResilienceConfig, plan_gang_recovery

    def params(fn):
        return set(inspect.signature(fn).parameters)

    assert "checkpoint_dir" not in \
        {f.name for f in dataclasses.fields(ResilienceConfig)}
    assert "on_batch" not in params(DeterminismMonitor.__init__)
    assert "resync_source" not in params(plan_gang_recovery)
    assert not {"min_interval", "max_interval"} \
        & params(DeferredOpManager.__init__)
    for fn in (transport.Transport.__init__,
               transport.LoopbackFabric.__init__,
               transport.SharedMemFabric.__init__,
               transport.TCPFabric.__init__, transport.connect_tcp_mesh,
               transport.fabric_for_backend, transport.transport_from_claim):
        assert "retry" not in params(fn), fn.__qualname__
    for gone in ("SimEngine", "SerialResource", "recovery_latency"):
        assert gone not in sim.__all__ and not hasattr(sim, gone), gone


def test_order_maintenance_labels_stay_deleted():
    """Program order is append-only, so nothing ever read an OM label:
    the labeler, its module and the helpers around the twin class tables
    are gone; the rank channel that makes ``covers`` O(1) sits beside its
    only user, and one epoch index serves both stages."""
    import repro.core as core
    from repro.core import coarse, epochs, fine

    with pytest.raises(ImportError):
        importlib.import_module("repro.core.om")
    for mod in (core, coarse, fine, epochs):
        for gone in ("om", "OMLabeler", "OMNode", "OMCapacityError",
                     "EMPTY_STAMP", "clear_analysis_caches",
                     "clear_coarse_decision_caches",
                     "coarse_decision_stats", "fine_decision_stats"):
            assert not hasattr(mod, gone), f"{mod.__name__}.{gone}"
    assert not hasattr(coarse.SeqStamps, "stamp_at")
    assert not hasattr(coarse.FenceStore, "era_node")
    assert {"SeqStamps", "FenceStore"} <= set(coarse.__all__)
    assert fine.__all__ == ["FineResult", "FineAnalysis",
                            "interned_requirements_conflict"]
    assert isinstance(coarse._CLASSES, epochs.ClassTable)
    assert isinstance(fine._CLASSES, epochs.ClassTable)
    assert coarse._CLASSES is not fine._CLASSES


def test_one_repeat_mechanism_surface():
    """The rolling hash, the per-op recording mode, the payload round trips
    and the three ``auto_trace_config`` pass-throughs nobody set are gone;
    the detector's two real knobs stay where the tests use them."""
    import dataclasses
    import inspect

    import repro.service as service
    from repro.core import tracing
    from repro.core.pipeline import DCRPipeline
    from repro.dist import ProgramSpec
    from repro.dist.report import ShardReport
    from repro.models import DCRModel
    from repro.runtime import Runtime

    for gone in ("intern_signature", "rolling_hash"):
        assert gone not in tracing.__all__ and not hasattr(tracing, gone)
    assert "template_key" not in service.__all__
    assert not hasattr(service, "template_key")
    assert not hasattr(service.templates, "template_key")
    for gone in ("observe", "record_retroactive", "internal_edges_for",
                 "RECORDING"):
        assert not hasattr(tracing.TraceCache, gone), gone
    assert {"record", "match", "try_replay", "begin", "end",
            "abort_replay"} <= set(vars(tracing.TraceCache))
    for cls in (ShardReport, ProgramSpec):
        for gone in ("from_payload", "to_payload"):
            assert not hasattr(cls, gone), f"{cls.__name__}.{gone}"
    for cls in (Runtime, DCRPipeline, DCRModel):
        assert "auto_trace_config" not in \
            inspect.signature(cls.__init__).parameters, cls.__name__
    assert [f.name for f in dataclasses.fields(tracing.AutoTraceConfig)] \
        == ["min_length", "max_length"]
    assert "collisions" not in service.TemplateStore().stats()


def test_models_cover_fig1():
    """All three approaches of Fig. 1 are constructible, plus MPI."""
    from repro.models import (DCRModel, DaskModel, ExplicitModel,
                              LegionNoCRModel, SCRModel, SparkModel,
                              TensorFlowModel)
    from repro.sim import MachineSpec

    m = MachineSpec("t", nodes=2, cpus_per_node=1, gpus_per_node=1)
    for cls in (DCRModel, DaskModel, SparkModel, TensorFlowModel,
                LegionNoCRModel, SCRModel, ExplicitModel):
        assert cls(m).machine is m


def test_figure_registry_matches_benchmarks():
    """Every paper figure has both a figure function and a bench module."""
    import pathlib

    from repro.evaluation import FIGURES

    bench_dir = pathlib.Path(__file__).resolve().parent.parent / "benchmarks"
    benches = {p.stem for p in bench_dir.glob("bench_fig*.py")}
    for fig in ("12", "13", "14", "15", "16", "17", "18", "19", "20", "21"):
        assert any(fig in b for b in benches), fig
        assert any(k.startswith(fig) for k in FIGURES), fig
