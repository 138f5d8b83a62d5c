"""Perf guard: the *disabled* profiler must be (nearly) free.

The zero-perturbation contract has two halves.  ``tests/obs`` proves the
*semantic* half (profiling changes no analysis decision); this module
bounds the *cost* half: with profiling off — the default — the
instrumentation may add only the guard checks themselves, which must stay
under a few percent of the per-operation analysis cost on the headline
workload shape (the alternating two-field halo chain of
``benchmarks/bench_headline.py``'s figure sweeps).

There is no uninstrumented build to diff against, so the bound is built
from first principles: measure the cost of one ``prof.enabled`` attribute
check, multiply by the number of checks a run actually makes per analysed
operation (counted, see :func:`_guard_reads_per_op`), and require that to
be <5% of the measured per-op pipeline cost.  The count has its own gate,
which is what fails, every time, when guards are added.  Two absolute
checks back it up: a disabled profiler records literally nothing across a
full run, and an instrumented end-to-end run stays within the soak budget
the suite already enforces.
"""

import sys
import time
import timeit

from repro.obs import Profiler, get_profiler
from repro.runtime import Runtime

#: Upper bound on ``prof.enabled`` reads per analysed operation of the
#: 4-shard 2-D stencil: 89 reads over 9 ops measured (pipeline, coarse and
#: fine stages, determinism windows, collectives, on every shard), so one
#: more read per op anywhere (98 over 9) fails it.
GUARD_READS_PER_OP_BOUND = 10


class _CountingProfiler(Profiler):
    """A disabled profiler that counts the reads of ``enabled``."""

    @property
    def enabled(self):
        self.reads += 1
        return False

    @enabled.setter
    def enabled(self, _value):     # Profiler.__init__ starts the count
        self.reads = 0


def _guard_reads_per_op():
    """``prof.enabled`` reads per analysed op of one disabled run of
    ``stencil2d_control(16, 4, 8)`` on four shards: a count, so it is the
    same on a loaded machine as on an idle one."""
    from repro.apps.stencil import stencil2d_control

    prof = _CountingProfiler()
    rt = Runtime(num_shards=4, profiler=prof)
    rt.execute(stencil2d_control, 16, 4, 8)
    return prof.reads / rt.pipeline.stats.ops


def test_guard_reads_per_op_are_counted_and_bounded():
    """The count twin of the two wall-clock budgets below: the guard
    density they multiply by, gated exactly."""
    assert _guard_reads_per_op() <= GUARD_READS_PER_OP_BOUND


def _measure_guard_cost_us():
    prof = Profiler()   # disabled
    n = 200_000
    t = timeit.timeit("prof.enabled", globals={"prof": prof}, number=n)
    return t / n * 1e6


def test_disabled_guard_under_five_percent_of_op_cost():
    from repro.core import CoarseAnalysis

    from test_perf_guards import build_chain

    guard_us = _measure_guard_cost_us()

    ops = build_chain(num_tiles=4, chain=300)
    coarse = CoarseAnalysis(num_shards=4)
    t0 = time.perf_counter()
    for i, op in enumerate(ops):
        op.seq = i
        coarse.analyze(op)
    per_op_us = (time.perf_counter() - t0) / len(ops) * 1e6

    overhead_us = guard_us * _guard_reads_per_op()
    # The coarse stage alone is the *cheapest* stage an op passes through,
    # so this is conservative twice over.
    assert overhead_us < 0.05 * per_op_us, (
        f"disabled-profiler guards cost ~{overhead_us:.3f}us/op "
        f"vs {per_op_us:.1f}us/op of analysis — over the 5% budget")


def test_disabled_profiler_records_nothing():
    from repro.apps.stencil import stencil2d_control

    prof = Profiler()   # explicitly passed but never enabled
    rt = Runtime(num_shards=4, auto_trace=True, profiler=prof)
    rt.execute(stencil2d_control, 16, 4, 8)
    assert prof.events == []
    assert len(prof.metrics) == 0
    # The untouched global default stayed empty too.
    assert get_profiler().events == []


def test_instrumented_run_stays_in_soak_budget():
    """Same shape and budget as the functional soak: instrumentation (off)
    must not push the medium stencil over its wall-clock bound."""
    from repro.apps.stencil import stencil2d_control

    t0 = time.perf_counter()
    rt = Runtime(num_shards=8)
    rt.execute(stencil2d_control, 32, 8, 10)
    elapsed = time.perf_counter() - t0
    rt.pipeline.validate()
    assert elapsed < 10.0


def test_disabled_injector_within_guard_budget():
    """The fault injector follows the same discipline: with no injector
    (or a disabled one) every site is one ``inj is None / inj.enabled``
    check, bounded by the same <5% guard budget as the profiler — and a
    disabled injector run must match the no-injector wall clock closely
    on an end-to-end workload."""
    from repro.apps.stencil import stencil2d_control
    from repro.faults import FaultInjector, FaultPlan

    inj = FaultInjector(FaultPlan(seed=1))   # empty plan: disabled
    n = 200_000
    t = timeit.timeit("inj is not None and inj.enabled",
                      globals={"inj": inj}, number=n)
    guard_us = t / n * 1e6

    # Reuse the profiler budget math: the injector adds strictly fewer
    # guard sites than the profiler (hasher, collectives, trace cache).
    overhead_us = guard_us * _guard_reads_per_op()

    def once(injector):
        t0 = time.perf_counter()
        rt = Runtime(num_shards=4, injector=injector)
        rt.execute(stencil2d_control, 16, 4, 8)
        return time.perf_counter() - t0

    base = min(once(None) for _ in range(3))
    faulted = min(once(FaultInjector(FaultPlan(seed=1))) for _ in range(3))
    # Per-op budget: same coarse-stage yardstick as the profiler test.
    from repro.core import CoarseAnalysis
    from test_perf_guards import build_chain
    ops = build_chain(num_tiles=4, chain=300)
    coarse = CoarseAnalysis(num_shards=4)
    t0 = time.perf_counter()
    for i, op in enumerate(ops):
        op.seq = i
        coarse.analyze(op)
    per_op_us = (time.perf_counter() - t0) / len(ops) * 1e6
    assert overhead_us < 0.05 * per_op_us, (
        f"disabled-injector guards cost ~{overhead_us:.3f}us/op "
        f"vs {per_op_us:.1f}us/op of analysis — over the 5% budget")
    # End-to-end sanity: generous 25% wall-clock envelope (noise-tolerant;
    # the per-op bound above is the real guard).
    assert faulted < base * 1.25 + 0.05, (base, faulted)


_CALLS = """
import gc, sys
from repro.apps.stencil import stencil2d_control
from repro.faults import FaultInjector, FaultPlan
from repro.runtime import Runtime

def run(injector):
    Runtime(num_shards=4, injector=injector).execute(
        stencil2d_control, 16, 4, 8)

def injector():
    return FaultInjector(FaultPlan(seed=1)) if {disabled} else None

calls = 0

def on_event(_frame, event, _arg):
    global calls
    calls += event == "call"

run(injector())         # fill lazy memos first
counted = injector()
gc.collect()
gc.disable()            # a collection would run finalizers mid-count
sys.setprofile(on_event)
run(counted)
sys.setprofile(None)
print(calls)
"""


def test_disabled_injector_makes_no_extra_calls():
    """The count twin of the wall-clock check above: a run with a disabled
    injector makes exactly as many Python calls as one with none, so
    every fault site costs only its guard, however loaded the machine is.

    Each count runs in a fresh interpreter with one hash seed: field ids
    come from a process-wide counter and order the fence index's probes,
    whose lazily extended rank arrays then make a call more or fewer."""
    import os
    import subprocess

    import repro

    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONPATH=os.path.dirname(
        os.path.dirname(repro.__file__)))

    def python_calls(disabled):
        out = subprocess.run(
            [sys.executable, "-c", _CALLS.format(disabled=disabled)],
            env=env, check=True, capture_output=True, text=True)
        return int(out.stdout)

    assert python_calls(True) == python_calls(False)
