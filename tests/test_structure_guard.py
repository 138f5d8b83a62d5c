"""Structure guard: ``repro/dist/gang.py`` is the only rank launcher.

Before the launcher existed the same gang was spawned by six hand-copied
paths (runtime × runner × service, each for threads and for forks) that
drifted apart.  This test walks ``src/repro`` and fails if a process
start method, a ``Process(...)`` or a new ``Thread(...)`` launch shows up
anywhere else, so the copies cannot grow back unnoticed.
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
