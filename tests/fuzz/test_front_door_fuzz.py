"""The front door under the fuzz tier's programs.

* Every group launch a generated deferred-array program makes is checked
  by ``check_group``; its fast paths must settle only launches the model's
  rule (``semantics.group_interference``) finds independent, and its
  verdict must be the rule's.
* A mutation strategy inserts one ill-formed call, drawn from every
  rejection case of ``tests/runtime/test_front_door.py``
  (``front_door_cases.ILL_FORMED``), after a random prefix of a generated
  program; the program ends there (a call that raises ends it anyway, and
  one that leaves a trace open is caught at the return).  The error must
  be the case's typed error, raised at that call after every earlier step
  has run, with the same message on the inprocess, loopback and tcp
  backends.  The driver raises before a gang is started, so no example
  starts more processes than the gang width.

Budgets follow ``REPRO_FUZZ_PROFILE`` as in ``test_array_fuzz.py``.
"""

import os
import re
from unittest import mock

import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, note, settings
from hypothesis import strategies as st

from front_door_cases import ILL_FORMED
from repro.core.semantics import group_interference
from repro.legate.fuzz import deferred_control, format_program
from repro.runtime import Runtime, frontdoor
from strategies import fuzz_cases

_PROFILE = os.environ.get("REPRO_FUZZ_PROFILE", "dev")
# (programs whose group checks are compared, programs per ill-formed case)
_BUDGETS = {"dev": (6, 2), "ci": (40, 5), "extended": (150, 20)}
if _PROFILE not in _BUDGETS:
    raise ValueError(f"unknown REPRO_FUZZ_PROFILE {_PROFILE!r}; "
                     f"expected one of {sorted(_BUDGETS)}")
_RULE_EXAMPLES, _MUTATION_EXAMPLES = _BUDGETS[_PROFILE]

_COMMON = dict(
    deadline=None,
    derandomize=_PROFILE != "extended",
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large,
                           HealthCheck.filter_too_much,
                           HealthCheck.large_base_example],
)


@given(case=fuzz_cases(max_steps=8))
@settings(max_examples=_RULE_EXAMPLES, **_COMMON)
def test_group_checks_of_generated_programs_agree_with_the_rule(case):
    program, shards, tiles = case
    note(format_program(program))
    checked = []
    check_group = frontdoor.check_group

    def recorded(name, norm, dom):
        checked.append((norm, dom))
        return check_group(name, norm, dom)

    with mock.patch.object(frontdoor, "check_group", side_effect=recorded):
        Runtime(num_shards=shards).execute(deferred_control(program, tiles))
    assert checked      # every program creates an array: an init launch
    for norm, dom in checked:
        points = list(zip(*[cr.point_requirements(dom, dom) for cr in norm]))
        assert group_interference(points) is None, (norm, dom)


def _outcome(program, at, case, shards, tiles, backend):
    """(where the error came from, its type, its message)."""
    prefix = deferred_control(program[:at], tiles)
    where = []

    def control(ctx):
        prefix(ctx)
        env = case.setup(ctx)
        where.append("call")
        case.call(ctx, env)
        where[-1] = "return"

    try:
        Runtime(num_shards=shards, backend=backend).execute(control)
    except Exception as exc:            # noqa: BLE001 - compared below
        return where[-1] if where else "setup", type(exc), str(exc)
    return "no error", None, ""


@pytest.mark.parametrize("name", sorted(ILL_FORMED))
@given(case=fuzz_cases(max_steps=6), data=st.data())
@settings(max_examples=_MUTATION_EXAMPLES, **_COMMON)
def test_an_inserted_ill_formed_call_raises_at_that_call(name, case, data):
    program, shards, tiles = case
    at = data.draw(st.integers(0, len(program)), label="inserted after step")
    note(format_program(program))
    ill = ILL_FORMED[name]
    outcomes = {backend: _outcome(program, at, ill, shards, tiles, backend)
                for backend in ("inprocess", "loopback", "tcp")}
    where, error, message = outcomes["inprocess"]
    assert where == ("return" if ill.at_return else "call"), outcomes
    assert error is ill.error and re.search(ill.match, message), outcomes
    assert len(set(outcomes.values())) == 1, outcomes
