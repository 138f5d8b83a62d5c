"""The front door: every call a control program makes is lowered and
checked here, before it is hashed and before it has any effect.

A :class:`FrontDoor` belongs to one shard's ``Context`` and keeps what its
checks decide from — the region trees the shard created and deleted, its
open trace and its lowering memo — in the shard's own program order.  It
checks fields against the shard's own field spaces, from which the shard
removes each field it deletes, so every shard gives the same verdict at
every width.  A group launch is held to the model's one rule, that the
points of a group are independent
(:func:`repro.core.semantics.group_interference`).
"""

from __future__ import annotations

from typing import (Any, Callable, Dict, Hashable, List, Sequence, Tuple,
                    Union)

from ..core import CoarseRequirement, IDENTITY_PROJECTION
from ..core.semantics import group_interference
from ..oracle import (Privilege, PrivilegeKind, READ_ONLY, READ_WRITE,
                      WRITE_DISCARD, reduce_priv)
from ..regions import (Field, FieldSpace, LogicalRegion, Partition,
                       cached_may_alias)

__all__ = ["FrontDoor", "PRIVILEGES", "check_group"]

_MAX_MEMO = 1 << 10      # entries a front-door memo holds (cleared when full)

PRIVILEGES = {
    "ro": READ_ONLY,
    "rw": READ_WRITE,
    "wd": WRITE_DISCARD,
}


def _privilege(spec: Union[str, Privilege]) -> Privilege:
    if isinstance(spec, Privilege):
        return spec
    if not isinstance(spec, str):
        raise TypeError(
            f"privilege spec {spec!r} is neither a Privilege nor one of "
            f"the strings {sorted(PRIVILEGES)} or 'red<op>'")
    if spec in PRIVILEGES:
        return PRIVILEGES[spec]
    if spec.startswith("red"):
        return reduce_priv(spec[len("red"):].strip("<>") or "+")
    raise ValueError(f"unknown privilege spec {spec!r}")


def _both_write(a: Privilege, b: Privilege) -> bool:
    """Whether two requirements of one task may not name the same data:
    both write (``rw``, ``wd``, or reductions with different operators).
    ``rw`` beside ``ro`` is legal (``LegateArray.axpy(alpha, self)``)."""
    return a.kind is not PrivilegeKind.READ_ONLY \
        and b.kind is not PrivilegeKind.READ_ONLY and a.conflicts_with(b)


def _two_writers(call: str, i: int, j: int, a: CoarseRequirement,
                 b: CoarseRequirement, where: str = "") -> ValueError:
    names = ", ".join(sorted(f.name for f in a.fields & b.fields))
    return ValueError(
        f"{call}{where}: requirements {i} and {j} both write field(s) "
        f"{names} of {a.upper.name} and {b.upper.name}, which alias — one "
        f"task may write the same data through one requirement only")


def _check_writers(call: str, norm: Sequence[CoarseRequirement]) -> None:
    """Reject a task with two requirements that both write the same data."""
    for i, a in enumerate(norm):
        for j in range(i + 1, len(norm)):
            b = norm[j]
            if _both_write(a.privilege, b.privilege) \
                    and a.fields & b.fields \
                    and cached_may_alias(a.upper, b.upper):
                raise _two_writers(call, i, j, a, b)


def _check_domain(name: str, norm: Sequence[CoarseRequirement],
                  dom: Tuple[Hashable, ...]) -> None:
    """A launch names each point once, and every point projects to a
    colour of every partition it names."""
    if len(set(dom)) != len(dom):
        seen: set = set()
        repeated = next(p for p in dom if p in seen or seen.add(p))
        raise ValueError(f"{name}: launch domain names point {repeated!r} "
                         f"more than once")
    for cr in norm:
        part, proj = cr.upper, cr.projection or IDENTITY_PROJECTION
        if not isinstance(part, Partition):
            continue
        colours = part.subregions
        if proj is IDENTITY_PROJECTION and colours.keys() >= set(dom):
            continue
        for point in dom:
            colour = proj(point, dom)
            if colour not in colours:
                raise ValueError(
                    f"{name}: launch point {point!r} projects to colour "
                    f"{colour!r}, which partition {part.name} does not "
                    f"have (colours {sorted(colours, key=repr)})")


def _splits(cr: CoarseRequirement) -> bool:
    """Whether distinct points of a launch get disjoint pieces of ``cr``:
    a disjoint partition under the identity projection (the points are
    distinct, see :func:`_check_domain`)."""
    return isinstance(cr.upper, Partition) and cr.upper.disjoint \
        and cr.projection is IDENTITY_PROJECTION


def unsettled_pairs(norm: Sequence[CoarseRequirement], points: int
                    ) -> Tuple[List[Tuple[int, int]], List[Tuple[int, int]]]:
    """The requirement pairs ``(i, j)``, ``i <= j``, the fast paths leave
    open: ``across`` may conflict between two of ``points`` points, and
    ``within`` may both write in one point.  A pair is settled when the
    privileges do not conflict, the fields or the region trees are apart,
    or (across points) both are one disjoint partition under the identity
    projection, which gives two points disjoint pieces."""
    across, within = [], []
    for i, a in enumerate(norm):
        for j in range(i, len(norm)):
            b = norm[j]
            if not a.privilege.conflicts_with(b.privilege) \
                    or not a.fields & b.fields \
                    or not cached_may_alias(a.bound_region(),
                                            b.bound_region()):
                continue
            if points > 1 \
                    and not (a.upper is b.upper and _splits(a) and _splits(b)):
                across.append((i, j))
            if i < j and _both_write(a.privilege, b.privilege):
                within.append((i, j))
    return across, within


def check_group(name: str, norm: Sequence[CoarseRequirement],
                dom: Tuple[Hashable, ...]) -> None:
    """Reject a group launch whose domain is malformed, one of whose
    points has two requirements that both write the same data, or whose
    points interfere — the model's rule, :func:`group_interference`, which
    the fine stage's one-arrival analysis relies on, asked only when
    :func:`unsettled_pairs` leaves a pair open.  Called once per call-site
    shape and domain, never per launch."""
    _check_domain(name, norm, dom)
    across, within = unsettled_pairs(norm, len(dom))
    if not across and not within:
        return
    reqs = [cr.point_requirements(dom, dom) for cr in norm]
    for i, j in within:
        for p, (ra, rb) in enumerate(zip(reqs[i], reqs[j])):
            if cached_may_alias(ra.region, rb.region):
                raise _two_writers("index_launch", i, j, norm[i], norm[j],
                                   f" of {name} at point {dom[p]!r}")
    hit = group_interference(list(zip(*reqs))) if across else None
    if hit is not None:
        p, q, i, j = hit
        raise ValueError(
            f"index_launch of {name}: points {dom[p]!r} and {dom[q]!r} "
            f"interfere through requirements {i} ({reqs[i][p].region.name})"
            f" and {j} ({reqs[j][q].region.name}) — the points of one "
            f"launch must be independent")


class FrontDoor:
    """One shard's lowering and call-time checks, and the state they read.

    ``Context`` asks it before it hashes a call; every method either
    returns what the call needs or raises the call's typed error.
    """

    def __init__(self, task_keys: Dict[str, List[Any]]) -> None:
        self._task_keys = task_keys     # shared by the shards: see lower()
        # task function -> its task key, computed once per function object
        self._keys: Dict[Callable, str] = {}
        # (group launch?, reqs spec) -> coarse requirements, descriptor and
        # the domains found independent; a deletion clears it, and so does
        # a full memo.
        self._lowered: Dict[Tuple, Tuple] = {}
        # tree id -> True while this shard has the tree, False once deleted
        self._trees: Dict[int, bool] = {}
        # The explicit trace this shard has open, as a 1-tuple, or ().
        self._open_trace: Tuple = ()

    # -- region trees and fields ---------------------------------------------

    def created(self, region: LogicalRegion) -> None:
        self._trees[region.tree_id] = True

    def check_live(self, call: str, *targets: Any) -> None:
        """Reject a region or partition of a tree this shard deleted, or
        of one another runtime created, at the call that names it."""
        for target in targets:
            region = target.parent_region if isinstance(target, Partition) \
                else target
            live = self._trees.get(region.tree_id)
            if not live:
                raise ValueError(
                    f"{call} on region {region.name}, which "
                    + ("this runtime has deleted" if live is False
                       else "another runtime created"))

    @staticmethod
    def fields_of(fspace: FieldSpace, names: Sequence[str],
                  target: Union[LogicalRegion, Partition]) -> frozenset:
        """The named fields of a call's target.  A name the field space
        was not built with, or that this shard has deleted, is rejected."""
        for name in names:
            if name not in fspace:
                have = ", ".join(f.name for f in fspace.fields) or "none"
                raise ValueError(f"{target.name} has no field {name!r} "
                                 f"(its fields: {have})")
        return frozenset(fspace[n] for n in names)

    def region_req(self, call: str, region: LogicalRegion,
                   fields: Union[str, Sequence[str]], priv: Privilege
                   ) -> Tuple[List[str], CoarseRequirement]:
        """A call on named fields of one region (``fill``, attach and
        detach): the sorted names and the requirement."""
        self.check_live(call, region)
        names = [fields] if isinstance(fields, str) else sorted(fields)
        return names, CoarseRequirement(
            region, self.fields_of(region.field_space, names, region), priv)

    def delete_region(self, region: LogicalRegion) -> None:
        self.check_live("delete_region", region)
        self._trees[region.tree_id] = False
        self._lowered.clear()

    def delete_field(self, region: LogicalRegion, name: str) -> Field:
        self.check_live("delete_field", region)
        field, = self.fields_of(region.field_space, (name,), region)
        self._lowered.clear()
        return field

    # -- launches --------------------------------------------------------------

    def lower(self, fn: Callable, reqs: Sequence[Tuple], group: bool) -> Tuple:
        """A launch's task key, its coarse requirements, the descriptor it
        hashes, and the set of launch domains already found independent.

        The key pins the task function across shards by module and
        qualified name, never by source line; bodies sharing both (lambdas)
        add their ordinal in the driver's order of first launch.  The key
        is computed once per function object (an ordinal, once given,
        never changes).  The rest is memoised per hashable ``reqs`` spec,
        so the descriptor (which the hasher's skeleton reuses) and the
        ``CoarseRequirement`` objects, with their per-colour point
        requirements and class tags, persist from launch to launch; an
        unhashable spec is lowered anew.
        """
        try:
            key = self._keys[fn]
        except (KeyError, TypeError):
            key = self._task_key(fn)
        try:
            # keyed by the targets' uids, which hash in C (a target is a
            # partition or a region, whose uids are counted apart)
            spec = [group]
            for req in reqs:
                target = req[0]
                spec.append((target.uid, isinstance(target, Partition))
                            + tuple(req[1:]))
            spec = tuple(spec)
            hit = self._lowered.get(spec)
        except (TypeError, AttributeError):
            return (key,) + self._lower_uncached(reqs, group)
        if hit is None:
            if len(self._lowered) >= _MAX_MEMO:
                self._lowered.clear()
            hit = self._lowered[spec] = self._lower_uncached(reqs, group)
        return (key,) + hit

    def _task_key(self, fn: Callable) -> str:
        if not hasattr(fn, "__name__"):
            raise TypeError(
                f"task function {fn!r} has no __name__ (a functools.partial "
                f"or a callable object?): launch a named function and pass "
                f"bound values through args=")
        key = f"{fn.__module__}:{fn.__qualname__}"
        codes = self._task_keys.setdefault(key, [])
        code = getattr(fn, "__code__", None)
        if code not in codes:
            codes.append(code)
        if codes.index(code):
            key += f"#{codes.index(code)}"
        if len(self._keys) >= _MAX_MEMO:
            self._keys.clear()
        try:
            self._keys[fn] = key
        except TypeError:               # an unhashable callable
            pass
        return key

    def _lower_uncached(self, reqs: Sequence[Tuple], group: bool) -> Tuple:
        norm = []
        for spec in reqs:
            target, fields, priv = spec[0], spec[1], _privilege(spec[2])
            self.check_live("index_launch" if group else "launch", target)
            is_part = isinstance(target, Partition)
            if is_part and not group:
                raise TypeError(
                    f"launch() takes a region, not partition {target.name}: "
                    f"use index_launch() to launch one point per colour")
            proj = spec[3] if len(spec) > 3 else IDENTITY_PROJECTION
            fspace = (target.parent_region.field_space if is_part
                      else target.field_space)
            names = [fields] if isinstance(fields, str) else sorted(fields)
            fobjs = self.fields_of(fspace, names, target)
            norm.append(CoarseRequirement(target, fobjs, priv,
                                          proj if is_part else None))
        if not group:
            _check_writers("launch", norm)
        desc = tuple((cr.upper, tuple(sorted(f.name for f in cr.fields)),
                      cr.privilege.kind.value)
                     + ((cr.projection.pid if cr.projection else -1,)
                        if group else ()) for cr in norm)
        return tuple(norm), desc, set()

    def index_launch(self, fn: Callable, domain: Sequence[Hashable],
                     reqs: Sequence[Tuple]) -> Tuple:
        """:meth:`lower`, then the domain: not empty, and its points
        independent (:func:`check_group`, once per shape and domain).
        Returns the domain as the call hashes it: a tuple as it is (a
        frontend hands the same one over and over), anything else as a
        list of its points."""
        key, norm, desc, independent = self.lower(fn, reqs, True)
        if type(domain) is not tuple:
            domain = list(domain)
        if not domain:
            raise ValueError(
                f"index_launch of {fn.__name__} over an empty domain — "
                f"launch at least one point (or skip the launch)")
        points = domain if type(domain) is tuple else tuple(domain)
        if points not in independent:
            check_group(fn.__name__, norm, points)
            independent.add(points)
        return key, norm, desc, domain

    # -- traces ------------------------------------------------------------------

    def begin_trace(self, trace_id: int) -> None:
        self._open_trace = (trace_id,)

    def end_trace(self) -> None:
        if not self._open_trace:
            raise ValueError("end_trace() with no trace open: every "
                             "end_trace() closes one begin_trace()")
        self._open_trace = ()

    def finish(self) -> None:
        """The control program returned: no trace may be left open."""
        if self._open_trace:
            raise ValueError(
                f"the control program returned with trace "
                f"{self._open_trace[0]!r} still open: end it with "
                f"end_trace()")
