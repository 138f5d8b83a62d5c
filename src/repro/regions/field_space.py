"""Field spaces: the typed columns of a region.

A Legion region is a table: the index space names its rows, the field space
names its columns.  Fields have stable integer ids so the dependence oracle
can intersect field sets cheaply.
"""

from __future__ import annotations

import itertools
from typing import Dict, Iterable, Tuple

import numpy as np

__all__ = ["Field", "FieldSpace"]

_fs_ids = itertools.count()


class Field:
    """A single named, typed column of a field space."""

    __slots__ = ("fid", "name", "dtype")

    def __init__(self, fid: int, name: str, dtype: np.dtype):
        self.fid = fid
        self.name = name
        self.dtype = dtype

    def __hash__(self) -> int:
        return hash(self.fid)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Field) and other.fid == self.fid

    def __repr__(self) -> str:  # pragma: no cover
        return f"Field({self.name}:{self.dtype}, fid={self.fid})"


class FieldSpace:
    """An ordered collection of named, typed fields.

    Field ids are globally unique, so fields from different field spaces
    never collide in the dependence analysis.
    """

    _next_fid = itertools.count()

    def __init__(self, fields: Iterable[Tuple[str, object]] = (), name: str = ""):
        self.uid = next(_fs_ids)
        self.name = name or f"fspace{self.uid}"
        self.structural_key = self.structural_bytes = None
        self._by_name: Dict[str, Field] = {}
        for fname, dtype in fields:
            self.add_field(fname, dtype)

    def add_field(self, name: str, dtype: object) -> Field:
        """Allocate a new field; names must be unique within the space."""
        if name in self._by_name:
            raise ValueError(f"duplicate field {name!r} in {self.name}")
        field = Field(next(FieldSpace._next_fid), name, np.dtype(dtype))
        self._by_name[name] = field
        return field

    def remove_field(self, name: str) -> None:
        """Deallocate a field: its name leaves the space (each shard's
        own, as it deletes the field)."""
        del self._by_name[name]

    def __contains__(self, name: str) -> bool:
        return name in self._by_name

    def __getitem__(self, name: str) -> Field:
        return self._by_name[name]

    @property
    def fields(self) -> Tuple[Field, ...]:
        return tuple(self._by_name.values())

    def __hash__(self) -> int:
        return hash(self.uid)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, FieldSpace) and other.uid == self.uid

    def __repr__(self) -> str:  # pragma: no cover
        names = ", ".join(self._by_name)
        return f"FieldSpace({self.name}: {names})"
