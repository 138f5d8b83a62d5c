"""The Legion-like implicitly parallel runtime with DCR (functional layer)."""

from .attach import (attach_array, attach_file, attach_file_group,
                     detach_array, detach_file, detach_file_group)
from .frontdoor import PRIVILEGES
from .future import Future, FutureMap
from .mapper import (AutoReplicationMapper, BlockedMapper, DefaultMapper,
                     Mapper, PerTaskMapper)
from .runtime import Context, RegionArg, Runtime
from .store import FieldAccessor, PrivilegeError, RegionStore

__all__ = [
    "attach_array", "attach_file", "attach_file_group",
    "detach_array", "detach_file", "detach_file_group",
    "Future", "FutureMap",
    "AutoReplicationMapper", "BlockedMapper", "DefaultMapper", "Mapper",
    "PerTaskMapper",
    "Context", "PRIVILEGES", "RegionArg", "Runtime",
    "FieldAccessor", "PrivilegeError", "RegionStore",
]
