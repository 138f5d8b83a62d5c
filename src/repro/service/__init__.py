"""repro.service — a persistent shard gang serving streams of programs.

The service layer on top of :mod:`repro.dist`: instead of launching a
gang per program, :class:`DCRService` keeps one
:class:`~repro.service.gang.ServiceGang` alive across many client
:class:`~repro.service.service.Session`\\ s, with admission control, fair
round-robin scheduling, per-shape analysis-template caching
(:mod:`repro.service.templates`), and policy-driven gang recovery.  See
``docs/service.md``.
"""

from .gang import (GANG_BACKENDS, GangFailure, ServiceGang,
                   classify_worker_failure)
from .loadgen import LoadResult, make_shape_pool, run_load
from .service import (AdmissionError, DCRService, JobExpired, JobHandle,
                      Session)
from .templates import AnalysisTemplate, TemplateStore, structural_signature

__all__ = [
    "DCRService", "Session", "JobHandle", "AdmissionError", "JobExpired",
    "ServiceGang", "GangFailure", "GANG_BACKENDS",
    "classify_worker_failure",
    "AnalysisTemplate", "TemplateStore", "structural_signature",
    "LoadResult", "make_shape_pool", "run_load",
]
