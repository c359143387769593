"""Certified construction of peak functions from approximate barriers.

The package derives admissible constants from a barrier hypothesis, builds
the radius/tolerance schedule, encloses the series weights with rigorous
tails, certifies every inequality the construction needs, and verifies
peaking of the assembled series on concrete barrier families.
"""

from .certificates import CertificateReport, run_all
from .enclosure import ComplexEnclosure, Enclosure
from .errors import (BuildRefusedError, ConfigError, DomainError,
                     FamilyAuditError, InfeasibleParametersError,
                     InvalidHypothesisError, InvalidParameterError,
                     PeakFnError, ToleranceFailureError)
from .families import (audit_family, disk_exponential_family, family_by_name,
                       make_grid, synthetic_family)
from .hypothesis import (Constants, HypothesisConstants, adjust_C, adjust_t,
                         choose_D, choose_L, choose_M, derive_constants,
                         derive_pq)
from .schedule import Schedule
from .series import (CaseLabel, EvalResult, PeakSeries, build, load_series,
                     save_series)
from .weights import WeightEngine

__version__ = "0.1.0"


def active_backend() -> str:
    """Name of the kernel implementation, always "pure".

    There is one implementation; the name stays because perfbench records
    it with every run and refuses to compare runs of different backends.
    """
    return "pure"


__all__ = [
    "BuildRefusedError",
    "CaseLabel",
    "CertificateReport",
    "ComplexEnclosure",
    "ConfigError",
    "Constants",
    "DomainError",
    "Enclosure",
    "EvalResult",
    "FamilyAuditError",
    "HypothesisConstants",
    "InfeasibleParametersError",
    "InvalidHypothesisError",
    "InvalidParameterError",
    "PeakFnError",
    "PeakSeries",
    "Schedule",
    "ToleranceFailureError",
    "WeightEngine",
    "active_backend",
    "adjust_C",
    "adjust_t",
    "audit_family",
    "build",
    "choose_D",
    "choose_L",
    "choose_M",
    "derive_constants",
    "derive_pq",
    "disk_exponential_family",
    "family_by_name",
    "load_series",
    "make_grid",
    "run_all",
    "save_series",
    "synthetic_family",
    "__version__",
]
