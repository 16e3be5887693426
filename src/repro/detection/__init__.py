"""The paper's detection methodology (§3).

Identifies sacrificial nameservers from longitudinal zone data alone:

1. **Resolvability analysis** — whether a nameserver had a valid static
   resolution path (glue or a delegated registered domain) on a day —
   :mod:`repro.detection.resolvability`.
2. **Candidate set** — nameservers unresolvable when first referenced by
   any domain, judged from each name's delegation records read once —
   :mod:`repro.detection.candidates`.
3. **Pattern mining** — frequent-substring discovery of renaming idioms —
   :mod:`repro.detection.substrings`.
4. **Test-nameserver removal** — the EMT- registry-testing pattern —
   :mod:`repro.detection.testns`.
5. **Single-repository filter** — :mod:`repro.detection.repository_check`.
6. **Original-nameserver matching** — day-before history join plus
   registered-domain substring test — :mod:`repro.detection.matching`.
7. **Idiom classification and registrar attribution** —
   :mod:`repro.detection.idioms`, :mod:`repro.detection.pipeline`.
8. **Detection engine** — the stages as watermarked operators over
   standing state, folded over a whole database at once or over the
   recorded delta log a day at a time, with identical results —
   :mod:`repro.detection.incremental`.

The pipeline consumes only the observable data sets (zone database and
WHOIS archive) — never the simulator's ground truth.
"""

from repro.detection.candidates import CandidateNameserver, build_candidate_set
from repro.detection.idioms import IdiomClass, IdiomClassifier, known_classifiers
from repro.detection.incremental import (
    IncrementalDetectionEngine,
    IncrementalStage,
    StageContext,
    build_stages,
    dump_engine_state,
    load_engine_state,
)
from repro.detection.matching import MatchResult, OriginalNameserverMatcher
from repro.detection.pipeline import (
    CoverageAnnotations,
    DetectionPipeline,
    PipelineResult,
    SacrificialNameserver,
)
from repro.detection.repository_check import RepositoryMap, SingleRepositoryFilter
from repro.detection.resolvability import ResolvabilityAnalyzer
from repro.detection.substrings import (
    SubstringCounter,
    SubstringPattern,
    mine_substrings,
)
from repro.detection.testns import TestNameserverFilter

__all__ = [
    "CandidateNameserver",
    "build_candidate_set",
    "IdiomClass",
    "IdiomClassifier",
    "known_classifiers",
    "IncrementalDetectionEngine",
    "IncrementalStage",
    "StageContext",
    "build_stages",
    "dump_engine_state",
    "load_engine_state",
    "MatchResult",
    "OriginalNameserverMatcher",
    "CoverageAnnotations",
    "DetectionPipeline",
    "PipelineResult",
    "SacrificialNameserver",
    "RepositoryMap",
    "SingleRepositoryFilter",
    "ResolvabilityAnalyzer",
    "SubstringCounter",
    "SubstringPattern",
    "mine_substrings",
    "TestNameserverFilter",
]
