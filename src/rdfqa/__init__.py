"""rdfqa: pre-publication quality assessment for RDF datasets.

Ten intrinsic quality metrics over N-Triples/Turtle input, a deterministic
dataset contaminator with a replayable edit manifest, and rank-correlation
analysis for studying metric interdependence.
"""

# read by pyproject.toml and by metrics.py, so bound before the submodules
__version__ = "0.1.0"

from .contaminate import (
    ALL_HEURISTICS,
    ContaminationManifest,
    ContaminationPlan,
    HEURISTIC_TARGETS,
    HeuristicId,
    load_manifest,
    load_plan,
    replay_manifest,
)
from .core.indexing import (
    InstanceIndex,
    PropertyKind,
    SchemaIndex,
    build_instance_index,
    build_schema_index,
)
from .core.model import BlankNode, Dataset, Iri, Literal, Triple, make_dataset
from .core.parsing import (
    ParseError,
    load_dataset,
    merge_datasets,
    parse_dataset,
    serialize_dataset,
)
from .metrics import (
    ALL_METRICS,
    Dictionary,
    MetricId,
    MetricReport,
    MetricValue,
    assess,
    default_dictionary,
    load_dictionary,
)
from .stats import (
    CorrelationMatrix,
    DeltaReport,
    MetricMismatch,
    SpearmanResult,
    compute_delta,
    correlation_matrix,
    spearman_rho,
)

__all__ = [
    "ALL_HEURISTICS",
    "ALL_METRICS",
    "BlankNode",
    "ContaminationManifest",
    "ContaminationPlan",
    "CorrelationMatrix",
    "Dataset",
    "DeltaReport",
    "Dictionary",
    "HEURISTIC_TARGETS",
    "HeuristicId",
    "InstanceIndex",
    "Iri",
    "Literal",
    "MetricId",
    "MetricMismatch",
    "MetricReport",
    "MetricValue",
    "ParseError",
    "PropertyKind",
    "SchemaIndex",
    "SpearmanResult",
    "Triple",
    "assess",
    "build_instance_index",
    "build_schema_index",
    "compute_delta",
    "correlation_matrix",
    "default_dictionary",
    "load_dataset",
    "load_dictionary",
    "load_manifest",
    "load_plan",
    "make_dataset",
    "merge_datasets",
    "parse_dataset",
    "replay_manifest",
    "serialize_dataset",
    "spearman_rho",
]
