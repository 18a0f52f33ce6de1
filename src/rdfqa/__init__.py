"""rdfqa: pre-publication quality assessment for RDF datasets.

Ten intrinsic quality metrics over N-Triples/Turtle input, a deterministic
dataset contaminator with a replayable edit manifest, and rank-correlation
analysis for studying metric interdependence.

Importing the package imports none of its modules: each name in
``__all__``, and each submodule, is bound on first access (PEP 562), so a
process pays only for the modules it uses. ``from rdfqa import X``,
``rdfqa.X`` and ``import *`` all work.
"""

from importlib import import_module

# read by pyproject.toml and by metrics.py
__version__ = "0.1.0"

_EXPORTS = {
    "contaminate": ("ALL_HEURISTICS", "ContaminationManifest", "ContaminationPlan",
                    "HEURISTIC_TARGETS", "HeuristicId", "load_manifest", "load_plan",
                    "replay_manifest"),
    "core.indexing": ("InstanceIndex", "PropertyKind", "SchemaIndex",
                      "build_instance_index", "build_schema_index"),
    "core.model": ("BlankNode", "Dataset", "Iri", "Literal", "Triple", "make_dataset"),
    "core.parsing": ("ParseError", "load_dataset", "merge_datasets", "parse_dataset",
                     "serialize_dataset"),
    "metrics": ("ALL_METRICS", "Dictionary", "MetricId", "MetricReport", "MetricValue",
                "assess", "default_dictionary", "load_dictionary"),
    "stats": ("CorrelationMatrix", "DeltaReport", "MetricMismatch", "SpearmanResult",
              "compute_delta", "correlation_matrix", "spearman_rho"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = frozenset({"cli", "contaminate", "core", "fixtures", "metrics", "reporting",
                         "stats"})

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    if name in _SUBMODULES:
        # importing a submodule binds it here, so this runs once per name
        return import_module(f".{name}", __name__)
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f".{module}", __name__), name)
    return value

