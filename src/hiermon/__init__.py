"""Capacity and latency analysis of hierarchical publish-subscribe monitoring trees.

The names in ``__all__`` load lazily: each is imported from its home module
on first access (PEP 562), so ``import hiermon`` loads none of them and a
program that never touches the simulator never loads it.
"""

__version__ = "0.1.0"

#: Exported name -> the module it is defined in.
_EXPORTS = {
    "DEFAULT_COEFFICIENTS": "hiermon.loadmodel",
    "SATURATED": "hiermon.model",
    "HierarchyConfig": "hiermon.model",
    "LatencyBound": "hiermon.model",
    "LoadCoefficients": "hiermon.loadmodel",
    "SimConfig": "hiermon.sim",
    "SimTrace": "hiermon.sim",
    "hierarchy_loads": "hiermon.loadmodel",
    "machines_total": "hiermon.model",
    "run": "hiermon.sim",
}

__all__ = [*_EXPORTS, "__version__"]


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = globals()[name] = getattr(import_module(module), name)  # later lookups skip this hook
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
