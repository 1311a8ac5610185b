"""Call counting and timing hooks for the benchmark's traced run.

Each hook replaces one public hiermon function in the namespace its caller
looks it up in (``hiermon.sim.sensor_flush`` is the name ``sim.run`` calls),
so nothing inside ``src/`` changes.  A wrapper records calls and inclusive
time per metric name, and the time spent in wrapped children per parent, so
a function's self time is its inclusive time minus that.  A hook whose
module or attribute no longer exists is skipped and reports 0 calls.
"""

from __future__ import annotations

import functools
import importlib
from collections import defaultdict
from time import perf_counter

#: metric name -> "module:attribute" places where callers look the function up.
HOOKS: dict[str, tuple[str, ...]] = {
    "sim.run": ("hiermon.cli:run",),
    "sim.check_losslessness": ("hiermon.cli:check_losslessness",),
    "sim.verify_against_model": ("hiermon.cli:verify_against_model",),
    "sim.write_trace_csv": ("hiermon.cli:write_trace_csv",),
    "sim.write_machines_csv": ("hiermon.cli:write_machines_csv",),
    "channel.sensor_on_app_tick": ("hiermon.sim:sensor_on_app_tick",),
    "channel.sensor_flush": ("hiermon.sim:sensor_flush",),
    "channel.channel_on_publish": ("hiermon.sim:channel_on_publish",),
    "channel.channel_flush": ("hiermon.sim:channel_flush",),
    "report.synthetic_service_report": (
        "hiermon.channel:synthetic_service_report",
        "hiermon.sim:synthetic_service_report",
    ),
    "report.make_node_report": ("hiermon.channel:make_node_report", "hiermon.sim:make_node_report"),
    "report.report_level": ("hiermon.channel:report_level",),
    "report.aggregate": ("hiermon.channel:aggregate", "hiermon.report:aggregate"),
    "report.serialize": ("hiermon.report:serialize",),
    "report.parse": ("hiermon.report:parse",),
    "loadmodel.hierarchy_loads": (
        "hiermon.cli:hierarchy_loads",
        "hiermon.sim:hierarchy_loads",
        "hiermon.loadmodel:hierarchy_loads",
    ),
    "model.propagation_time": ("hiermon.cli:propagation_time", "hiermon.sim:propagation_time"),
    "model.staleness_time": ("hiermon.cli:staleness_time", "hiermon.sim:staleness_time"),
    "cli.sweep_preset": ("hiermon.cli:sweep_preset",),
    "cli.max_machines": ("hiermon.cli:max_machines",),
}


class Tracer:
    """Installs hooks for the given metric names and accumulates their counts.

    ``keep_return`` names hooks whose latest return value is kept in
    ``returns`` (the benchmark reads event counts off ``sim.run``'s trace).
    """

    def __init__(self, names, keep_return=()):
        self.names = tuple(names)
        self.keep_return = frozenset(keep_return)
        self.missing: list[str] = []
        self.returns: dict[str, object] = {}
        self._originals: list[tuple[object, str, object]] = []
        self._stack: list[str] = []
        self.reset()

    def reset(self) -> None:
        self.calls: dict[str, int] = defaultdict(int)
        self.seconds: dict[str, float] = defaultdict(float)
        self.child_seconds: dict[str, float] = defaultdict(float)
        self.child_calls: dict[tuple[str, str], int] = defaultdict(int)
        self.returns.clear()

    def self_seconds(self, name: str) -> float:
        return self.seconds[name] - self.child_seconds[name]

    def _wrap(self, name: str, fn):
        stack = self._stack
        keep = name in self.keep_return

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            stack.append(name)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                self.calls[name] += 1
                self.seconds[name] += elapsed
                if parent is not None:
                    self.child_seconds[parent] += elapsed
                    self.child_calls[(parent, name)] += 1
            if keep:
                self.returns[name] = result
            return result

        return wrapper

    def install(self) -> None:
        for name in self.names:
            for target in HOOKS[name]:
                module_name, attr = target.split(":")
                try:
                    module = importlib.import_module(module_name)
                except ImportError:
                    self.missing.append(target)
                    continue
                original = getattr(module, attr, None)
                if not callable(original):
                    self.missing.append(target)
                    continue
                self._originals.append((module, attr, original))
                setattr(module, attr, self._wrap(name, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._originals):
            setattr(module, attr, original)
        self._originals.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()
