"""Outside-in layer tracer for fcpso.

The tracer never edits the program.  It replaces module attributes with
timing wrappers, from the outside, and puts every original back on
``uninstall``:

* every public callable that ``fcpso.optimizer`` and ``fcpso.experiments``
  (the orchestrators) import from a layer module, in the orchestrator's
  namespace;
* every public callable held by those layer modules' namespaces, own or
  imported from another layer (``fcpso.swarm`` imports the constriction
  factors, ``fcpso.mutation`` calls ``polynomial_mutate`` through its own
  globals);
* the public methods of classes found there (``ExternalArchive``);
* the callable fields of dataclass instances a traced call returns, when
  the class declares a ``Callable`` field (``ProblemInstance.evaluate``).

A callable is grouped under the layer that defines it: ``fcpso.archive``
is layer ``archive``, ``fcpso.problems.wfg`` is layer ``problems``.
Helpers a layer imports from its own sibling submodules are not wrapped;
their time stays in the caller's self time.  Wrapping is found by
discovery, so a layer whose functions disappear reports zero calls.

Each call is a span.  A span's self time is its duration minus the time
of the traced spans nested in it.  Spans map to *roles*, the named
per-layer metrics (``archive.insert`` ...), by a substring of the
callable's name within its layer.  A span that matches no role is charged
to the role of the span that called it, so ``dominates`` called from
``update_pbest`` is pbest time and ``non_dominated_mask`` called from
``hypervolume`` is hypervolume time; with no caller it goes to the
catch-all ``<layer>.other``.  A role's call count is the number of times
it is entered from outside itself, so a nested ``velocity_constriction``
does not count as a second velocity update.

Counters are flat ``{name: float}`` sums, so the counts of pool workers
(forked from a traced parent, so already wrapped) merge by addition: a
worker writes its counters to ``<spool>/<pid>.json`` whenever its stack
empties, and the parent adds those files in ``collect``.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import sys
import time
import types
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

ORCHESTRATORS = ("fcpso.optimizer", "fcpso.experiments")


def _hv_objectives(args) -> str:
    front = args[0] if args else None
    shape = getattr(front, "shape", None)
    return f".k{shape[-1]}" if shape else ".k?"


def _insert_outcome(result) -> dict[str, float]:
    if isinstance(result, str):
        return {result.replace("-", "_"): 1.0}
    return {}


def _evaluations_used(result) -> dict[str, float]:
    used = getattr(result, "evaluations_used", None)
    return {"evaluations": float(used)} if used is not None else {}


@dataclass(frozen=True)
class Role:
    """A named per-layer metric: spans of ``layer`` whose callable name
    contains one of ``patterns``.  ``split`` appends a suffix computed from
    the call's arguments; ``tally`` counts properties of its result."""

    name: str
    layer: str
    patterns: tuple[str, ...]
    split: Callable | None = None
    tally: Callable | None = None


ROLES = (
    Role("swarm.velocity", "swarm", ("speed", "velocity")),
    Role("swarm.position", "swarm", ("position",)),
    Role("swarm.pbest", "swarm", ("pbest",)),
    Role("swarm.init", "swarm", ("init",)),
    Role("constriction.chi", "constriction", ("chi",)),
    Role("archive.insert", "archive", ("insert",), tally=_insert_outcome),
    Role("archive.leader", "archive", ("leader",)),
    Role("archive.crowding", "archive", ("crowding",)),
    Role("problems.evaluate", "problems", ("evaluate",)),
    Role("mutation.turbulence", "mutation", ("turbulence",)),
    Role("mutation.mutate", "mutation", ("mutate",)),
    Role("optimizer.run", "optimizer", ("run",), tally=_evaluations_used),
    Role("indicators.hv", "indicators", ("hypervolume",), split=_hv_objectives),
    Role("indicators.igd", "indicators", ("igd",)),
    Role("experiments.run_experiment", "experiments", ("run_experiment",)),
    Role("experiments.mann_whitney", "experiments", ("mann_whitney",)),
)


def layer_of(module_name: str) -> str | None:
    """``fcpso.problems.wfg`` -> ``problems``; None outside the package."""
    parts = module_name.split(".")
    if len(parts) < 2 or parts[0] != "fcpso":
        return None
    return parts[1]


def role_for(layer: str, name: str) -> Role | None:
    short = name.rsplit(".", 1)[-1]
    for role in ROLES:
        if role.layer == layer and any(p in short for p in role.patterns):
            return role
    return None


@dataclass(frozen=True)
class _Site:
    layer: str
    name: str
    role: Role | None


class Tracer:
    """Span recorder over fcpso's layers.

    ``only`` restricts wrapping to the listed ``"<namespace>.<attr>"``
    attributes (for example ``"experiments.run"``), with no discovery,
    class or instance wrapping: a stopwatch on a few calls.  ``spool`` is
    the directory forked workers write their counters to.
    """

    def __init__(self, spool: Path, only: tuple[str, ...] | None = None, clock=time.perf_counter):
        self.spool = Path(spool)
        self.clock = clock
        self.only = only
        self.stats: defaultdict[str, float] = defaultdict(float)
        self._stack: list[list] = []
        self._pid = os.getpid()
        self._owner = self._pid
        self._patches: list[tuple[object, str, object]] = []
        self._wrapped: dict[int, Callable] = {}
        self._instance_types: dict[type, list[str]] = {}

    # --- installation -------------------------------------------------------

    def install(self) -> "Tracer":
        import importlib

        self.spool.mkdir(parents=True, exist_ok=True)
        orchestrators = [importlib.import_module(m) for m in ORCHESTRATORS]
        if self.only is not None:
            for target in self.only:
                ns_name, _, attr = target.rpartition(".")
                ns = sys.modules[f"fcpso.{ns_name}"]
                obj = getattr(ns, attr, None)
                if obj is not None:
                    self._patch_callable(ns, attr, obj)
            return self

        namespaces = {m.__name__: m for m in orchestrators}
        for orch in orchestrators:
            for obj in list(vars(orch).values()):
                module = getattr(obj, "__module__", None) or ""
                if layer_of(module) and module != orch.__name__:
                    namespaces.setdefault(module, sys.modules[module])
        for ns in namespaces.values():
            ns_layer = layer_of(ns.__name__)
            for attr, obj in list(vars(ns).items()):
                if attr.startswith("_"):
                    continue
                module = getattr(obj, "__module__", None) or ""
                layer = layer_of(module)
                if layer is None:
                    continue
                if module != ns.__name__ and layer == ns_layer:
                    continue  # a helper from a sibling submodule of the same layer
                if isinstance(obj, type):
                    self._patch_class(obj, layer)
                elif callable(obj):
                    self._patch_callable(ns, attr, obj)
        return self

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        self._wrapped.clear()
        shutil.rmtree(self.spool, ignore_errors=True)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def _patch_callable(self, ns, attr: str, obj) -> None:
        layer = layer_of(getattr(obj, "__module__", "") or "") or "unknown"
        wrapper = self._wrapped.get(id(obj))
        if wrapper is None:
            name = getattr(obj, "__qualname__", attr)
            wrapper = self._wrap(obj, _Site(layer, name, role_for(layer, name)))
            self._wrapped[id(obj)] = wrapper
        self._patches.append((ns, attr, obj))
        setattr(ns, attr, wrapper)

    def _patch_class(self, cls: type, layer: str) -> None:
        if id(cls) in self._wrapped:
            return
        self._wrapped[id(cls)] = cls
        for attr, obj in list(vars(cls).items()):
            if attr.startswith("_") or not isinstance(obj, types.FunctionType):
                continue
            name = f"{cls.__name__}.{attr}"
            self._patches.append((cls, attr, obj))
            setattr(cls, attr, self._wrap(obj, _Site(layer, name, role_for(layer, name))))
        if dataclasses.is_dataclass(cls):
            fields = [f.name for f in dataclasses.fields(cls) if "Callable" in str(f.type)]
            if fields:
                self._instance_types[cls] = fields

    def _wrap(self, fn: Callable, site: _Site) -> Callable:
        enter, leave = self._enter, self._leave

        def traced(*args, **kwargs):
            frame = enter(site, args)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                leave(frame, None)
                raise
            return leave(frame, result)

        traced.__name__ = getattr(fn, "__name__", site.name)
        traced.__qualname__ = getattr(fn, "__qualname__", site.name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        traced.__wrapped__ = fn
        return traced

    def _traced_instance(self, obj, fields: list[str]):
        layer = layer_of(type(obj).__module__) or "unknown"
        changes = {}
        for name in fields:
            fn = getattr(obj, name)
            if getattr(fn, "__wrapped__", None) is None:
                changes[name] = self._wrap(fn, _Site(layer, name, role_for(layer, name)))
        return dataclasses.replace(obj, **changes) if changes else obj

    # --- spans --------------------------------------------------------------

    def _enter(self, site: _Site, args) -> list:
        if os.getpid() != self._pid:
            # first call in a forked worker: drop the parent's counts and stack
            self._pid = os.getpid()
            self.stats = defaultdict(float)
            self._stack = []
        parent = self._stack[-1] if self._stack else None
        if site.role is not None:
            key = site.role.name + (site.role.split(args) if site.role.split else "")
        elif parent is not None:
            key = parent[2]
        else:
            key = f"{site.layer}.other"
        entry = parent is None or parent[2] != key
        frame = [self.clock(), 0.0, key, entry, site]
        self._stack.append(frame)
        return frame

    def _leave(self, frame: list, result):
        end = self.clock()
        stack = self._stack
        if stack and stack[-1] is frame:
            stack.pop()
        start, child, key, entry, site = frame
        duration = end - start
        stats = self.stats
        stats[key + ".s"] += duration - child
        stats["trace.span_self_s"] += duration - child
        if entry:
            stats[key + ".calls"] += 1.0
        if site.role is not None and site.role.tally is not None and result is not None:
            for name, value in site.role.tally(result).items():
                stats[f"{site.role.name}.{name}"] += value
        fields = self._instance_types.get(type(result))
        if fields:
            result = self._traced_instance(result, fields)
        if stack:
            stack[-1][1] += duration
        elif self._pid != self._owner:
            self._spool_out()
        return result

    def _spool_out(self) -> None:
        path = self.spool / f"{self._pid}.json"
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(self.stats))
        os.replace(tmp, path)

    # --- results ------------------------------------------------------------

    def reset(self) -> None:
        self.stats = defaultdict(float)
        for path in self.spool.glob("*.json"):
            path.unlink()

    def collect(self) -> dict[str, float]:
        """This process's counters plus every worker's, worker span time
        kept apart as ``trace.worker_span_self_s``."""
        total = defaultdict(float, self.stats)
        for path in sorted(self.spool.glob("*.json")):
            for key, value in json.loads(path.read_text()).items():
                if key == "trace.span_self_s":
                    key = "trace.worker_span_self_s"
                total[key] += value
        return dict(total)
