"""Spans around the public functions each linemeet module exports.

The wrappers are installed where the names are looked up: functions that a
module imported by name (``sim.plan_iteration``, ``ruling.list_color``) are
patched in the importing module, classes (``EsColState``, ``PowerSubgraph``,
``World`` and the label schemes) are patched on the class.  A name a later
refactor removes is skipped, and its metrics then read zero.

Spans (name, start, end, parent, run id) stay in memory until
:meth:`Tracer.write`.  A layer's self time is its span time minus the time of
its direct child spans.
"""

from __future__ import annotations

from collections import Counter
import json
import time


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self.run_id = -1
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def wrap(self, owner, attr: str, name: str, count=None,
             starts_run: bool = False) -> None:
        """Replace ``owner.attr`` by a recording wrapper.

        ``count(args, result)`` returns ``(counter, amount)`` pairs added to
        :attr:`counts` after each call.
        """
        original = vars(owner).get(attr)
        if original is None:
            return
        if name not in self.names:
            self.names.append(name)
        name_id = self.names.index(name)
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if starts_run:
                self.run_id += 1
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name_id, start, end, parent, self.run_id)
            if count is not None:
                for key, amount in count(args, result):
                    counts[key] += amount
            return result

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds and self seconds.

        A span nested directly in a span of the same name (a scheme
        delegating to another scheme) adds to calls and self time but not
        again to the inclusive time.
        """
        dur = [end - start for _, start, end, _, _ in self.spans]
        child = [0.0] * len(self.spans)
        for i, (_, _, _, parent, _) in enumerate(self.spans):
            if parent >= 0:
                child[parent] += dur[i]
        out = {name: {"calls": 0, "s": 0.0, "self_s": 0.0}
               for name in self.names}
        for i, (name_id, _, _, parent, _) in enumerate(self.spans):
            entry = out[self.names[name_id]]
            entry["calls"] += 1
            entry["self_s"] += dur[i] - child[i]
            if parent < 0 or self.spans[parent][0] != name_id:
                entry["s"] += dur[i]
        return out

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "run"],
                       "names": self.names, "spans": self.spans}, fh)


def install() -> Tracer:
    """Patch every traced layer of linemeet and return the recorder."""
    from linemeet import agent, localengine, ruling, sim, world

    t = Tracer()
    t.wrap(sim, "run", "sim.run", starts_run=True,
           count=lambda a, r: [
               ("sim.rounds", 0 if r.t_rdv is None else r.t_rdv + 1)])
    for module in (sim, agent):
        t.wrap(module, "plan_iteration", "agent.plan_iteration",
               count=lambda a, r: [
                   ("agent.plan_iteration.searching", int(r is not None))])
    t.wrap(ruling.EsColState, "__init__", "ruling.EsColState",
           count=lambda a, r: [("ruling.EsColState.nodes", a[0].coords.size)])
    t.wrap(ruling.EsColState, "output_for", "ruling.output_for")
    t.wrap(ruling, "path_ruling_set", "ruling.path_ruling_set")
    t.wrap(localengine.PowerSubgraph, "__init__", "localengine.PowerSubgraph",
           count=lambda a, r: [
               ("localengine.PowerSubgraph.members", a[0].members.size)])
    for module in (ruling, localengine):
        t.wrap(module, "mis", "localengine.mis")
        t.wrap(module, "list_color", "localengine.list_color",
               count=lambda a, r: [
                   ("localengine.list_color.members", a[0].members.size)])
    t.wrap(world.World, "labels_at", "world.labels_at",
           count=lambda a, r: [("world.labels_at.labels", r.size)])
    pending = [world.LabelScheme]
    while pending:
        cls = pending.pop()
        pending.extend(cls.__subclasses__())
        t.wrap(cls, "labels_at", "world.scheme")
    return t


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Every per-layer metric of BENCHMARK.json but the tracing overhead."""
    totals = tracer.totals()
    counts = tracer.counts
    out: dict[str, float] = {}
    for name in ("sim.run", "agent.plan_iteration", "ruling.EsColState"):
        for key in ("calls", "s", "self_s"):
            out[f"{name}.{key}"] = totals.get(name, {}).get(key, 0)
    for name in ("ruling.path_ruling_set", "ruling.output_for",
                 "localengine.PowerSubgraph", "localengine.mis",
                 "localengine.list_color", "world.labels_at"):
        for key in ("calls", "s"):
            out[f"{name}.{key}"] = totals.get(name, {}).get(key, 0)
    out["world.scheme.s"] = totals.get("world.scheme", {}).get("s", 0.0)
    for key in ("sim.rounds", "agent.plan_iteration.searching",
                "ruling.EsColState.nodes", "localengine.PowerSubgraph.members",
                "localengine.list_color.members", "world.labels_at.labels"):
        out[key] = counts[key]
    self_s = out["sim.run.self_s"]
    out["sim.rounds_per_self_s"] = (out["sim.rounds"] / self_s
                                    if self_s else 0.0)
    plans = out["agent.plan_iteration.searching"]
    out["ruling.EsColState.per_plan"] = (
        out["ruling.EsColState.calls"] / plans if plans else 0.0)
    out["trace.spans"] = len(tracer.spans)
    return out
