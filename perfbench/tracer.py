"""Span tracer for the traced benchmark run.

The tracer wraps the public entry points of each toc layer from outside the
package, so nothing under src/ changes.  A span records its name, start,
end and the span that was open when it began; spans stay in memory and are
written out when the round ends.  Wrappers only read the clock and bump a
counter: they draw from no RNG and touch no array, so a traced run must
produce a byte-identical run.csv (the benchmark checks this).

Names imported into another module with `from x import f` are patched at
the import site as well, because patching the defining module alone would
miss those calls.
"""

from __future__ import annotations

import json
import time

import numpy as np


class Tracer:
    def __init__(self):
        # [name, start, end, parent index, Var count at start, at end]
        self.spans = []
        self._open = []
        self.vars_created = 0
        self._undo = []

    def _wrap(self, fn, name):
        spans, stack, clock = self.spans, self._open, time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            span = [name if isinstance(name, str) else name(args), 0.0, 0.0,
                    stack[-1] if stack else -1, tracer.vars_created, 0]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                span[5] = tracer.vars_created
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def patch(self, owner, attr, name):
        orig = owner.__dict__[attr]
        if isinstance(orig, classmethod):
            new = classmethod(self._wrap(orig.__func__, name))
        else:
            new = self._wrap(orig, name)
        self._undo.append((owner, attr, orig))
        setattr(owner, attr, new)

    def count_vars(self, var_cls):
        orig = var_cls.__dict__["__init__"]
        tracer = self

        def counting_init(var, *args, **kwargs):
            tracer.vars_created += 1
            orig(var, *args, **kwargs)

        self._undo.append((var_cls, "__init__", orig))
        var_cls.__init__ = counting_init

    def uninstall(self):
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "vars_start", "vars_end"],
                       "spans": self.spans}, fh, separators=(",", ":"))


def _encode_name(args):
    return "curiosity.encode_b1" if np.ndim(args[1]) == 2 else "curiosity.encode_batch"


def install(tracer: Tracer):
    """Wrap every layer boundary the per-layer metrics are read from."""
    import toc.curiosity
    import toc.env.physics
    import toc.env.tasks
    import toc.numerics.network
    import toc.sac
    import toc.trainer
    from toc.curiosity import CuriosityModule
    from toc.env.tasks import MicroTouchEnv
    from toc.metrics import RunLog
    from toc.numerics.autodiff import Var
    from toc.replay import ReplayBuffer
    from toc.sac import SacAgent
    from toc.trainer import Trainer

    p = tracer.patch
    p(MicroTouchEnv, "step", "env.step")
    p(MicroTouchEnv, "render", "env.render")
    p(MicroTouchEnv, "reset", "env.reset")
    p(toc.env.tasks, "circle_polygon_contact", "env.contact")
    # tasks.step imports solve_contacts from physics at call time
    p(toc.env.physics, "solve_contacts", "env.solve")

    p(ReplayBuffer, "push", "replay.push")
    p(ReplayBuffer, "sample", "replay.sample")

    p(CuriosityModule, "update", "curiosity.update")
    p(CuriosityModule, "encode", _encode_name)
    p(CuriosityModule, "errors_from_latents", "curiosity.errors_from_latents")

    p(SacAgent, "act", "sac.act")
    p(SacAgent, "critic_update", "sac.critic_update")
    p(SacAgent, "actor_update", "sac.actor_update")
    p(SacAgent, "alpha_update", "sac.alpha_update")

    for module in (toc.curiosity, toc.sac, toc.numerics.network):
        p(module, "apply_network", "numerics.apply_network")
    for module in (toc.curiosity, toc.sac):
        p(module, "adam_step", "numerics.adam_step")
    tracer.count_vars(Var)

    p(toc.trainer, "save_checkpoint", "checkpoint.save")
    p(toc.trainer, "load_checkpoint", "checkpoint.load")

    # the layer has no public entry point: these are the Trainer methods the
    # CLI itself drives (`toc run` -> run/save, `toc eval` -> restore/_evaluate)
    p(Trainer, "run", "trainer.run")
    p(Trainer, "_update", "trainer.update")
    p(Trainer, "_evaluate", "trainer.evaluate")
    p(Trainer, "save", "trainer.save")
    p(Trainer, "restore", "trainer.restore")

    for attr in ("__init__", "write", "close"):
        p(RunLog, attr, "metrics.runlog")


# metric -> unit, in the order BENCHMARK.json lists them
LAYER_UNITS = {
    "env.step.p50_ms": "ms",
    "env.step.p99_ms": "ms",
    "env.step.self_s": "s",
    "env.render.p50_ms": "ms",
    "env.contact.per_step": "calls/step",
    "env.contact.total_s": "s",
    "env.solve.total_s": "s",
    "env.reset.total_s": "s",
    "replay.push.p50_us": "us",
    "replay.push.total_s": "s",
    "replay.sample.p50_ms": "ms",
    "replay.sample.p99_ms": "ms",
    "replay.sample.total_s": "s",
    "replay.bytes": "bytes",
    "replay.bytes_per_transition": "bytes",
    "curiosity.update.p50_ms": "ms",
    "curiosity.update.p99_ms": "ms",
    "curiosity.update.total_s": "s",
    "curiosity.update.self_s": "s",
    "curiosity.encode_b1.p50_ms": "ms",
    "curiosity.encode_batch.p50_ms": "ms",
    "curiosity.errors_from_latents.p50_ms": "ms",
    "sac.act.p50_ms": "ms",
    "sac.critic_update.p50_ms": "ms",
    "sac.actor_update.p50_ms": "ms",
    "sac.alpha_update.total_s": "s",
    "numerics.var.per_update": "vars/update",
    "numerics.var.per_act": "vars/call",
    "numerics.apply_network.per_update": "calls/update",
    "numerics.adam_step.total_s": "s",
    "checkpoint.save_s": "s",
    "checkpoint.bytes": "bytes",
    "checkpoint.load_s": "s",
    "trainer.save_s": "s",
    "trainer.restore_s": "s",
    "trainer.update.self_s": "s",
    "trainer.evaluate.self_s": "s",
    "trainer.loop.self_s": "s",
    "metrics.runlog.total_s": "s",
    "trace.overhead_frac": "ratio",
    "trace.coverage_frac": "ratio",
}


def _pct(values, q):
    # a layer the workload never enters reports 0: it spent no time there
    return float(np.percentile(values, q)) if values else 0.0


def layer_metrics(spans, wall_s):
    """Per-layer figures from one traced round.

    Returns every LAYER_UNITS entry except the ones only the caller can
    measure: trace.overhead_frac (needs the untraced round), replay.bytes*
    and checkpoint.bytes (need the live objects and files).
    """
    n = len(spans)
    child_s = [0.0] * n
    for name, start, end, parent, _, _ in spans:
        if parent >= 0:
            child_s[parent] += end - start
    dur, self_s, count, vars_in = {}, {}, {}, {}
    for i, (name, start, end, parent, v0, v1) in enumerate(spans):
        dur.setdefault(name, []).append(end - start)
        self_s[name] = self_s.get(name, 0.0) + (end - start - child_s[i])
        count[name] = count.get(name, 0) + 1
        vars_in[name] = vars_in.get(name, 0) + (v1 - v0)

    def ancestor_named(i, target):
        i = spans[i][3]
        while i >= 0:
            if spans[i][0] == target:
                return True
            i = spans[i][3]
        return False

    nets_in_update = sum(
        1 for i, s in enumerate(spans)
        if s[0] == "numerics.apply_network" and ancestor_named(i, "trainer.update")
    )
    # time inside a named layer: top-level spans other than the Trainer.run
    # loop, plus those directly under it; the rest is loop glue and harness
    covered = sum(
        end - start for name, start, end, parent, _, _ in spans
        if name != "trainer.run" and (parent < 0 or spans[parent][0] == "trainer.run")
    )

    def d(name):
        return dur.get(name, [])

    def total(name):
        return float(sum(d(name)))

    def per(numer, name):
        return numer / count[name] if count.get(name) else 0.0

    ms, us = 1e3, 1e6
    return {
        "env.step.p50_ms": _pct(d("env.step"), 50) * ms,
        "env.step.p99_ms": _pct(d("env.step"), 99) * ms,
        "env.step.self_s": self_s.get("env.step", 0.0),
        "env.render.p50_ms": _pct(d("env.render"), 50) * ms,
        "env.contact.per_step": per(count.get("env.contact", 0), "env.step"),
        "env.contact.total_s": total("env.contact"),
        "env.solve.total_s": total("env.solve"),
        "env.reset.total_s": total("env.reset"),
        "replay.push.p50_us": _pct(d("replay.push"), 50) * us,
        "replay.push.total_s": total("replay.push"),
        "replay.sample.p50_ms": _pct(d("replay.sample"), 50) * ms,
        "replay.sample.p99_ms": _pct(d("replay.sample"), 99) * ms,
        "replay.sample.total_s": total("replay.sample"),
        "curiosity.update.p50_ms": _pct(d("curiosity.update"), 50) * ms,
        "curiosity.update.p99_ms": _pct(d("curiosity.update"), 99) * ms,
        "curiosity.update.total_s": total("curiosity.update"),
        "curiosity.update.self_s": self_s.get("curiosity.update", 0.0),
        "curiosity.encode_b1.p50_ms": _pct(d("curiosity.encode_b1"), 50) * ms,
        "curiosity.encode_batch.p50_ms": _pct(d("curiosity.encode_batch"), 50) * ms,
        "curiosity.errors_from_latents.p50_ms": _pct(d("curiosity.errors_from_latents"), 50) * ms,
        "sac.act.p50_ms": _pct(d("sac.act"), 50) * ms,
        "sac.critic_update.p50_ms": _pct(d("sac.critic_update"), 50) * ms,
        "sac.actor_update.p50_ms": _pct(d("sac.actor_update"), 50) * ms,
        "sac.alpha_update.total_s": total("sac.alpha_update"),
        "numerics.var.per_update": per(vars_in.get("trainer.update", 0), "trainer.update"),
        "numerics.var.per_act": per(vars_in.get("sac.act", 0), "sac.act"),
        "numerics.apply_network.per_update": per(nets_in_update, "trainer.update"),
        "numerics.adam_step.total_s": total("numerics.adam_step"),
        "checkpoint.save_s": _pct(d("checkpoint.save"), 50),
        "checkpoint.load_s": _pct(d("checkpoint.load"), 50),
        "trainer.save_s": _pct(d("trainer.save"), 50),
        "trainer.restore_s": _pct(d("trainer.restore"), 50),
        "trainer.update.self_s": self_s.get("trainer.update", 0.0),
        "trainer.evaluate.self_s": self_s.get("trainer.evaluate", 0.0),
        "trainer.loop.self_s": self_s.get("trainer.run", 0.0),
        "metrics.runlog.total_s": total("metrics.runlog"),
        "trace.coverage_frac": covered / wall_s,
    }


def deep_bytes(obj):
    """Bytes held by obj and everything it references, each object once.

    Walks containers, instance dicts and slots, so it measures any buffer
    layout (a list of tuples today, ring arrays later) without knowing it.
    An array view is charged for its base array.
    """
    import sys

    seen = set()
    stack = [obj]
    total = 0
    while stack:
        o = stack.pop()
        if isinstance(o, np.ndarray) and o.base is not None:
            o = o.base
        if id(o) in seen or isinstance(o, (type, np.random.Generator)):
            continue
        seen.add(id(o))
        total += sys.getsizeof(o)
        if isinstance(o, dict):
            stack.extend(o.keys())
            stack.extend(o.values())
        elif isinstance(o, (list, tuple, set, frozenset)):
            stack.extend(o)
        elif not isinstance(o, (np.ndarray, str, bytes, int, float, bool)):
            if hasattr(o, "__dict__"):
                stack.append(o.__dict__)
            for slot in getattr(type(o), "__slots__", ()):
                if hasattr(o, slot):
                    stack.append(getattr(o, slot))
    return total
