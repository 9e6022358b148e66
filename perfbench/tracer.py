"""Run one phononherald CLI stage with a span around every public layer function.

Usage: python3 perfbench/tracer.py SPANS_JSON -- <phononherald CLI arguments>

The program itself carries no tracing. This bootstrap imports it, wraps the
public module-level functions of each layer, rebinds every name that refers
to an original function (including names other modules imported directly,
such as ``calibrate.build_outcome_table`` or the ``fock`` functions that
``protocol`` imports), runs ``phononherald.cli.main`` and writes the spans
kept in memory to SPANS_JSON when the stage ends. ``summarize`` turns the
span list into per-function and per-layer figures.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import os
import sys
import threading
import time

LAYERS = ("protocol", "rng", "fock", "gaussian", "detection", "tags",
          "analysis", "calibrate", "cli")


# Work counts taken from a call's arguments and result: fn(args, kwargs, result).
ITEMS = {
    "rng.uniforms": lambda a, k, r: {"variates": len(a[1])},
    "protocol.sample_trials": lambda a, k, r: {"trials": r.trial_count,
                                               "records": len(r)},
    "protocol.simulate_thermometry": lambda a, k, r: {"pulses": 2 * r.pulses_per_color},
    "tags.write_tagstream": lambda a, k, r: {"bytes": os.path.getsize(a[1])},
    "tags.read_tagstream": lambda a, k, r: {"bytes": os.path.getsize(a[0])},
}


class Recorder:
    """Keeps spans (id, name, start, end, parent id, thread id, items) in memory.

    A span opened on a worker thread with no open span of its own gets the
    innermost open span of the main thread as parent: the sampler's pool
    threads run inside ``protocol.sample_trials``.
    """

    def __init__(self):
        self.spans = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack = self._stack()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name, fn):
        items = ITEMS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:
                parent = self._main_stack[-1] if self._main_stack else None
            sid = next(self._ids)
            stack.append(sid)
            counts = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                if items is not None:
                    counts = items(args, kwargs, result)
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                self.spans.append((sid, name, start, end, parent,
                                   threading.get_ident(), counts))

        return traced


def install(recorder: Recorder) -> None:
    """Wrap every public function of each layer and rebind every name of it."""
    wrapped = {}
    for layer in LAYERS:
        mod = importlib.import_module(f"phononherald.{layer}")
        for attr, obj in vars(mod).items():
            if (not attr.startswith("_") and inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__):
                wrapped[obj] = recorder.wrap(f"{layer}.{attr}", obj)
    for modname, mod in list(sys.modules.items()):
        if modname == "phononherald" or modname.startswith("phononherald."):
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    setattr(mod, attr, wrapped[obj])


def _union(intervals) -> float:
    total, cur_start, cur_end = 0.0, None, None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def summarize(spans) -> dict:
    """Per function and per layer: calls, wall time covered (``s``), time
    summed over threads (``thread_s``), self time (``self_s``: duration
    minus the part its child spans cover, on any thread) and summed counts.
    ``non_cli_s`` is the wall time covered by spans of layers other than cli."""
    children = {}
    for span in spans:
        children.setdefault(span[4], []).append(span)
    funcs, layers = {}, {}
    for sid, name, start, end, _parent, _thread, counts in spans:
        f = funcs.setdefault(name, {"calls": 0, "intervals": [], "thread_s": 0.0,
                                    "self_s": 0.0, "items": {}})
        f["calls"] += 1
        f["intervals"].append((start, end))
        f["thread_s"] += end - start
        kids = [(max(c[2], start), min(c[3], end)) for c in children.get(sid, ())]
        f["self_s"] += (end - start) - _union([k for k in kids if k[1] > k[0]])
        for key, value in (counts or {}).items():
            f["items"][key] = f["items"].get(key, 0) + value
        layers.setdefault(name.split(".")[0], []).append((start, end))
    out = {"functions": {}, "layers": {}}
    for name, f in sorted(funcs.items()):
        out["functions"][name] = {"calls": f["calls"], "s": _union(f["intervals"]),
                                  "thread_s": f["thread_s"], "self_s": f["self_s"],
                                  **f["items"]}
    for layer in LAYERS:
        intervals = layers.get(layer, [])
        out["layers"][layer] = {"calls": len(intervals), "s": _union(intervals)}
    out["non_cli_s"] = _union([(s[2], s[3]) for s in spans
                               if not s[1].startswith("cli.")])
    return out


def main(argv) -> int:
    if len(argv) < 3 or argv[1] != "--":
        print(__doc__.splitlines()[2], file=sys.stderr)
        return 2
    out_path, cli_args = argv[0], argv[2:]
    recorder = Recorder()
    install(recorder)
    cli = sys.modules["phononherald.cli"]
    try:
        return cli.main(cli_args)
    finally:
        with open(out_path, "w") as fh:
            json.dump({"spans": recorder.spans}, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
