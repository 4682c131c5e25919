"""Spans around xmlift's public functions, installed from outside the package.

``Tracer.install`` wraps every public function defined in a layer module
and rebinds the wrapper wherever an xmlift module binds the original: as a
module attribute (``make_group`` imported into ``catalog`` and ``groupoid``)
or as a value in a module-level dict (``cli._DISPATCH``).  A function that
no longer exists is simply not wrapped, so layer totals stay defined.

Each call records a span (function, start, end, parent span, query id,
raised).  Spans stay in memory until ``dump``.  Self time is a span's
duration minus the time its direct child spans cover; calls run on one
thread, so children never overlap.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict

LAYERS = (
    "cli", "fixturefile", "catalog", "groups", "xmod",
    "lifting", "homotopy", "derivations", "groupoid", "report",
)


def _cells(args, kwargs, result):
    return len(args[0] if args else kwargs["table"]) ** 3


# Counters read off a call: name -> (counter, function of the result).
# ``groups.make_group`` counts its input size, so rejected tables count too.
RESULT_COUNTERS = {
    "groups.enumerate_homs": ("groups.enumerate_homs.found", len),
    "derivations.enumerate_derivations": ("derivations.elements", lambda r: r.order),
    "fixturefile.parse_fixture": ("fixturefile.declarations", lambda r: len(r.declarations)),
    "report.render_machine": ("report.bytes", lambda r: len(r.encode())),
    "report.render_human": ("report.bytes", lambda r: len(r.encode())),
}
ENTRY_COUNTERS = {"groups.make_group": ("groups.make_group.cells", _cells)}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._fid: dict[str, int] = {}
        self.spans: list[tuple] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.query = -1
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    # -- installation -----------------------------------------------------------

    def install(self, package: str = "xmlift") -> None:
        wrappers = {}
        for layer in LAYERS:
            mod = sys.modules.get(f"{package}.{layer}")
            if mod is None:
                continue
            for name, fn in vars(mod).items():
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__ and not name.startswith("_"):
                    wrappers[id(fn)] = (fn, self._wrap(fn, f"{layer}.{name}"))
        for modname, mod in list(sys.modules.items()):
            if modname != package and not modname.startswith(package + "."):
                continue
            for name, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, name, hit[1])
                    self._undo.append((mod, name, value, True))
                elif isinstance(value, dict):
                    for key, item in list(value.items()):
                        hit = wrappers.get(id(item))
                        if hit is not None and hit[0] is item:
                            value[key] = hit[1]
                            self._undo.append((value, key, item, False))

    def uninstall(self) -> None:
        for holder, key, original, is_attr in reversed(self._undo):
            if is_attr:
                setattr(holder, key, original)
            else:
                holder[key] = original
        self._undo.clear()

    def _wrap(self, fn, qualname: str):
        fid = self._fid_of(qualname)
        spans, stack, counters = self.spans, self._stack, self.counters
        clock = time.perf_counter
        on_entry = ENTRY_COUNTERS.get(qualname)
        on_result = RESULT_COUNTERS.get(qualname)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            if on_entry is not None:
                _count(counters, on_entry, lambda: on_entry[1](args, kwargs, None))
            raised = True
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                raised = False
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (fid, t0, t1, parent, self.query, raised)
            if on_result is not None:
                _count(counters, on_result, lambda: on_result[1](result))
            return result

        return wrapper

    # -- results ----------------------------------------------------------------

    def _fid_of(self, qualname: str) -> int:
        if qualname not in self._fid:
            self._fid[qualname] = len(self.names)
            self.names.append(qualname)
        return self._fid[qualname]

    def merge(self, names: list[str], spans: list, counters: dict, query: int) -> None:
        """Add spans recorded by another process (a traced CLI child)."""
        base = len(self.spans)
        remap = [self._fid_of(name) for name in names]
        for fid, t0, t1, parent, _, raised in spans:
            self.spans.append((remap[fid], t0, t1, parent + base if parent >= 0 else -1, query, raised))
        for key, value in counters.items():
            self.counters[key] += value

    def export(self) -> dict:
        return {"names": self.names, "spans": self.spans, "counters": dict(self.counters)}

    def totals(self) -> dict[str, float]:
        """Per function and per layer: ``.self_s``, ``.calls`` and ``.errors``.

        A layer error is a raised span whose parent is outside the layer,
        i.e. an exception that leaves the layer.
        """
        spans = self.spans
        child = [0.0] * len(spans)
        for _, t0, t1, parent, _, _ in spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out: dict[str, float] = defaultdict(float)
        for layer in LAYERS:
            for key in ("self_s", "calls", "errors"):
                out[f"{layer}.{key}"] = 0.0
        layer_of = [n.split(".", 1)[0] for n in self.names]
        for i, (fid, t0, t1, parent, _, raised) in enumerate(spans):
            name, layer = self.names[fid], layer_of[fid]
            self_s = t1 - t0 - child[i]
            out[f"{name}.self_s"] += self_s
            out[f"{name}.calls"] += 1
            out[f"{layer}.self_s"] += self_s
            out[f"{layer}.calls"] += 1
            if raised and (parent < 0 or layer_of[spans[parent][0]] != layer):
                out[f"{layer}.errors"] += 1
        for key, value in self.counters.items():
            out[key] += value
        return out

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name,start,end,parent,query,raised\n")
            for fid, t0, t1, parent, query, raised in self.spans:
                fh.write(f"{self.names[fid]},{t0:.9f},{t1:.9f},{parent},{query},{int(raised)}\n")


def _count(counters, spec, value) -> None:
    # a counter whose argument or result changed shape is skipped, not fatal
    try:
        counters[spec[0]] += value()
    except (AttributeError, TypeError, KeyError, IndexError):
        pass
