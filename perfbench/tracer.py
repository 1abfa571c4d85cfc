"""Outside-in tracing of one wstirling job.

The benchmark cannot change the program, so this module wraps the program's
public functions from outside, after import and before the job runs:

* every public function of each layer module, under the name
  ``<layer>.<function>``; a name that another module re-binds with
  ``from .x import y`` (``matrices.first_kind``, ``genfunc.second_kind``) is
  replaced by the same wrapper, so calls through either name are seen;
* the ``RingValue`` operators on the class (``__add__``/``__radd__`` as
  ``ring.add``, ``__mul__``/``__rmul__`` as ``ring.mul``, ``exact_div``,
  ``render``), ``WeightSpec.eval``, ``RingMatrix.__mul__`` and the two
  ``StirlingTable`` entry points, split by the table's method.

Each wrapped call appends one span (name, start, end, parent) to flat arrays
that stay in memory until the job ends; the job id is the same for every
span of a child and is stored once with them.  ``RingValue.coerce`` runs
about twice per ring operation, so it is only counted, not spanned.

Self time is derived from the stored spans afterwards: a span's duration
minus the durations of its direct children (calls are nested on one thread,
so children never overlap).  Busy time of a group (a layer, or one entry
point such as ``matrices.determinant``) is the summed duration of its
outermost spans, those with no ancestor in the same group.
"""

from __future__ import annotations

import array
import functools
import importlib
import struct
import time
import types

LAYERS = ("ring", "symfunc", "weights", "stirling", "genfunc", "matrices",
          "tableaux", "combinat", "cli")

# Busy-time groups: each layer, plus the entry points that per-layer metrics
# name on their own.  A span belongs to every group whose prefix its name has.
GROUPS = tuple((layer, layer + ".") for layer in LAYERS) + (
    ("stirling.table_row.definition", "stirling.table.definition."),
    ("stirling.table_row.recurrence", "stirling.table.recurrence."),
    ("matrices.determinant", "matrices.determinant"),
    ("matrices.matmul", "matrices.matmul"),
    ("cli.command", "cli.cmd_"),
)

_SPAN_HEADER = struct.Struct("<4sII")  # magic, job-id length, span count


class Tracer:
    def __init__(self):
        self.names: list = []
        self._ids: dict = {}
        self.name = array.array("i")
        self.parent = array.array("i")
        self.start = array.array("d")
        self.end = array.array("d")
        self._stack = [-1]
        self.counts = {"ring.coerce.calls": 0, "ring.mul.term_pairs": 0,
                       "symfunc.dp_steps": 0, "tableaux.objects": 0,
                       "combinat.objects": 0}
        self._wrapped: dict = {}

    def _name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _span(self, name: str, fn, before=None, after=None):
        """Wrapper recording one span per call; before(args) and after(result)
        add work counts at the same boundary."""
        nid = self._name_id(name)
        clock = time.perf_counter
        stack, names, parents = self._stack, self.name, self.parent
        starts, ends = self.start, self.end

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            if before is not None:
                before(args)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if after is not None:
                after(result)
            return result

        return wrapper

    # -- installation ------------------------------------------------------------

    def install(self) -> None:
        """Wrap every layer of an imported wstirling package."""
        modules = {layer: importlib.import_module(f"wstirling.{layer}") for layer in LAYERS}
        for module in modules.values():
            for attr, value in list(vars(module).items()):
                if attr.startswith("_") or not _is_layer_function(value):
                    continue
                wrapper = self._wrapped.get(value)
                if wrapper is None:
                    wrapper = self._wrapped[value] = self._function_wrapper(value)
                setattr(module, attr, wrapper)
        self._install_methods(modules)

    def _function_wrapper(self, fn):
        layer = fn.__module__.rsplit(".", 1)[-1]
        name = f"{layer}.{fn.__name__}"
        counts = self.counts
        if name == "symfunc.homogeneous_upto":
            def counted(t, xs):
                xs = list(xs)
                counts["symfunc.dp_steps"] += max(t, 0) * len(xs)
                return fn(t, xs)
            return self._span(name, functools.wraps(fn)(counted))
        if name == "symfunc.elementary_all":
            def counted(xs):
                xs = list(xs)
                counts["symfunc.dp_steps"] += len(xs) * (len(xs) + 1) // 2
                return fn(xs)
            return self._span(name, functools.wraps(fn)(counted))
        if layer in ("tableaux", "combinat") and fn.__name__.startswith("enumerate_"):
            key = f"{layer}.objects"

            def after(result):
                counts[key] += len(result)
            return self._span(name, fn, after=after)
        return self._span(name, fn)

    def _install_methods(self, modules) -> None:
        ring = modules["ring"].RingValue
        counts = self.counts

        def pairs(args):
            a, b = args
            other = len(b.terms) if isinstance(b, ring) else (1 if b else 0)
            counts["ring.mul.term_pairs"] += len(a.terms) * other

        mul = self._span("ring.mul", ring.__mul__, before=pairs)
        add = self._span("ring.add", ring.__add__)
        ring.__mul__ = ring.__rmul__ = mul
        ring.__add__ = ring.__radd__ = add
        ring.exact_div = self._span("ring.exact_div", ring.exact_div)
        ring.render = self._span("ring.render", ring.render)
        coerce = ring.coerce

        def counted_coerce(value):
            counts["ring.coerce.calls"] += 1
            return coerce(value)
        ring.coerce = staticmethod(counted_coerce)

        spec = modules["weights"].WeightSpec
        spec.eval = self._span("weights.eval", spec.eval)
        matrix = modules["matrices"].RingMatrix
        matrix.__mul__ = self._span("matrices.matmul", matrix.__mul__)

        table = modules["stirling"].StirlingTable
        for attr in ("value", "row"):
            by_method = {method: self._span(f"stirling.table.{method}.{attr}",
                                             getattr(table, attr))
                         for method in ("definition", "recurrence")}

            def dispatch(self_, *args, _by=by_method):
                return _by[self_.method](self_, *args)
            setattr(table, attr, dispatch)

    # -- results -----------------------------------------------------------------

    def summary(self) -> dict:
        """Per-name call counts and self times, busy time per group, and the
        work counts, all derived from the stored spans."""
        n_names = len(self.names)
        masks = [_group_mask(name) for name in self.names]
        calls = [0] * n_names
        self_s = [0.0] * n_names
        busy = [0.0] * len(GROUPS)
        names, parents, starts, ends = self.name, self.parent, self.start, self.end
        count = len(starts)
        covered = array.array("d", bytes(8 * count))
        inside = array.array("i", bytes(4 * count))  # groups open at this span, its own included
        for idx in range(count):
            nid = names[idx]
            parent = parents[idx]
            dur = ends[idx] - starts[idx]
            mask = masks[nid]
            outer = inside[parent] if parent >= 0 else 0
            inside[idx] = outer | mask
            fresh = mask & ~outer
            while fresh:
                bit = fresh & -fresh
                busy[bit.bit_length() - 1] += dur
                fresh ^= bit
            if parent >= 0:
                covered[parent] += dur
            calls[nid] += 1
        for idx in range(count):
            self_s[names[idx]] += ends[idx] - starts[idx] - covered[idx]
        return {"calls": dict(zip(self.names, calls)),
                "self_s": dict(zip(self.names, self_s)),
                "busy_s": {GROUPS[i][0]: busy[i] for i in range(len(GROUPS)) if busy[i]},
                "counts": dict(self.counts),
                "spans": count}

    def write_spans(self, path: str, job_id: str) -> None:
        """Write the spans once, as a header, the name table and four arrays."""
        blob = job_id.encode()
        table = "\n".join(self.names).encode()
        with open(path, "wb") as handle:
            handle.write(_SPAN_HEADER.pack(b"SPN1", len(blob), len(self.start)))
            handle.write(blob)
            handle.write(struct.pack("<I", len(table)))
            handle.write(table)
            for column in (self.name, self.parent, self.start, self.end):
                column.tofile(handle)


def _group_mask(name: str) -> int:
    return sum(1 << i for i, (_, prefix) in enumerate(GROUPS) if name.startswith(prefix))


def _is_layer_function(value) -> bool:
    if isinstance(value, types.FunctionType):
        module = value.__module__
    elif isinstance(value, functools._lru_cache_wrapper):
        module = value.__wrapped__.__module__
    else:
        return False
    return module.startswith("wstirling.") and module.rsplit(".", 1)[-1] in LAYERS

