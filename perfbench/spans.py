"""Spans and counters recorded around the program's public functions.

A Recorder wraps functions of the rankcrypt modules from outside: the
program's source is not touched.  Each wrapped call becomes a span with a
name, start, end, parent span and the id of the benchmark operation that
caused it; the hot field primitives and the F_2 echelon only bump counters,
because a span per field multiplication would cost more than the work.

A name that other modules import directly (qsum into decoder and attack,
decode and max_radius into gpt and attack, right_kernel into qpoly) is
replaced in every module that holds it, so the span is recorded wherever
the name is looked up.  Everything is restored when the recording ends.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
import time
from collections import Counter, defaultdict

# (module, attribute, span name); "Class.method" patches the class.
TIMED = (
    ("linalg", "rref", "linalg.rref"),
    ("linalg", "rank", "linalg.rank"),
    ("linalg", "right_kernel", "linalg.right_kernel"),
    ("linalg", "solve_left", "linalg.solve_left"),
    ("linalg", "MatFqm.__matmul__", "linalg.matmul"),
    ("linalg", "MatFq.__matmul__", "linalg.matmul"),
    ("linalg", "vec_mat", "linalg.vec_mat"),
    ("linalg", "expand_fq_system", "linalg.expand_fq_system"),
    ("linalg", "MatFq.inverse", "linalg.inverse"),
    ("qpoly", "LinPoly.kernel", "qpoly.kernel"),
    ("codes", "qsum", "codes.qsum"),
    ("decoder", "decode", "decoder.decode"),
    ("decoder", "max_radius", "decoder.max_radius"),
    ("gpt", "keygen", "gpt.keygen"),
    ("gpt", "encrypt", "gpt.encrypt"),
    ("gpt", "decrypt", "gpt.decrypt"),
    ("attack", "stabilizer", "attack.stabilizer"),
    ("attack", "attack_extension", "attack.attack_extension"),
    ("attack", "attack_overbeck", "attack.attack_overbeck"),
)

_MISSING = object()


def _program_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "rankcrypt" or name.startswith("rankcrypt."))]


class Recorder:
    """In-memory spans and counters for one traced batch."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, op id]
        self.counts: Counter = Counter()
        self.op = 0
        self._open = -1
        self._undo: list[tuple] = []

    # -- wrappers ------------------------------------------------------------

    def _timed(self, name, fn):
        spans = self.spans

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self._open
            span = [name, time.perf_counter(), 0.0, parent, self.op]
            self._open = len(spans)
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._open = parent

        return wrapper

    def _counting_decode(self, fn):
        counts = self.counts

        @functools.wraps(fn)
        def decode(*args, **kwargs):
            res = fn(*args, **kwargs)
            if not res.ok:
                counts["decoder.decode.fail"] += 1
            return res

        return decode

    def _field_counters(self, cls):
        counts = self.counts
        mul, mac_row, frob_row = cls.mul, cls.mac_row, cls.frob_row

        def counted_mul(ctx, a, b):
            counts["fields.mul.calls"] += 1
            return mul(ctx, a, b)

        def counted_mac_row(ctx, acc, a, row):
            counts["fields.mac_row.elems"] += len(row)
            return mac_row(ctx, acc, a, row)

        def counted_frob_row(ctx, row, i=1):
            counts["fields.frob_row.elems"] += len(row)
            return frob_row(ctx, row, i)

        return {"mul": counted_mul, "mac_row": counted_mac_row, "frob_row": counted_frob_row}

    def _counting_echelon_add(self, fn):
        counts = self.counts

        def add(ech, row):
            counts["linalg.bitechelon.rows"] += 1
            raised = fn(ech, row)
            if raised:
                counts["linalg.bitechelon.useful"] += 1
            return raised

        return add

    # -- installation --------------------------------------------------------

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, vars(owner).get(attr, _MISSING)))
        setattr(owner, attr, value)

    def _replace_everywhere(self, orig, new):
        for mod in _program_modules():
            for attr, val in list(vars(mod).items()):
                if val is orig:
                    self._set(mod, attr, new)

    @contextlib.contextmanager
    def installed(self, ctx):
        """Patch the program for the duration of the block; ctx is the
        workload's field context, whose class gets the field counters."""
        mods = {m.__name__.rpartition(".")[2]: m for m in _program_modules()}
        try:
            for modname, attr, name in TIMED:
                mod = mods[modname]
                if "." in attr:
                    clsname, meth = attr.split(".")
                    cls = getattr(mod, clsname)
                    self._set(cls, meth, self._timed(name, getattr(cls, meth)))
                    continue
                orig = getattr(mod, attr)
                fn = self._counting_decode(orig) if name == "decoder.decode" else orig
                self._replace_everywhere(orig, self._timed(name, fn))
            for meth, fn in self._field_counters(type(ctx)).items():
                self._set(type(ctx), meth, fn)
            ech = mods["linalg"]._BitEchelon
            self._set(ech, "add", self._counting_echelon_add(ech.add))
            yield self
        finally:
            while self._undo:
                owner, attr, old = self._undo.pop()
                if old is _MISSING:
                    delattr(owner, attr)
                else:
                    setattr(owner, attr, old)

    # -- results ---------------------------------------------------------------

    def layer_times(self) -> tuple[Counter, dict]:
        """(calls per span name, self milliseconds per span name).  Self
        time is a span's duration minus the time its child spans cover."""
        covered = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        calls: Counter = Counter()
        self_ms: dict = defaultdict(float)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            calls[name] += 1
            self_ms[name] += (end - start - covered[i]) * 1e3
        return calls, self_ms

    def write_spans(self, path, t0: float) -> None:
        """One JSON object per line, times in milliseconds from t0."""
        with open(path, "w") as f:
            for i, (name, start, end, parent, op) in enumerate(self.spans):
                f.write(json.dumps({
                    "id": i, "name": name, "op": op,
                    "parent": None if parent < 0 else parent,
                    "start_ms": round((start - t0) * 1e3, 4),
                    "end_ms": round((end - t0) * 1e3, 4),
                }) + "\n")
