"""Spans and counts at the public boundaries of each skeinhc module.

The tracer wraps functions from outside the package: every module that
holds a reference to a wrapped function gets the wrapper, so calls between
modules and inside one module are both recorded.  A span is
(id, name, start, end, parent id, job id); spans stay in memory and are
written as JSON lines when the traced session ends.  Self time is a span's
duration minus the time covered by its child spans.

Run as a script, it executes one ``skeinhc.cli`` call traced and writes the
per-layer numbers to a file:

    python3 perfbench/tracer.py OUT_PREFIX JOB_ID -- gram --source +++ ...

which writes OUT_PREFIX.json (the numbers) and OUT_PREFIX.spans.jsonl.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from pathlib import Path

# (module, attribute) of every function or method that gets a span.
SPANNED = [
    ("scalars", "specialize"),
    ("hecke_clifford", "multiply"),
    ("hecke_clifford", "normalize"),
    ("hecke_clifford", "even_convert"),
    ("hecke_clifford", "theta"),
    ("skein", "HomElement.compose"),
    ("skein", "hom_basis_element"),
    ("skein", "HomElement.rotate_180"),
    ("skein", "HomElement.bend"),
    ("trace_gram", "gram_matrix"),
    ("trace_gram", "gram_rank"),
    ("trace_gram", "matrix_rank"),
    ("trace_gram", "markov_trace"),
    ("trace_gram", "close_last_strand"),
    ("cli", "main"),
]

# Constructors counted without spans: one per arithmetic result.
COUNTED = [
    ("scalars", "ScalarQ.__init__", "scalars.ScalarQ.new"),
    ("scalars", "CyclotomicValue.__init__", "scalars.CyclotomicValue.new"),
]

# Memo tables read when the session ends.
MEMOS = [
    ("close", "trace_gram", "_CLOSE_CACHE"),
    ("expand", "hecke_clifford", "_EXPAND_CACHE"),
    ("vwalk", "hecke_clifford", "_VWALK_CACHE"),
    ("column", "skein", "_COLUMN_CACHE"),
    ("inverse", "skein", "_INVERSE_CACHE"),
]

# The per-layer metrics a traced run reports, named
# <module>.<function>.<stat>, with units.
PER_LAYER = [
    ("scalars.ScalarQ.new.calls", "count"),
    ("scalars.CyclotomicValue.new.calls", "count"),
    ("scalars.specialize.calls", "count"),
    ("scalars.specialize.self_s", "s"),
    ("hecke_clifford.multiply.calls", "count"),
    ("hecke_clifford.multiply.self_s", "s"),
    ("hecke_clifford.normalize.calls", "count"),
    ("hecke_clifford.normalize.self_s", "s"),
    ("hecke_clifford.even_convert.calls", "count"),
    ("hecke_clifford.even_convert.self_s", "s"),
    ("hecke_clifford.theta.calls", "count"),
    ("hecke_clifford.theta.self_s", "s"),
    ("skein.HomElement.compose.calls", "count"),
    ("skein.HomElement.compose.self_s", "s"),
    ("skein.hom_basis_element.self_s", "s"),
    ("skein.HomElement.rotate_180.self_s", "s"),
    ("skein.HomElement.bend.self_s", "s"),
    ("trace_gram.gram_matrix.total_s", "s"),
    ("trace_gram.gram_rank.spec_total_s", "s"),
    ("trace_gram.gram_rank.generic_total_s", "s"),
    ("trace_gram.matrix_rank.self_s", "s"),
    ("trace_gram.markov_trace.calls", "count"),
    ("trace_gram.markov_trace.self_s", "s"),
    ("trace_gram.close_last_strand.calls", "count"),
    ("trace_gram.close_last_strand.self_s", "s"),
    ("cli.main.total_s", "s"),
    ("cli.main.self_s", "s"),
    ("memo.close.entries", "count"),
    ("memo.expand.entries", "count"),
    ("memo.vwalk.entries", "count"),
    ("memo.column.entries", "count"),
    ("memo.inverse.entries", "count"),
    ("memo.reduced_word.hit_ratio", "ratio"),
]


def _span_name(module: str, attr: str, args) -> str:
    name = f"{module}.{attr}"
    if name == "trace_gram.gram_rank":  # split by the kind of point
        point = args[1] if len(args) > 1 else None
        return name + (".generic" if point == "generic" else ".spec")
    return name


class Tracer:
    """Records spans and counts; ``install`` patches the loaded package."""

    def __init__(self):
        self.spans: list = []
        self.job = -1
        self._stack: list = []  # [span id, time covered by children]
        self.calls: dict = {}
        self.self_s: dict = {}
        self.total_s: dict = {}

    def _spanned(self, module: str, attr: str, fn):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            name = _span_name(module, attr, args)
            sid = len(spans)
            spans.append(None)
            parent = stack[-1][0] if stack else None
            frame = [sid, 0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[sid] = (sid, name, start, end, parent, self.job)
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                self.calls[name] = self.calls.get(name, 0) + 1
                self.total_s[name] = self.total_s.get(name, 0.0) + duration
                self.self_s[name] = self.self_s.get(name, 0.0) + duration - frame[1]

        return wrapper

    def _counted(self, name: str, fn):
        calls = self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self):
        for module, attr, name in COUNTED:
            _replace(module, attr, lambda fn, n=name: self._counted(n, fn))
        for module, attr in SPANNED:
            _replace(module, attr, lambda fn, m=module, a=attr: self._spanned(m, a, fn))

    def metrics(self) -> dict:
        """Raw per-layer numbers; calls and seconds add across processes."""
        out = {}
        for name, count in self.calls.items():
            out[f"{name}.calls"] = count
        for name, value in self.self_s.items():
            out[f"{name}.self_s"] = value
        for name, value in self.total_s.items():
            out[f"{name}.total_s"] = value
        for label, module, attr in MEMOS:
            table = getattr(_module(module), attr, None)
            out[f"memo.{label}.entries"] = len(table) if table is not None else 0
        info = _module("hecke_clifford").reduced_word.cache_info()
        out["memo.reduced_word.hits"] = info.hits
        out["memo.reduced_word.misses"] = info.misses
        return out

    def write_spans(self, path: Path):
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                if span is not None:
                    fh.write(json.dumps(span) + "\n")


def per_layer(raw: dict) -> dict:
    """Map raw numbers to the named per-layer metrics (value, unit)."""
    values = dict(raw)
    values["trace_gram.gram_rank.spec_total_s"] = raw.get("trace_gram.gram_rank.spec.total_s", 0.0)
    values["trace_gram.gram_rank.generic_total_s"] = raw.get(
        "trace_gram.gram_rank.generic.total_s", 0.0
    )
    lookups = raw.get("memo.reduced_word.hits", 0) + raw.get("memo.reduced_word.misses", 0)
    values["memo.reduced_word.hit_ratio"] = (
        raw.get("memo.reduced_word.hits", 0) / lookups if lookups else 0.0
    )
    return {name: (values.get(name, 0), unit) for name, unit in PER_LAYER}


def _module(name: str):
    return importlib.import_module(f"skeinhc.{name}")


def _replace(module: str, attr: str, make_wrapper):
    """Swap ``module.attr`` (a function or ``Class.method``) for its wrapper
    wherever a loaded skeinhc module binds the same object."""
    owner = _module(module)
    parts = attr.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    original = getattr(owner, parts[-1])
    wrapper = make_wrapper(original)
    setattr(owner, parts[-1], wrapper)
    if len(parts) > 1:
        return
    for name, mod in list(sys.modules.items()):
        if name == "skeinhc" or name.startswith("skeinhc."):
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)


def main(argv: list[str]) -> int:
    prefix, job_id, sep, *cli_args = argv
    if sep != "--":
        raise SystemExit("usage: tracer.py OUT_PREFIX JOB_ID -- CLI-ARGS...")
    import skeinhc.cli  # noqa: F401  (loads every module before patching)

    tracer = Tracer()
    tracer.job = int(job_id)
    tracer.install()
    code = _module("cli").main(cli_args)
    sys.stdout.flush()
    tracer.write_spans(Path(prefix + ".spans.jsonl"))
    with open(prefix + ".json", "w", encoding="utf-8") as fh:
        json.dump(tracer.metrics(), fh)
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
