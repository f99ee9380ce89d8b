"""Run one ``ontomesh`` command with every public function traced.

    PYTHONPATH=src python3 perfbench/tracer.py SPANS.json <ontomesh args...>

Before calling the CLI entry point, the public functions and methods of each
``ontomesh`` layer are replaced by wrappers that record a span: name, start,
end, parent span and a count (bytes for store and export calls, 1 for the
rest). Functions are replaced in every module that imported them by name,
because that is where their callers look them up. Spans stay in memory and
are written to SPANS.json when the command returns; the exit code is the
command's own.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from pathlib import Path

LAYERS = ("corpus", "graph", "store", "canonical", "analytics",
          "exports", "heatmap", "report", "cli")

# Per-record accessors whose wrapper would cost more than their body; their
# time stays with the caller.
UNTRACED = {"corpus.AttributeOccurrence.key"}


def _object_size(store, content_hash: str) -> int:
    return (store.objects_dir / f"{content_hash}.json").stat().st_size


def _put_bytes(args, kwargs, result) -> int:
    return _object_size(args[0], result)


def _get_bytes(args, kwargs, result) -> int:
    store = args[0]
    return _object_size(store, store._load_index()[args[1]]["hash"])


def _returned_bytes(args, kwargs, result) -> int:
    return int(result)


COUNTS = {
    "store.ArtifactStore.put": _put_bytes,
    "store.ArtifactStore.get": _get_bytes,
    "exports.export_graph": _returned_bytes,
    "exports.export_matrix_csv": _returned_bytes,
    "heatmap.render_heatmap_svg": _returned_bytes,
    "report.render_report": _returned_bytes,
}


def _export_format(args, kwargs) -> str:
    return args[1] if len(args) > 1 else kwargs["format"]


# Spans of these functions carry an argument in their name.
SUFFIXES = {"exports.export_graph": _export_format}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.spans: list[list] = []
        self._stack: list[int] = []

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, name: str, fn):
        count_fn = COUNTS.get(name)
        suffix_fn = SUFFIXES.get(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = f"{name}[{suffix_fn(args, kwargs)}]" if suffix_fn else name
            span = [self._name_id(label), 0.0, 0.0, stack[-1] if stack else -1, 0]
            index = len(spans)
            spans.append(span)
            stack.append(index)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            span[4] = count_fn(args, kwargs, result) if count_fn else 1
            return result

        return traced

    def install(self) -> None:
        """Wrap every public function and method of the layers."""
        modules = {layer: importlib.import_module(f"ontomesh.{layer}") for layer in LAYERS}
        modules["__init__"] = importlib.import_module("ontomesh")
        replaced: dict[int, object] = {}
        for layer in LAYERS:
            module = modules[layer]
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapper = self.wrap(f"{layer}.{attr}", obj)
                    replaced[id(obj)] = wrapper
                    setattr(module, attr, wrapper)
                elif inspect.isclass(obj):
                    self._wrap_methods(f"{layer}.{attr}", obj)
        # Modules that imported a function by name hold the original.
        for module in modules.values():
            for attr, obj in list(vars(module).items()):
                if id(obj) in replaced and inspect.isfunction(obj):
                    setattr(module, attr, replaced[id(obj)])

    def _wrap_methods(self, prefix: str, cls) -> None:
        for attr, raw in list(vars(cls).items()):
            name = f"{prefix}.{attr}"
            if attr.startswith("_") or name in UNTRACED:
                continue
            if isinstance(raw, classmethod):
                setattr(cls, attr, classmethod(self.wrap(name, raw.__func__)))
            elif isinstance(raw, staticmethod):
                setattr(cls, attr, staticmethod(self.wrap(name, raw.__func__)))
            elif inspect.isfunction(raw):
                setattr(cls, attr, self.wrap(name, raw))

    def write(self, path: Path) -> None:
        path.write_text(json.dumps({"names": self.names, "spans": self.spans}), encoding="utf-8")


def main(argv: list[str]) -> int:
    out, cli_args = Path(argv[0]), argv[1:]
    tracer = Tracer()
    tracer.install()
    from ontomesh import cli

    try:
        code = cli.main(cli_args)
    finally:
        tracer.write(out)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
