"""Per-layer timing of vercore from outside: wrap public functions, aggregate spans.

Every vercore module imports its collaborators by name (`from .isa import
decode`), so replacing `isa.decode` alone would miss the calls made through
`pipeline.decode` or `golden.decode`.  `Tracer.install` therefore rebinds
every attribute of every loaded vercore module that refers to the original
function object; methods are replaced on their class.  Spans are kept as
running totals per layer, not as individual records, because the hot layers
are entered tens of thousands of times per iteration.
"""

from __future__ import annotations

import importlib
import sys
import time
from dataclasses import dataclass
from typing import Callable, Optional

# (layer name, module, attribute path).  The layer name is what the metrics
# are called; "Cls.method" paths are patched on the class.
LAYERS = (
    ("pipeline.run_core", "vercore.pipeline", "run_core"),
    ("pipeline.step_cycle", "vercore.pipeline", "step_cycle"),
    ("golden.run", "vercore.golden", "run"),
    ("golden.step", "vercore.golden", "step"),
    ("mul.tick", "vercore.mul", "tick"),
    ("mul.mul_result", "vercore.mul", "mul_result"),
    ("memory.read_word", "vercore.memory", "MemoryImage.read_word"),
    ("memory.is_initialized", "vercore.memory", "MemoryImage.is_initialized"),
    ("memory.write_bytes", "vercore.memory", "MemoryImage.write_bytes"),
    ("memory.write_byte", "vercore.memory", "MemoryImage.write_byte"),
    ("memory.clone", "vercore.memory", "MemoryImage.clone"),
    ("isa.decode", "vercore.isa", "decode"),
    ("cosim.lockstep", "vercore.cosim", "lockstep"),
    ("cosim.compare_traces", "vercore.cosim", "compare_traces"),
    ("cosim.cpi", "vercore.cosim", "cpi"),
    ("progs.assemble", "vercore.progs", "assemble"),
    ("tracetools.vcd_write", "vercore.tracetools", "vcd_write"),
    ("tracetools.vcd_parse", "vercore.tracetools", "vcd_parse"),
    ("tracetools.vcd_to_csv", "vercore.tracetools", "vcd_to_csv"),
    ("tracetools.diff_reg_trace", "vercore.tracetools", "diff_reg_trace"),
    ("cli.cmd_run", "vercore.cli", "cmd_run"),
    ("cli.cmd_sim", "vercore.cli", "cmd_sim"),
    ("cli.cmd_vcd2csv", "vercore.cli", "cmd_vcd2csv"),
    ("cli.cmd_diff_trace", "vercore.cli", "cmd_diff_trace"),
)


@dataclass
class LayerStats:
    calls: int = 0
    total_s: float = 0.0  # inclusive span time
    self_s: float = 0.0   # span time not covered by child spans


class Tracer:
    """Aggregated spans for the functions in LAYERS.

    `observers` maps a layer name to a callable that sees each call's
    arguments before the span opens (used to classify multiplier ticks).
    Use as a context manager: entering patches, leaving restores.
    """

    def __init__(self, observers: Optional[dict[str, Callable]] = None):
        self.layers = {name: LayerStats() for name, _, _ in LAYERS}
        self._observers = observers or {}
        self._open: list[float] = []  # per open span: time of finished children
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn: Callable) -> Callable:
        stats = self.layers[name]
        observe = self._observers.get(name)
        open_spans = self._open
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if observe is not None:
                observe(*args, **kwargs)
            open_spans.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                children = open_spans.pop()
                stats.calls += 1
                stats.total_s += elapsed
                stats.self_s += elapsed - children
                if open_spans:
                    open_spans[-1] += elapsed

        return traced

    def _set(self, owner: object, attr: str, value: object) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def __enter__(self) -> "Tracer":
        modules = [m for n, m in list(sys.modules.items())
                   if n == "vercore" or n.startswith("vercore.")]
        try:
            for name, module_name, path in LAYERS:
                owner = importlib.import_module(module_name)
                if "." in path:
                    cls_name, attr = path.split(".")
                    cls = getattr(owner, cls_name)
                    self._set(cls, attr, self._wrap(name, vars(cls)[attr]))
                    continue
                original = getattr(owner, path)
                traced = self._wrap(name, original)
                for module in modules:
                    for key in [k for k, v in vars(module).items()
                                if v is original]:
                        self._set(module, key, traced)
        except BaseException:
            self.__exit__(None, None, None)
            raise
        return self

    def __exit__(self, *exc) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)
