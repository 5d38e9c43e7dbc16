"""The benchmark's per-layer tracer wraps vercore functions by name; a rename
in vercore must fail here, not only in the benchmark's coverage guard."""

import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load_perfbench(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look themselves up
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("layer,module_name,path",
                         _load_perfbench("tracer").LAYERS)
def test_traced_layer_is_a_vercore_function(layer, module_name, path):
    owner = importlib.import_module(module_name)
    if "." in path:
        cls_name, attr = path.split(".")
        fn = vars(getattr(owner, cls_name)).get(attr)
    else:
        fn = getattr(owner, path, None)
    # isa.decode is wrapped by lru_cache; the tracer wraps the wrapper.
    assert fn is not None and inspect.isfunction(inspect.unwrap(fn)), \
        f"{layer}: {module_name}.{path} is gone"
    assert fn.__module__ == module_name, \
        f"{layer}: {module_name}.{path} is defined in {fn.__module__}"


def test_decode_is_the_one_cache_the_benchmark_counts():
    """The benchmark clears and reads isa.decode's lru_cache to report its
    hit ratio, so every model must decode through that one cache."""
    from vercore import cosim, golden, isa, pipeline
    decode = isa.decode
    assert inspect.isfunction(decode.__wrapped__)
    assert decode.cache_info().maxsize == 8192
    assert golden.decode is pipeline.decode is cosim.decode is decode
    first = decode(0x00A00513)
    decode.cache_clear()
    again = decode(0x00A00513)
    assert again == first and again is not first  # no second memo
    assert decode(0x00A00513) is again
    info = decode.cache_info()
    assert (info.hits, info.misses, info.currsize) == (1, 1, 1)


def test_lockstep_calls_every_layer_the_benchmark_requires():
    """The benchmark's coverage guard fails a workload when one of its
    layers is never called, or when the pipeline steps a cycle or the
    golden model a commit other than once; a change in vercore that trips
    the guard must fail here too.  This run spans two lockstep windows."""
    from vercore import cosim, progs
    with _load_perfbench("tracer").Tracer() as tracer:
        verdict = cosim.lockstep(progs.benchmark_program(16), 100_000)
    assert verdict.passed and verdict.cycles > cosim.WINDOW_CYCLES
    missed = [name for name in _load_perfbench("workloads").CrcHash.layers
              if tracer.layers[name].calls == 0]
    assert missed == []
    assert tracer.layers["pipeline.step_cycle"].calls == verdict.cycles
    assert tracer.layers["golden.step"].calls == verdict.retired


def test_the_trace_round_trip_calls_every_layer_the_benchmark_requires(
        tmp_path):
    """The same guard over one operation of the benchmark's trace round
    trip, which runs `run`, `sim --vcd`, `vcd2csv` and `diff-trace` through
    cli.main on files in tmp_path."""
    workload = _load_perfbench("workloads").TraceRoundtrip(1, True, tmp_path)
    try:
        with _load_perfbench("tracer").Tracer() as tracer:
            (op,) = workload.run(workload.build(1))
    finally:
        workload.close()
    assert op.error == ""
    missed = [name for name in workload.layers
              if tracer.layers[name].calls == 0]
    assert missed == []
    assert tracer.layers["pipeline.step_cycle"].calls == op.cycles
    assert tracer.layers["golden.step"].calls == op.retired


def _cpi_stack(name, tmp_path):
    """perfbench's CPI stack over iteration 0 of a tiny workload."""
    workloads = _load_perfbench("workloads")
    return workloads.cpi_stack(workloads.make(name, 0, True, tmp_path).build(0))


@pytest.mark.parametrize("name,programs", [("crc_hash", 1), ("corpus", 65)])
def test_the_cpi_stack_explains_every_cycle(name, programs, tmp_path):
    """The benchmark's CPI stack reads the recorded flush_ifid,
    global_stall and bubble_idex signals, which only its own smoke tests
    run otherwise: every program halts cleanly, and the causes and the
    retired instructions add up to the cycles with nothing left over."""
    ops, stack = _cpi_stack(name, tmp_path)
    assert len(ops) == programs
    assert [op.error for op in ops if op.error] == []
    assert stack["other"] == 0


def test_the_crc_hash_cpi_stack_is_pinned(tmp_path):
    _, stack = _cpi_stack("crc_hash", tmp_path)
    assert dict(stack) == {"cycles": 1280, "retired": 948, "flush": 216,
                           "mul": 96, "load_use": 16, "fill": 4, "other": 0}
