"""Tests of the benchmark itself."""

import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
sys.path[:0] = [str(BENCH), str(SRC)]

import cli_child  # noqa: E402
import compare  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("workload", sorted(workloads.INPUTS))
def test_same_seed_same_inputs(workload):
    make = workloads.INPUTS[workload]
    assert make(7) == make(7)
    assert make(7) != make(8)


def test_cold_setup_times_the_import_at_its_own_speed(monkeypatch):
    monkeypatch.setattr(workloads, "COLD_SETUP_REPEATS", 3)
    record = workloads._cold_setup(SRC)
    assert len(record["samples"]) == 3 * workloads.IMPORT_SAMPLES
    assert record["seconds"] > 0 and workloads.Measured.at_nominal(record) > 0


def test_known_defects_join_revalidate_only_on_request():
    kinds = {op["kind"] for op in workloads.revalidate_inputs(1)}
    assert kinds == set(workloads.REVALIDATE_KINDS)
    with_defects = {op["kind"] for op in workloads.revalidate_inputs(1, known_defects=True)}
    assert with_defects == kinds | set(workloads.KNOWN_DEFECT_KINDS)


@pytest.mark.parametrize("workload", ["family-sweep", "revalidate"])
def test_a_pass_leaves_ten_ops_beyond_p75(workload):
    ops = workloads.INPUTS[workload](1)
    assert run.samples_beyond(len(ops), 75) >= 10


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, dt):
        self.now += dt


def test_self_times_on_a_synthetic_span_tree():
    clock = FakeClock()
    tr = tracer.Tracer(clock=clock)
    leaf = tr.wrap("leaf", lambda: clock.advance(1.0), tracer.AGG)

    def outer_body():
        clock.advance(0.5)
        leaf()

    outer = tr.wrap("outer", outer_body, tracer.AGG)

    def child_body():
        clock.advance(2.0)
        leaf()
        outer()

    child = tr.wrap("child", child_body, tracer.SPAN)

    def root_body():
        clock.advance(0.25)
        child()
        leaf()

    tr.wrap("root", root_body, tracer.SPAN)()

    spans = {name: (sid, parent, end - start, own)
             for sid, name, parent, start, end, own, _error in tr.spans}
    root_id, root_parent, root_duration, root_self = spans["root"]
    child_id, child_parent, child_duration, child_self = spans["child"]
    assert (root_parent, child_parent) == (0, root_id)
    assert child_duration == 4.5 and child_self == 2.0
    assert root_duration == 5.75 and root_self == 0.25
    assert tr.aggregates[("leaf", child_id)] == [2, 2.0, 2.0]
    assert tr.aggregates[("leaf", root_id)] == [1, 1.0, 1.0]
    assert tr.aggregates[("outer", child_id)] == [1, 1.5, 0.5]
    summary = tr.summary()
    assert summary["calls"]["leaf"] == 3
    assert summary["self_s"] == {"root": 0.25, "child": 2.0, "leaf": 3.0, "outer": 0.5}


def test_a_raising_span_is_recorded_and_reraises():
    tr = tracer.Tracer(clock=FakeClock())

    def boom():
        raise KeyError("x")

    with pytest.raises(KeyError):
        tr.wrap("boom", boom, tracer.SPAN)()
    assert tr.spans[0][1] == "boom" and tr.spans[0][6] == "KeyError"


def test_percentile_rule():
    assert run.percentile([5, 1, 4, 2, 3], 50) == 3
    assert run.percentile(range(101), 75) == 75
    assert run.percentile([1.0, 2.0], 75) == 1.75
    assert run.percentile([3.0], 90) == 3.0
    # ten samples beyond the percentile take 38 samples for p75, 92 for p90
    assert run.samples_beyond(38, 75) == 10 and run.samples_beyond(37, 75) == 9
    assert run.samples_beyond(92, 90) == 10 and run.samples_beyond(91, 90) == 9


def test_compare_verdicts():
    base = [10.0 + 0.1 * i for i in range(10)]
    assert compare.verdict(base, [x * 0.8 for x in base], "lower", 0.1) == "better"
    assert compare.verdict(base, [x * 1.2 for x in base], "lower", 0.1) == "worse"
    assert compare.verdict(base, [x * 1.05 for x in base], "lower", 0.1) == "unchanged"
    assert compare.verdict(base, [x * 0.8 for x in base], "higher", 0.1) == "worse"
    # nine pairs are too few to claim a gain
    assert compare.verdict(base[:9], [x * 0.8 for x in base[:9]], "lower", 0.1) == "unchanged"
    wide = [1.0, 2.0, 1.0, 2.0, 1.0, 2.0, 1.0, 2.0, 1.0, 2.0]
    assert compare.verdict(wide, [x * 1.05 for x in wide], "lower", 0.1) == "unresolved"


def test_compare_flags_differing_backends():
    def record(backend):
        return {"environment": {"rational_backend": backend},
                "metrics": {"setup_s": {"value": 1.0, "unit": "s"}},
                "unscaled": {"setup_s": 0.5}}

    spec = {"workloads": [{"name": "w"}],
            "end_to_end": [{"name": "setup_s", "better": "lower", "bound": 0.25}]}
    lines = []

    class Out:
        def write(self, text):
            lines.append(text)

    status = compare.compare({("w", 1): record("fractions")}, {("w", 1): record("gmpy2")},
                             spec, out=Out())
    assert status == 1
    assert any("FLAG w seed 1" in line for line in lines)


def test_metric_names_and_units_are_those_of_benchmark_json():
    ops = [{"n": 9, "seconds": 0.5, "scale": 1.0, "ok": True},
           {"n": 14, "seconds": 1.5, "scale": 1.0, "ok": False}]
    measured = workloads.Measured(setup={"seconds": 1.0, "scale": 1.0}, ops=ops, passes=[ops],
                                  peak_rss_mb=3.0)
    assert set(run.end_to_end_metrics(measured, True)) == set(run.units("end_to_end"))
    summary = {"calls": {}, "self_s": {}, "maxima": {}}
    assert set(tracer.layer_metrics(summary, 1.0)) == set(run.units("per_layer"))


def test_times_go_to_the_nominal_speed():
    def record(seconds, samples):
        return speed.at_own_speed({"n": 9, "seconds": seconds, "ok": True},
                                  {"samples": samples, "sampling_s": 1.0})

    slow = speed.NOMINAL_S * 2
    fast, slowed = record(3.0, [speed.NOMINAL_S]), record(5.0, [slow, slow])
    assert (fast["seconds"], fast["scale"]) == (2.0, 1.0)
    assert (slowed["seconds"], slowed["scale"]) == (4.0, 0.5)
    measured = workloads.Measured(setup=record(7.0, [slow]), ops=[fast, slowed],
                                  passes=[[fast, slowed]])
    assert measured.scale == 1 / statistics.fmean([1, 2, 2, 2])
    scaled = run.end_to_end_metrics(measured, scaled=True)
    assert (scaled["setup_s"], scaled["wall_s"]) == (3.0, 2.0 + 2.0)
    unscaled = run.end_to_end_metrics(measured, scaled=False)
    assert (unscaled["setup_s"], unscaled["wall_s"]) == (6.0, 2.0 + 4.0)


def test_sampler_samples_a_short_block_once_and_a_long_one_often():
    with speed.Sampler() as short:
        pass
    assert len(short.samples) == 1
    with speed.Sampler() as long:
        end = time.perf_counter() + 4 * speed.SAMPLE_EVERY_S
        while time.perf_counter() < end:
            pass
    assert len(long.samples) >= 3
    assert 0 < long.sampling_s < 4 * speed.SAMPLE_EVERY_S


def test_overhead_ratio_brackets_each_traced_op():
    measured = workloads.Measured()

    def run_as(seconds):
        def execute(op):
            return {"n": op["n"], "seconds": seconds.pop(0), "ok": True}
        return execute

    plain = run_as([1.0, 3.0, 2.0, 2.0])  # before and after, per op
    traced = run_as([3.0, 4.0])
    for op in ({"n": 9}, {"n": 9}):
        measured.bracketed(op, plain, traced)
    assert measured.overhead == [7.0, 4.0]
    assert measured.overhead_ratio == 7.0 / 4.0
    assert len(measured.ops) == 4  # the untraced runs; the caller keeps the traced ones


def test_reference_loop_leaves_the_collector_as_it_was():
    import gc

    assert gc.isenabled()
    assert speed.reference_seconds() > 0
    assert gc.isenabled()
    gc.disable()
    try:
        speed.reference_seconds()
        assert not gc.isenabled()
    finally:
        gc.enable()


def _cli(args, trace_file=None):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "cli_child.py"), str(SRC), str(trace_file or "-"), *args],
        capture_output=True, timeout=300,
    )
    return proc.returncode, proc.stdout, proc.stderr


@pytest.mark.parametrize("args", [
    ["verify", "--n", "5", "--d", "3"],
    ["verify", "--n", "8", "--infinite"],
])
def test_cli_stdout_is_identical_with_tracing_on_and_off(args, tmp_path):
    plain = _cli(args)
    traced = _cli(args, tmp_path / "trace.json")
    assert plain[0] == 0
    assert traced[:2] == plain[:2]
    last = plain[2].decode().rstrip().rpartition("\n")[2]
    assert last.startswith(cli_child.SPEED_PREFIX)
    assert json.loads(last[len(cli_child.SPEED_PREFIX):])["samples"]
    records = json.loads((tmp_path / "trace.json").read_text())
    assert records["summary"]["calls"]["cli.main"] == 1
    assert records["summary"]["calls"]["certificates.verify_theorem"] == 1


def test_traced_counts_repeat_exactly(tmp_path):
    summaries = []
    for i in range(2):
        _cli(["verify", "--n", "5", "--d", "3"], tmp_path / ("t%d.json" % i))
        summaries.append(json.loads((tmp_path / ("t%d.json" % i)).read_text())["summary"])
    first, second = summaries
    assert first["calls"] == second["calls"]
    assert first["maxima"] == second["maxima"]
    assert first["calls"]["field.mul"] > 0
    assert first["calls"]["cylinders.decompose"] > 0
