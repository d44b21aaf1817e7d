"""Tests of the benchmark harness's own logic.

    python3 -m pytest -q perfbench
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import floquetdd  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import stats  # noqa: E402
import tracer as tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


# -- self time on nested spans ---------------------------------------------------


def _span(name, start, end, parent, leaf_s=0.0):
    return tracing.Span(name, start, end, parent, 0, leaf_s)


def test_self_time_subtracts_children_and_leaves():
    spans = [
        _span("root", 0.0, 10.0, -1, leaf_s=0.5),
        _span("a", 1.0, 4.0, 0),
        _span("a.inner", 2.0, 3.0, 1),
        _span("b", 5.0, 7.0, 0, leaf_s=0.25),
    ]
    assert tracing.self_times(spans) == pytest.approx([10.0 - 3.0 - 2.0 - 0.5, 2.0, 1.0, 1.75])


def test_self_time_counts_overlapping_children_once():
    spans = [_span("root", 0.0, 10.0, -1), _span("x", 1.0, 4.0, 0), _span("y", 3.0, 6.0, 0)]
    assert tracing.self_times(spans)[0] == pytest.approx(5.0)


def test_self_times_of_a_traced_call_add_up_to_its_duration():
    drive = floquetdd.DriveParams(omega=1e10, rabi=2e9, omega_eg=9e9)
    geometry = floquetdd.AtomGeometry(**workloads.rydberg_geometry())
    tr = tracing.Tracer()
    with tr:
        floquetdd.validity.timescale_report(drive, geometry, floquetdd.BathParams(0.0), 512)
    assert floquetdd.validity.timescale_report.__name__ == "timescale_report"  # restored
    names = [s.name for s in tr.spans]
    assert names == ["validity.timescale_report", "floquet.floquet_solve", "floquet.propagate_period"]
    assert [s.parent for s in tr.spans] == [-1, 0, 1]
    own = tracing.self_times(tr.spans)
    leaves = sum(s.leaf_s for s in tr.spans)
    assert sum(own) + leaves == pytest.approx(tr.spans[0].duration, rel=1e-9)
    assert tr.leaves["bath.omega_dd"][0] == 1
    metrics = tracing.per_layer_metrics(tr, {})
    assert metrics["floquet.floquet_solve.sample_steps"]["value"] == 512
    assert metrics["floquet.floquet_solve.unique_ratio"]["value"] == 1.0


# -- percentile and sample-count rule ----------------------------------------------


def test_nearest_rank_percentiles():
    values = list(range(100, 0, -1))
    assert stats.nearest_rank(values, 50) == 50
    assert stats.nearest_rank(values, 90) == 90
    assert stats.nearest_rank([7.0], 90) == 7.0


def test_p90_needs_ten_samples_beyond_it():
    assert stats.samples_beyond(100, 90) == 10
    assert stats.samples_beyond(99, 90) == 9
    assert stats.min_samples(90) == worker.MIN_ITEMS == 100
    assert stats.min_samples(50) == 20


def _payload(times, wall=None):
    return {"item_s": times, "item_wall_s": wall or times, "block_scales": [1.0], "peak_rss_mb": 60.0}


def test_end_to_end_reports_p90_sample_count():
    times = [0.001 * (k + 1) for k in range(120)]
    nominal = stats.REF_NOMINAL_S
    setup = [(0.5, nominal), (0.7, nominal), (0.6, nominal)]
    metrics, detail = run.end_to_end(setup, _payload(times))
    assert metrics["item_p90_ms"]["value"] == pytest.approx(108.0)
    assert metrics["setup_s"]["value"] == pytest.approx(0.6)
    assert detail["item_p90_samples"] == 120 and detail["item_p90_beyond"] == 12
    assert detail["item_p90_valid"]


# -- rescaling to the reference speed ----------------------------------------------


def test_setup_samples_are_rescaled_by_their_own_kernel_time():
    nominal = stats.REF_NOMINAL_S
    # A process on a machine twice as slow took twice as long: both read 0.5 s.
    setup = [(0.5, nominal), (1.0, 2.0 * nominal), (0.9, nominal)]
    metrics, detail = run.end_to_end(setup, _payload([0.01] * 100, [0.02] * 100))
    assert detail["setup_samples_s"] == pytest.approx([0.5, 0.5, 0.9])
    assert metrics["setup_s"]["value"] == pytest.approx(0.5)
    assert detail["wall"]["setup_s"] == pytest.approx(0.9)
    assert metrics["items_per_s"]["value"] == pytest.approx(100.0)
    assert detail["wall"]["items_per_s"] == pytest.approx(50.0)


def test_scale_uses_the_median_kernel_time():
    nominal = stats.REF_NOMINAL_S
    assert stats.scale([nominal, 2.0 * nominal, 100.0 * nominal]) == pytest.approx(0.5)
    assert reference.time_once() > 0.0


def test_measured_items_are_rescaled_per_block(tmp_path, monkeypatch):
    kernel_times = iter([stats.REF_NOMINAL_S * f for f in (1.0, 1.0, 3.0, 2.0, 2.0, 2.0)])
    monkeypatch.setattr(reference, "time_once", lambda: next(kernel_times))

    class Fixed(workloads.Workload):
        name = "fixed"
        block_size = 3

        def block(self, b):
            return [{"k": k} for k in range(self.block_size)]

        def run(self, spec):
            return None

        def check(self, spec, result):
            return "ok"

    monkeypatch.setattr(worker, "MIN_ITEMS", 6)
    monkeypatch.setattr(worker, "run_item", lambda *args, **kw: 0.01)
    times, wall, scales = worker.measure(Fixed(1, tmp_path), 0.0, worker.Tally())
    assert scales == pytest.approx([1.0, 0.5])
    assert wall == [0.01] * 6
    assert times == pytest.approx([0.01] * 3 + [0.005] * 3)


# -- identical inputs from identical seeds ----------------------------------------


@pytest.mark.parametrize("name", ["pair_sweep", "stripe_map"])
def test_inputs_are_a_function_of_the_seed(name, tmp_path):
    cls = workloads.WORKLOADS[name]

    def first(seed):
        stream = cls(seed, tmp_path).items()
        return [next(stream) for _ in range(2 * cls.block_size)]

    assert first(3) == first(3)
    assert first(3) != first(4)
    assert cls(3, tmp_path).warmup() == cls(3, tmp_path).warmup()


def test_cli_scenarios_are_a_function_of_the_seed(tmp_path):
    def scenarios(seed, sub):
        wl = workloads.CliBatch(seed, tmp_path / sub)
        wl.setup()
        return [Path(spec["argv"][2]).read_bytes() for spec in wl.pool]

    assert scenarios(5, "a") == scenarios(5, "b")
    assert scenarios(5, "a") != scenarios(6, "c")


def test_held_out_seed_is_not_a_tuning_seed():
    assert workloads.HELD_OUT_SEED not in range(100)


# -- corrupted outputs count as failures ---------------------------------------------


def _pair_item(tmp_path):
    wl = workloads.PairSweep(1, tmp_path)
    return wl, next(wl.items())


def test_perturbed_trace_is_a_failed_item(tmp_path):
    wl, spec = _pair_item(tmp_path)
    tally = worker.Tally()
    worker.run_item(wl, dict(spec), tally)
    assert (tally.attempted, tally.failed) == (1, 0)

    honest_run = wl.run

    def corrupted(s):
        result = honest_run(s)
        result["liou"] = result["liou"].copy()
        result["liou"][0, 0] += 1e-6 * np.abs(result["liou"]).max()
        return result

    wl.run = corrupted
    worker.run_item(wl, dict(spec), tally)
    assert (tally.attempted, tally.failed) == (2, 1)
    assert "trace" in tally.messages[0]


def test_exception_in_a_run_is_a_failed_item(tmp_path):
    wl, spec = _pair_item(tmp_path)

    def broken(s):
        raise RuntimeError("boom")

    wl.run = broken
    tally = worker.Tally()
    assert worker.run_item(wl, dict(spec), tally) >= 0.0
    assert tally.failed == 1 and "boom" in tally.messages[0]


def test_cli_outputs_must_match_the_warm_up_bytes(tmp_path):
    wl = workloads.CliBatch(2, tmp_path / "work")
    wl.setup()
    spec = next(s for s in wl.warmup() if s["slot"] == "evolve_fme")
    tally = worker.Tally()
    worker.run_item(wl, dict(spec), tally)  # reference run, read back and kept
    assert tally.failed == 0
    trajectory = spec["outdir"] / "trajectory.csv"
    lines = trajectory.read_text().splitlines()
    # Perturb the trace column of the last row: read-back check fails.
    cells = lines[-1].split(",")
    cells[-1] = f"{float(cells[-1]) + 1e-6:.16e}"
    trajectory.write_text("\n".join(lines[:-1] + [",".join(cells)]) + "\n")
    with pytest.raises(workloads.CheckFailed, match="trace"):
        workloads._validate_cli_outputs("evolve", spec["outdir"])

    # A timed call whose file differs from the warm-up bytes fails.
    honest_run = wl.run

    def corrupted(s):
        result = honest_run(s)
        trajectory.write_text(trajectory.read_text().replace("e-", "E-", 1))
        return result

    wl.run = corrupted
    worker.run_item(wl, dict(spec), tally)
    assert tally.failed == 1 and "differ" in tally.messages[0]
    wl.close()


def test_expected_exit_two_is_a_refusal_not_a_failure(tmp_path):
    wl = workloads.CliBatch(2, tmp_path / "work")
    wl.setup()
    spec = next(s for s in wl.warmup() if s["slot"] == "steady_rydberg")
    tally = worker.Tally()
    worker.run_item(wl, dict(spec), tally)
    assert (tally.failed, tally.refused) == (0, 1)
    spec = dict(spec, expected=0)
    worker.run_item(wl, spec, tally)
    assert tally.failed == 1
    wl.close()


# -- BENCHMARK.json matches the harness ---------------------------------------------


def test_benchmark_json_matches_the_harness():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS) == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.UNITS
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        (m.name, m.unit, m.better) for m in tracing.PER_LAYER
    ]
    assert set(worker.TRACE_ITEMS) == set(run.WORKLOADS)
    assert all(n % workloads.WORKLOADS[w].block_size == 0 for w, n in worker.TRACE_ITEMS.items())
