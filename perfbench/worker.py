"""One benchmark process: set up a workload, warm up, then measure or trace.

Started by ``run.py`` in a fresh interpreter, one caller and no thread
pool.  Protocol on standard output: a ``READY`` line once the first warm-up
item has finished (this ends ``setup_s``), a ``REF <seconds>`` line with the
median time of the reference kernel run right after it (``reference.py``),
then one ``RESULT <json>`` line.  Everything the package prints goes to
/dev/null instead.

Phases:
  setup    stop after READY.
  measure  closed loop over the seeded item stream until at least
           ``--seconds`` of item time and at least MIN_ITEMS items, then on
           to the end of the current block, so that every run measures the
           same mix of item kinds.  The reference kernel runs once after
           every item, untimed; each block's item times are rescaled by the
           median kernel time of that block.
  trace    a fixed item set, each item run once untraced and once traced
           (alternating which goes first), so that per-layer counts repeat
           exactly and the two passes give the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from pathlib import Path

import stats

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# p90 needs ten samples beyond it.
MIN_ITEMS = stats.min_samples(90)
# Wall-clock cap of the measured loop, so a much slower program still
# finishes within the harness's time limit.
MAX_MEASURE_S = 110.0
# Fixed item counts of the trace phase (whole blocks), ~5 s per pass here.
TRACE_ITEMS = {"pair_sweep": 216, "stripe_map": 35, "cli_batch": 40}
MAX_MESSAGES = 5


def _import_package():
    if not (SRC / "floquetdd" / "__init__.py").is_file():
        raise SystemExit(f"floquetdd sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    started = time.perf_counter()
    import floquetdd

    elapsed = time.perf_counter() - started
    if Path(floquetdd.__file__).resolve().parent != (SRC / "floquetdd").resolve():
        raise SystemExit(f"imported floquetdd from {floquetdd.__file__}, not from {SRC}")
    return elapsed


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.refused = 0
        self.messages = []

    def fail(self, spec, message: str) -> None:
        self.failed += 1
        if len(self.messages) < MAX_MESSAGES:
            self.messages.append(f"item {spec['index']}: {message}")


def run_item(workload, spec, tally, tracer=None) -> float:
    """Prepare, time and check one item; returns its wall time in seconds."""
    from workloads import CheckFailed

    workload.prepare(spec)
    tally.attempted += 1
    if tracer is not None:
        tracer.item = spec["index"]
        tracer.install()
    start = time.perf_counter()
    try:
        result = workload.run(spec)
    except Exception as exc:  # an unexpected exception is a failed item
        tally.fail(spec, f"{type(exc).__name__}: {exc}")
        return time.perf_counter() - start
    finally:
        elapsed = time.perf_counter() - start
        if tracer is not None:
            tracer.uninstall()
    try:
        if workload.check(spec, result) == "refused":
            tally.refused += 1
    except CheckFailed as exc:
        tally.fail(spec, str(exc))
    except Exception as exc:
        tally.fail(spec, f"check raised {type(exc).__name__}: {exc}")
    return elapsed


def measure(workload, seconds: float, tally) -> tuple[list, list, list]:
    """The timed loop over whole blocks.  Returns the item times rescaled to
    the reference speed, the measured item wall times and each block's
    rescaling factor."""
    import reference

    times, wall, scales = [], [], []
    block_wall, block_ref = [], []
    busy = 0.0
    stream = workload.items()
    loop_start = time.perf_counter()
    while time.perf_counter() - loop_start < MAX_MEASURE_S:
        spec = next(stream)
        elapsed = run_item(workload, spec, tally)
        block_wall.append(elapsed)
        block_ref.append(reference.time_once())
        busy += elapsed
        if (spec["index"] + 1) % workload.block_size:
            continue
        factor = stats.scale(block_ref)
        times += [t * factor for t in block_wall]
        wall += block_wall
        scales.append(factor)
        block_wall, block_ref = [], []
        if busy >= seconds and len(times) >= MIN_ITEMS:
            break
    return times, wall, scales


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--phase", choices=("setup", "measure", "trace"), required=True)
    args = parser.parse_args(argv)

    proto = sys.stdout
    sys.stdout = open(os.devnull, "w")
    import_s = _import_package()

    import numpy as np
    import scipy

    # After the package, so that import_s still covers numpy and scipy.
    import reference
    import workloads
    from tracer import Tracer, per_layer_metrics

    workdir = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
    tally = Tally()
    try:
        workload.setup()
        warmup = workload.warmup()
        run_item(workload, warmup[0], tally)
        print("READY", file=proto, flush=True)
        print(f"REF {reference.median_time(reference.SETUP_REPEATS)!r}", file=proto, flush=True)
        if args.phase == "setup":
            return 0
        for spec in warmup[1:]:
            run_item(workload, spec, tally)

        result = {
            "import_s": import_s,
            "numpy": np.__version__,
            "scipy": scipy.__version__,
        }
        if args.phase == "measure":
            times, wall, scales = measure(workload, args.seconds, tally)
            result.update(item_s=times, item_wall_s=wall, block_scales=scales)
        else:
            stream = workload.items()
            specs = [next(stream) for _ in range(TRACE_ITEMS[args.workload])]
            plain = traced = 0.0
            tracer = Tracer()
            for k, spec in enumerate(specs):
                passes = ("plain", "traced") if k % 2 == 0 else ("traced", "plain")
                for mode in passes:
                    if mode == "plain":
                        plain += run_item(workload, dict(spec), tally)
                    else:
                        traced += run_item(workload, dict(spec), tally, tracer)
            extra = {
                "floquetdd.import_s": import_s,
                "trace.items": len(specs),
                "trace.overhead_ratio": plain / traced,
                "error_rate": tally.failed / tally.attempted,
            }
            result["per_layer"] = per_layer_metrics(tracer, extra)
            result["spans"] = len(tracer.spans)
            out = ROOT / ".bench_out"
            out.mkdir(exist_ok=True)
            with open(out / f"spans_{args.workload}_seed{args.seed}.json", "w") as fh:
                json.dump(
                    [[s.name, s.start, s.end, s.parent, s.item, s.leaf_s] for s in tracer.spans],
                    fh,
                )
        result.update(
            attempted=tally.attempted,
            failed=tally.failed,
            refused=tally.refused,
            messages=tally.messages,
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        )
        print("RESULT " + json.dumps(result), file=proto, flush=True)
        return 0
    finally:
        workload.close()


if __name__ == "__main__":
    sys.exit(main())
