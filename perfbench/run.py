"""floquetdd benchmark: one workload, one seed, end-to-end or traced metrics.

    python3 perfbench/run.py --workload pair_sweep --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; the package is imported from ``src/``.
With ``--trace 0`` the run starts fresh interpreters that stop after the
first warm-up item, before and after one that also measures; ``setup_s``
is the median of the ready times of all of them, and the other end-to-end
metrics come from the measuring process.  Every timing metric is rescaled
to the speed of the reference kernel (``reference.py``) measured in the
same process around the same time; the provenance line gives the measured
wall-time values as well.  With ``--trace 1`` one process
times a fixed item set untraced and traced and reports per-layer metrics.
Every line but the last is for people (metric table, provenance); the last
line is the JSON result.  Standard library only: the package and numpy are
loaded by the worker processes, whose BLAS thread pools are capped at 1.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import select
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import stats  # noqa: E402

WORKLOADS = ("pair_sweep", "stripe_map", "cli_batch")
# Set-up processes before and after the measuring one, which is a set-up
# sample too; spreading them over the run steadies their median.
SETUP_BEFORE, SETUP_AFTER = 2, 2
# Whole run, children included, must end within 180 s.
DEADLINE_S = 170.0
BLAS_CAPS = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "BLIS_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}
UNITS = {
    "setup_s": "s",
    "items_per_s": "1/s",
    "item_p50_ms": "ms",
    "item_p90_ms": "ms",
    "peak_rss_mb": "MB",
}


class ChildFailed(Exception):
    pass


def _child_env() -> dict:
    env = dict(os.environ)
    env.update(BLAS_CAPS)
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(args, phase: str, deadline: float):
    """Start one worker; returns (seconds until READY, reference kernel
    time after READY, RESULT payload or None)."""
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--phase", phase,
    ]
    started = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=_child_env(), stdout=subprocess.PIPE)
    ready = ref = None
    payload = None
    buf = b""
    try:
        fd = proc.stdout.fileno()
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise ChildFailed(f"{phase} process exceeded the time limit")
            readable, _, _ = select.select([fd], [], [], remaining)
            if not readable:
                continue
            chunk = os.read(fd, 1 << 20)
            now = time.perf_counter()
            if not chunk:
                break
            buf += chunk
            while b"\n" in buf:
                line, buf = buf.split(b"\n", 1)
                if line == b"READY":
                    ready = now - started
                elif line.startswith(b"REF "):
                    ref = float(line[len(b"REF "):])
                elif line.startswith(b"RESULT "):
                    payload = json.loads(line[len(b"RESULT "):])
        code = proc.wait(timeout=max(deadline - time.monotonic(), 1.0))
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if code != 0 or ready is None or ref is None:
        raise ChildFailed(f"{phase} process exited with code {code} before finishing")
    if phase != "setup" and payload is None:
        raise ChildFailed(f"{phase} process gave no result")
    if phase == "measure" and not payload["item_s"]:
        raise ChildFailed("measure process timed no whole block")
    return ready, ref, payload


def _git_commit() -> str:
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return "unknown (not a git checkout)"
    return lines[1]


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "floquetdd").glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def _timings(setup_samples, times) -> dict:
    return {
        "setup_s": statistics.median(setup_samples),
        "items_per_s": len(times) / sum(times),
        "item_p50_ms": 1e3 * stats.nearest_rank(times, 50),
        "item_p90_ms": 1e3 * stats.nearest_rank(times, 90),
    }


def end_to_end(setup_samples, payload) -> tuple[dict, dict]:
    """setup_samples: (wall seconds until READY, reference kernel seconds)
    of each set-up process."""
    times = payload["item_s"]
    p90_tail = stats.samples_beyond(len(times), 90)
    setup_rescaled = [ready * stats.scale([ref]) for ready, ref in setup_samples]
    values = _timings(setup_rescaled, times)
    values["peak_rss_mb"] = payload["peak_rss_mb"]
    detail = {
        "items": len(times),
        "item_busy_s": sum(times),
        "item_p90_samples": len(times),
        "item_p90_beyond": p90_tail,
        "item_p90_valid": p90_tail >= stats.MIN_TAIL,
        "setup_samples_s": setup_rescaled,
        "wall": _timings([ready for ready, _ in setup_samples], payload["item_wall_s"]),
        "setup_ref_s": [ref for _, ref in setup_samples],
        "block_scales": payload["block_scales"],
    }
    metrics = {name: {"value": value, "unit": UNITS[name]} for name, value in values.items()}
    return metrics, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "floquetdd" / "__init__.py").is_file():
        print(f"error: no floquetdd sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    # A terminated run still stops its worker: SystemExit runs run_child's cleanup.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    deadline = time.monotonic() + DEADLINE_S
    try:
        if args.trace:
            _, _, payload = run_child(args, "trace", deadline)
            metrics = payload.pop("per_layer")
            detail = {"spans": payload.pop("spans")}
        else:
            setup_samples = [run_child(args, "setup", deadline)[:2] for _ in range(SETUP_BEFORE)]
            ready, ref, payload = run_child(args, "measure", deadline)
            setup_samples.append((ready, ref))
            setup_samples += [run_child(args, "setup", deadline)[:2] for _ in range(SETUP_AFTER)]
            metrics, detail = end_to_end(setup_samples, payload)
            for key in ("item_s", "item_wall_s", "block_scales"):
                payload.pop(key)
    except ChildFailed as err:
        print(f"error: {err}", file=sys.stderr)
        return 1

    provenance = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": payload["numpy"],
        "scipy": payload["scipy"],
        "blas_caps": BLAS_CAPS,
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
        "attempted": payload["attempted"],
        "failed": payload["failed"],
        "refused": payload["refused"],
        "failures": payload["messages"],
        "import_s": payload["import_s"],
        **detail,
    }
    for name, metric in metrics.items():
        print(f"{args.workload:<11} {name:<48} {metric['value']:>16.6g} {metric['unit']}")
    print("provenance " + json.dumps(provenance, sort_keys=True))
    result = {
        "correct": payload["failed"] == 0,
        "attempted": payload["attempted"],
        "failed": payload["failed"],
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
