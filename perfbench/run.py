"""Preset-level benchmark for ergosum: one experiment per fresh process.

Usage, from the root of a source checkout:

  python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
  python3 perfbench/run.py            # every workload, untraced then traced

With --trace 0 the benchmark runs the workload's experiment in a closed
loop, one worker process at a time: once, and again while the next run
should end within --seconds. It reports the end-to-end metrics. With --trace 1 it runs the
workload once untraced and once with span-recording wrappers, both on
the presets' default seeds, and reports the per-layer metrics. Every run's
outputs are checked; the last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics. README.md in this
directory lists the metrics and why each workload was chosen.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from importlib import metadata
from pathlib import Path

import spans
from workloads import DEFAULT_SEED, WORKLOADS, check_outputs, experiment_config

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORKER = BENCH_DIR / "worker.py"
REFERENCE = BENCH_DIR / "reference_digests.json"
OUT = BENCH_DIR / "out"
MANIFEST = "manifest.json"

# set-up samples per run: experiment workers count, set-up-only workers fill up
SETUP_SAMPLES = 5
# a run stops its workers after this long, so it exits well within 180 s
RUN_DEADLINE_S = 170.0

E2E_METRICS = {
    "wall_s": "s",
    "cpu_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "success_rate": "ratio",
}


class WorkerError(RuntimeError):
    pass


def _spawn(job: dict, env: dict, deadline: float):
    """Start one worker and wait for it; returns (set-up seconds, peak RSS
    in MB, parsed result line or None)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(WORKER), json.dumps(job)],
        stdout=subprocess.PIPE, text=True, env=env, cwd=str(ROOT),
    )
    timer = threading.Timer(max(0.0, deadline - time.monotonic()), proc.kill)
    timer.start()
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - t0
        rest = proc.stdout.read()
    except BaseException:
        proc.kill()
        raise
    finally:
        timer.cancel()
        proc.stdout.close()
        # wait4 rather than Popen.wait, for the worker's own resource usage
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    if ready.strip() != "ready" or proc.returncode != 0:
        raise WorkerError(f"worker exited with code {proc.returncode}"
                          + ("" if ready.strip() == "ready" else " before set-up finished"))
    result = json.loads(rest) if rest.strip() else None
    return setup_s, usage.ru_maxrss / 1024.0, result


def _output_digests(out_dir: Path) -> tuple[dict, int, int]:
    """sha256 of every output but the manifest, plus the file count and
    byte count of everything written, manifest included."""
    digests, n_files, n_bytes = {}, 0, 0
    for path in sorted(out_dir.iterdir()):
        payload = path.read_bytes()
        n_files += 1
        n_bytes += len(payload)
        if path.name != MANIFEST:
            digests[path.name] = hashlib.sha256(payload).hexdigest()
    return digests, n_files, n_bytes


def _experiment(workload: str, config: dict, mode: str, tag: str, deadline: float) -> dict:
    """One worker run: timings, output digests and invariant problems."""
    work = OUT / "work" / tag
    shutil.rmtree(work, ignore_errors=True)
    env = dict(os.environ, ERGOSUM_OUTPUT_ROOT=str(work))
    job = {"src": str(SRC), "config": config, "mode": mode, "run_id": tag}
    rec = {"tag": tag, "mode": mode, "problems": []}
    try:
        setup_s, rss, result = _spawn(job, env, deadline)
        out_dir = Path(result["out_dir"])
        digests, n_files, n_bytes = _output_digests(out_dir)
        rec["problems"] = check_outputs(workload, out_dir)
        rec.update(setup_s=setup_s, peak_rss_mb=rss, wall_s=result["wall_s"],
                   cpu_s=result["cpu_s"], spans=result["spans"], digests=digests,
                   files_written=n_files, bytes_written=n_bytes)
    except (WorkerError, OSError, ValueError, KeyError, TypeError) as exc:
        rec["problems"].append(f"{type(exc).__name__}: {exc}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return rec


def _compare_digests(runs: list[dict], what: str) -> None:
    """Mark every run whose outputs differ from the first complete run."""
    done = [r for r in runs if "digests" in r]
    for r in done[1:]:
        moved = _moved_files(done[0]["digests"], r["digests"])
        if moved:
            r["problems"].append(f"{what}: {', '.join(moved)}")


def _moved_files(expect: dict, got: dict) -> list[str]:
    return sorted(f for f in set(expect) | set(got) if expect.get(f) != got.get(f))


def measure(workload: str, seed: int, seconds: float) -> dict:
    """Closed loop of untraced experiments; end-to-end metrics."""
    start = time.monotonic()
    deadline = start + RUN_DEADLINE_S
    config = experiment_config(workload, seed)
    runs = []
    while True:
        t0 = time.monotonic()
        runs.append(_experiment(workload, config, "run", f"{workload}-{len(runs)}", deadline))
        # start another only if it should end inside the window
        now = time.monotonic()
        if now - start + (now - t0) > seconds:
            break
    _compare_digests(runs, "outputs differ from the first run of this session")
    setups = [r["setup_s"] for r in runs if "setup_s" in r]
    try:
        while len(setups) < SETUP_SAMPLES:
            setups.append(_spawn({"src": str(SRC), "config": config, "mode": "setup"},
                                 dict(os.environ), deadline)[0])
    except WorkerError as exc:
        runs[-1]["problems"].append(f"set-up only worker: {exc}")
    ok = [r for r in runs if not r["problems"]]
    metrics = {}
    if ok:
        metrics = {
            "wall_s": statistics.median(r["wall_s"] for r in ok),
            "cpu_s": statistics.median(r["cpu_s"] for r in ok),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in ok),
            "success_rate": len(ok) / len(runs),
        }
    samples = {name: len(ok) for name in E2E_METRICS}
    samples.update(setup_s=len(setups), success_rate=len(runs))
    return {"runs": runs, "metrics": metrics, "samples": samples,
            "setup_samples": setups}


def trace(workload: str) -> dict:
    """One untraced and one traced run on the default seeds; per-layer
    metrics from the traced run's spans."""
    deadline = time.monotonic() + RUN_DEADLINE_S
    config = experiment_config(workload, DEFAULT_SEED)
    plain = _experiment(workload, config, "run", f"{workload}-untraced", deadline)
    traced = _experiment(workload, config, "trace", f"{workload}-traced", deadline)
    runs = [plain, traced]
    _compare_digests(runs, "tracing changed the outputs")
    metrics, moved, total = {}, [], None
    if not plain["problems"] and not traced["problems"]:
        reference = json.loads(REFERENCE.read_text(encoding="utf-8"))[workload]
        moved = _moved_files(reference, traced["digests"])
        metrics = spans.layer_metrics(traced["spans"])
        total = spans.run_total(traced["spans"])
        covered = sum(metrics[name] for name in spans.SELF_TIME_METRICS)
        if abs(covered - total) > 1e-6 * total:
            traced["problems"].append(
                f"layer self times add up to {covered} s, not the traced total {total} s")
        metrics.update({
            "harness.files_written": traced["files_written"],
            "harness.bytes_written": traced["bytes_written"],
            "harness.digest_mismatches": len(moved),
            "trace.overhead_s": total - plain["wall_s"],
        })
    return {"runs": runs, "metrics": metrics, "moved_files": moved,
            "traced_total_s": total}


# ---------------------------------------------------------------------------
# environment and reporting


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def _git_commit() -> str | None:
    """HEAD of the checkout read from .git, or None outside a git repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.exists():
            return loose.read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(seed: int) -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "commit": _git_commit(),
        "base_seed": seed,
    }


def _fmt(v) -> str:
    return f"{v:.6g}" if isinstance(v, float) else str(v)


def _print_problems(workload: str, report: dict) -> None:
    for r in report["runs"]:
        for p in r["problems"]:
            print(f"FAILED {workload} {r['tag']}: {p}", file=sys.stderr)


def _print_e2e(rows: list[tuple[str, dict]]) -> None:
    print(f"{'workload':<16} {'metric':<14} {'median':>12} {'unit':<6} samples")
    for workload, rep in rows:
        for name, unit in E2E_METRICS.items():
            v = rep["metrics"].get(name, "-")
            print(f"{workload:<16} {name:<14} {_fmt(v):>12} {unit:<6} {rep['samples'][name]}")


def _print_layers(rows: list[tuple[str, dict]]) -> None:
    """Per-layer table; self times also as a share of the traced total."""
    names = [w for w, _ in rows]
    print(f"{'per-layer metric':<26} {'unit':<6} " + " ".join(f"{n:>24}" for n in names))
    for metric, unit in spans.LAYER_METRICS.items():
        cells = []
        for _, rep in rows:
            v = rep["metrics"].get(metric)
            cell = "-" if v is None else _fmt(v)
            if v is not None and metric in spans.SELF_TIME_METRICS:
                cell += f" ({100 * v / rep['traced_total_s']:.1f}%)"
            cells.append(f"{cell:>24}")
        print(f"{metric:<26} {unit:<6} " + " ".join(cells))
    print(f"{'traced total':<26} {'s':<6} "
          + " ".join(f"{_fmt(rep['traced_total_s']):>24}" for _, rep in rows))
    for workload, rep in rows:
        if rep["moved_files"]:
            print(f"{workload}: outputs differ from the recorded reference: "
                  + ", ".join(rep["moved_files"]))


def _save(name: str, payload: dict) -> None:
    path = OUT / "results" / name
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    os.replace(tmp, path)


def _result_line(report: dict, units: dict) -> dict:
    failed = sum(1 for r in report["runs"] if r["problems"])
    return {
        "correct": failed == 0,
        "attempted": len(report["runs"]),
        "failed": failed,
        "metrics": {name: {"value": report["metrics"][name], "unit": unit}
                    for name, unit in units.items()},
    }


def _record(workload: str, seed: int, traced: bool, report: dict) -> None:
    """Keep one run's environment, metrics and raw samples; spans go to
    a file of their own."""
    payload = {k: v for k, v in report.items() if k != "runs"}
    payload.update(
        environment=environment(seed), workload=workload, traced=traced,
        runs=[{k: v for k, v in r.items() if k != "spans"} for r in report["runs"]])
    _save(f"{workload}-seed{seed}-trace{int(traced)}.json", payload)
    if traced:
        spans_path = OUT / f"spans-{workload}.json"
        spans_path.write_text(json.dumps(
            [s for r in report["runs"] for s in (r.get("spans") or [])]) + "\n",
            encoding="utf-8")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="run one workload (default: all, untraced then traced)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "ergosum" / "__init__.py").is_file():
        print(f"no ergosum source tree under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    try:
        return _report(args)
    finally:
        shutil.rmtree(OUT / "work", ignore_errors=True)


def _report(args) -> int:
    print("environment: " + json.dumps(environment(args.seed), sort_keys=True))

    if args.workload is None:
        e2e, layers = [], []
        for workload in WORKLOADS:
            e2e.append((workload, measure(workload, args.seed, args.seconds)))
            layers.append((workload, trace(workload)))
        ok = True
        for traced, rows in ((False, e2e), (True, layers)):
            for workload, rep in rows:
                _print_problems(workload, rep)
                _record(workload, DEFAULT_SEED if traced else args.seed, traced, rep)
                ok &= all(not r["problems"] for r in rep["runs"])
        _print_e2e(e2e)
        print()
        _print_layers(layers)
        return 0 if ok else 1

    traced = bool(args.trace)
    if traced:
        report = trace(args.workload)
    else:
        report = measure(args.workload, args.seed, args.seconds)
    _print_problems(args.workload, report)
    _record(args.workload, DEFAULT_SEED if traced else args.seed, traced, report)
    if not report["metrics"]:
        print("no run completed; nothing to report", file=sys.stderr)
        return 1
    if traced:
        _print_layers([(args.workload, report)])
    else:
        _print_e2e([(args.workload, report)])
    print(json.dumps(_result_line(report, spans.LAYER_METRICS if traced else E2E_METRICS)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
