"""One experiment in a fresh process, as a CLI user pays for it.

Usage: python3 worker.py '<job json>'

The job names the package source directory, the experiment config and a
mode: "setup" stops after the config is validated, "run" also runs it, and
"trace" runs it with span-recording wrappers around the layer functions.
The worker prints "ready" once ``import ergosum``, config construction and
``validate()`` have returned (the parent times set-up up to that line),
then, unless the mode is "setup", one JSON line with the run's timings.
Outputs go under $ERGOSUM_OUTPUT_ROOT, which the parent sets.
"""

import json
import resource
import sys
import time


def _cpu_seconds() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def main(job: dict) -> None:
    sys.path.insert(0, job["src"])
    import ergosum
    from ergosum import harness

    config = ergosum.ExperimentConfig.from_dict(job["config"])
    diags = ergosum.validate(config)
    if diags:
        raise SystemExit(f"invalid config: {'; '.join(diags)}")
    print("ready", flush=True)
    if job["mode"] == "setup":
        return

    recorder = None
    if job["mode"] == "trace":
        import spans

        recorder = spans.Recorder(job["run_id"])
        spans.install(harness, recorder)
    t0, c0 = time.perf_counter(), _cpu_seconds()
    if recorder is None:
        manifest = ergosum.run(config)
    else:
        with recorder.span(spans.RUN_SPAN):
            manifest = ergosum.run(config)
    wall, cpu = time.perf_counter() - t0, _cpu_seconds() - c0
    print(json.dumps({
        "wall_s": wall,
        "cpu_s": cpu,
        "out_dir": manifest.out_dir,
        "spans": recorder.spans if recorder else None,
    }), flush=True)


if __name__ == "__main__":
    main(json.loads(sys.argv[1]))
