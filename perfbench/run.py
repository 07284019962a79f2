"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload discover --seed 1 --seconds 10 --trace 0

Run from the root of a checkout.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``
(every end-to-end metric with ``--trace 0``, every per-layer metric with
``--trace 1``).  The lines before it name the host, the settings and the
sha256 of every discovered spec.  The full record, and with ``--trace
1`` every span, go to ``.perfbench/`` in the current directory.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import pathlib
import platform
import shutil
import statistics
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
OUT = pathlib.Path(".perfbench")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def host(workload, seed):
    return {
        "cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "seed": seed,
        **workload.settings(),
    }


def main(argv=None):
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no src/repro under {ROOT}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import speed, trace, workloads

    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"have {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    scratch = OUT / "tmp"
    scratch.mkdir(exist_ok=True)
    record = {"workload": workload.name, "host": host(workload, args.seed)}
    print(json.dumps({"host": record["host"]}))

    envs = []
    # the host-speed sampler's timer would land inside traced spans
    sampler = speed.Sampler()
    try:
        with contextlib.nullcontext() if args.trace else sampler:
            setup_clocks = []
            for _ in range(workloads.SETUP_REPEATS):
                checks = workloads.Checks()  # only the set-up that is used counts
                with speed.Clock() as clock:
                    envs.append(workloads.setup(workload, args.seed, str(scratch), checks, OUT))
                setup_clocks.append(clock)
            env = envs[-1]
            tracer = trace.Tracer() if args.trace else None
            if tracer is not None:
                tracer.install()
            try:
                results = workloads.timed(workload, env, args.seconds, tracer, checks)
            finally:
                if tracer is not None:
                    tracer.restore()
        shard_bytes = dict.fromkeys(("cold", "warm"), workloads.dir_bytes(env.cache_dir))
        workloads.verify(workload, env, results, checks)
        hashes = {f"{stage}:{target}": workloads.spec_hash(report.spec)
                  for (stage, target), report in sorted(results.reports.items())}
        hashes.update({f"setup:{t}": workloads.spec_hash(s) for t, s in env.specs.items()})
        for op, digest in hashes.items():
            print(f"spec {op} sha256={digest}")
        correct = True
        if tracer is None:
            metrics = workloads.end_to_end(setup_clocks, results, sampler.normalised)
            seconds = [s for _, s in sampler.samples]
            record["host_speed"] = {
                "samples": len(seconds),
                "reference_s": statistics.quantiles(seconds, n=10) if len(seconds) > 1 else seconds,
            }
            record["raw_wall_metrics"] = {
                name: value for name, (value, _) in
                workloads.end_to_end(setup_clocks, results, sampler.raw).items()
            }
            _, percentile, samples = workloads.tail([c.wall for c in results.programs])
            record["program_ms_tail"] = {"percentile": percentile, "samples": samples}
        else:
            analysis = trace.Analysis(tracer)
            values = workloads.layer_metrics(analysis, workload, results, shard_bytes)
            # Tracing overhead: the traced cold stage against an untraced
            # one on fresh machines (and an empty cache directory).
            if workload.discovers:
                envs.append(workloads.setup(workload, args.seed, str(scratch),
                                            workloads.Checks(), OUT))
            untraced = workloads.cold_only(workload, envs[-1])
            values["cold.tracing_overhead_s"] = workloads.wall(results.cold) - untraced
            metrics = {name: (values[name], unit)
                       for name, unit, _ in workloads.per_layer_names()}
            mismatches = workloads.phase_mismatches(analysis, results)
            record["phase_mismatches"] = mismatches
            correct = not mismatches
            tracer.write(OUT / f"spans-{workload.name}.jsonl.gz")
        record.update(
            wall_cpu_s={
                name: [(c.wall, c.cpu) for c in clocks]
                for name, clocks in {"setup": setup_clocks, "cold": results.cold,
                                     "warm": sum(results.warm, []),
                                     "programs": results.programs}.items()
            },
            spec_sha256=hashes,
            failures=checks.failed,
            metrics={name: value for name, (value, _) in metrics.items()},
        )
        for op, reasons in checks.failed.items():
            print(f"FAILED {op}: {'; '.join(reasons)}")
        result = {
            "correct": correct and not checks.failed,
            "attempted": checks.attempted,
            "failed": len(checks.failed),
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in metrics.items()},
        }
        (OUT / f"result-{workload.name}-{args.seed}-trace{args.trace}.json").write_text(
            json.dumps(record, indent=1, default=str) + "\n"
        )
    finally:
        for env in envs:
            shutil.rmtree(env.workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
