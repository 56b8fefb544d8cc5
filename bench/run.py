"""Benchmark of every corefkit pipeline on a seeded synthetic corpus.

    python3 bench/run.py --workload release --seed 1 --seconds 30 --trace 0

Run from the repository root. The workload's corpus is generated from the
seed under bench/work/, then:

--trace 0  runs each pipeline as users run it, one ``corefkit`` process at a
           time: one full round, then whichever ran least often and still
           fits in the time left. It checks every output and reports each
           end-to-end metric as the median over its samples, timed in CPU
           seconds rescaled to a nominal core speed (see speed.py).
--trace 1  times each layer in-process on freshly parsed corpora, runs every
           pipeline in-process with and without spans around the layers'
           public functions, writes the spans to bench/out/, and reports the
           per-layer metrics and the tracing overhead.

The last line of stdout is one JSON object: correct, attempted, failed,
metrics. The exit code is non-zero when any operation failed.
"""
from __future__ import annotations

import argparse
import json
import shutil
import signal
import statistics
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    from corpus import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


class Tally:
    """Operations attempted and failed; failures go to stderr."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def record(self, error: str | None) -> bool:
        self.attempted += 1
        if error is not None:
            self.failed += 1
            print(f"FAILED {error}", file=sys.stderr)
        return error is None


def measure_end_to_end(manifest, work: Path, seconds: float,
                       tally: Tally) -> dict[str, tuple[float, str]]:
    from pipelines import (PIPELINES, ROUNDTRIP_PASSES, TAXONOMY, child_env,
                           report_digests, roundtrip, self_checks, spawn)
    from speed import CoreMeter

    # An exception inside corefkit counts as a failed operation.
    try:
        checks = self_checks(manifest)
    except Exception as exc:  # noqa: BLE001 - reported as a failure
        traceback.print_exc()
        checks = [f"self-checks: {exc!r}"]
    for error in checks:
        tally.record(error)

    env = child_env(SRC)
    samples: dict[str, list[float]] = {}
    walls: dict[str, list[float]] = {}
    digests: dict[str, dict[str, str]] = {}
    peak_rss = 0.0
    meter = CoreMeter(work)

    def process(pipeline):
        def run() -> tuple[float, float, str | None]:
            nonlocal peak_rss
            out = work / "out" / pipeline.name
            shutil.rmtree(out, ignore_errors=True)
            before = meter.mark()
            outcome = spawn(pipeline.args(manifest, out), out, env)
            took = meter.seconds(outcome.cpu_s, before, meter.mark())
            peak_rss = max(peak_rss, outcome.peak_rss_mb)
            if outcome.exit_code != 0:
                return outcome.wall_s, took, (f"{pipeline.name}: exit code "
                                              f"{outcome.exit_code}")
            error = pipeline.check(manifest, out) if pipeline.check else None
            found = report_digests(out)
            if error is None and digests.setdefault(pipeline.name,
                                                    found) != found:
                error = f"{pipeline.name}: report bytes changed between runs"
            return outcome.wall_s, took, error
        return pipeline.name, run

    def in_process() -> tuple[float, float, str | None]:
        start = time.perf_counter()
        before = meter.mark()
        try:
            cpu, error = roundtrip(manifest)
        except Exception as exc:  # noqa: BLE001 - reported as a failure
            traceback.print_exc()
            cpu, error = 0.0, f"roundtrip: {exc!r}"
        took = meter.seconds(cpu, before, meter.mark())
        return time.perf_counter() - start, took, error

    # set-up is sampled twice per round
    half = len(PIPELINES) // 2
    ops = [process(TAXONOMY), *map(process, PIPELINES[:half]),
           process(TAXONOMY), *map(process, PIPELINES[half:]),
           ("roundtrip", in_process)]
    last: dict[str, float] = {}

    def run(name, op) -> None:
        wall, took, error = op()
        last[name] = wall
        if tally.record(error):
            samples.setdefault(name, []).append(took)
            walls.setdefault(name, []).append(wall)

    try:
        start = time.perf_counter()
        for name, op in ops:
            run(name, op)
        runs = [1] * len(ops)
        # Then the operation that ran least often among those whose last
        # duration still fits in the time left, so long ones are not starved.
        while True:
            left = seconds - (time.perf_counter() - start)
            fitting = [(runs[i], i) for i, (name, _) in enumerate(ops)
                       if last[name] <= left]
            if not fitting:
                break
            i = min(fitting)[1]
            run(*ops[i])
            runs[i] += 1
    finally:
        meter.close()

    for name, found in sorted(digests.items()):
        for report, digest in found.items():
            print(f"sha256\t{name}\t{report}\t{digest}")
    for name, values in sorted(samples.items()):
        print(f"samples\t{name}\t{len(values)}\t"
              + " ".join(f"{v:.4f}" for v in values)
              + "\twall\t" + " ".join(f"{v:.4f}" for v in walls[name]))

    # An operation that never succeeded reads 0; the run is then incorrect.
    def median(name: str) -> float:
        return statistics.median(samples[name]) if name in samples else 0.0

    def rate(name: str, passes: int = 1) -> float:
        tokens = manifest.total("tokens") * passes
        return tokens / median(name) if median(name) else 0.0

    metrics = {"setup_s": (median("taxonomy"), "s")}
    for name in [p.name for p in PIPELINES]:
        metrics[f"{name}_tok_per_s"] = (rate(name), "tok/s")
    metrics["roundtrip_tok_per_s"] = (rate("roundtrip", ROUNDTRIP_PASSES),
                                      "tok/s")
    metrics["peak_rss_mb"] = (peak_rss, "MB")
    return metrics


def main(argv: list[str] | None = None) -> int:
    sys.path.insert(0, str(BENCH))
    args = parse_args(argv)
    # a terminated run still stops its reference loop and removes its corpus
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(143))
    if not (SRC / "corefkit" / "__init__.py").is_file():
        print(f"bench: no corefkit sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from corpus import WORKLOADS, generate

    work = BENCH / "work" / f"{args.workload}-{args.seed}"
    shutil.rmtree(work, ignore_errors=True)
    tally = Tally()
    try:
        manifest = generate(WORKLOADS[args.workload], args.seed, work)
        print(f"corpus\t{args.workload}\tseed={args.seed}"
              f"\tfiles={len(manifest.files)}"
              f"\tdocuments={manifest.total('documents')}"
              f"\ttokens={manifest.total('tokens')}"
              f"\tmentions={manifest.total('mentions')}"
              f"\tentities={manifest.total('entities')}")
        if args.trace:
            from layers import measure_layers
            trace = BENCH / "out" / f"trace-{args.workload}-{args.seed}.json"
            metrics = measure_layers(manifest, work, args.seconds, tally,
                                     trace)
        else:
            metrics = measure_end_to_end(manifest, work, args.seconds, tally)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(f"fail_rate\t{tally.failed / max(tally.attempted, 1):.6f}"
          f"\t({tally.failed} of {tally.attempted} operations)")
    for name, (value, unit) in metrics.items():
        print(f"metric\t{name}\t{value:.6g}\t{unit}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if tally.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
