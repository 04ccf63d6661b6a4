"""Benchmark of the narragraph CLI, run in-process with stdout captured.

    python3 bench/run.py --workload build_long --seed 1 --seconds 30 --trace 0

One process, one thread, closed loop with one client, interpreter defaults
(GC on). The workload's inputs come from ``--seed`` only. ``--trace 0``
reports the end-to-end metrics of BENCHMARK.json; ``--trace 1`` runs every op
once untraced and once traced, then a quarter-size companion story, and
reports the per-layer metrics. Human-readable lines come first; the last line
of stdout is one JSON object: correct, attempted, failed, metrics.

The end-to-end times in the last line are at reference speed: each wall time
is scaled by the reference kernel of ``calibration.py``, timed just before
and just after it, so that a shared host slowing down for minutes does not
read as a slower program. The report lines give the wall times as well.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import io
import itertools
import json
import resource
import shutil
import statistics
import sys
import tempfile
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPS = 2
# Share of an op's wall time spent timing the reference kernel after it.
CALIBRATION_SHARE = 0.1
QUARTER = 0.25
# Stage name of each <stage>.per_panel_growth metric -> span timed for it.
GROWTH_STAGES = {
    "parse": "annotations.parse_corpus.ms",
    "integrate": "build.integrate.ms",
    "event_tier": "build.build_event_graph.ms",
    "serialize": "graph.serialize_graph.ms",
    "deserialize": "graph.deserialize_graph.ms",
    "evaluate_all": "evaluation.evaluate_all.ms",
}


def load_cli():
    """Import narragraph from this checkout's ``src``; return (cli.main, import seconds)."""
    src = (ROOT / "src").resolve()
    if not (src / "narragraph" / "__init__.py").is_file():
        sys.exit(f"bench: no narragraph package under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    start = perf_counter()
    cli = importlib.import_module("narragraph.cli")
    import_s = perf_counter() - start
    if Path(cli.__file__).resolve().parent.parent != src:
        sys.exit(f"bench: imported narragraph from {cli.__file__}, not from {src}")
    return cli.main, import_s


def metric_specs() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_cli(main, argv: list[str]):
    """One CLI op; returns (exit code, wall ms, stdout). Only ``main`` is timed."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        start = perf_counter()
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception:  # a traceback is a failed op, not a failed benchmark
            code = None
            print(traceback.format_exc(), file=sys.__stderr__)
        elapsed = perf_counter() - start
    return code, elapsed * 1000, out.getvalue()


def set_up(name: str, seed: int, workdir: Path, main, scale: float = 1.0, reps: int = 1, calibration=None):
    """Write the inputs and run one warm-up op, ``reps`` times; return the
    workload with its checks prepared and the wall seconds of each set-up,
    with the reference kernel's ms before and after it if ``calibration``."""
    from workloads import WORKLOADS

    times = []
    for _ in range(reps):
        before = calibration.measure() if calibration else None
        gc.collect()
        start = perf_counter()
        workload = WORKLOADS[name](seed, workdir, scale)
        workload.write_inputs(lambda argv: run_cli(main, argv))
        code, _, _ = run_cli(main, workload.warmup_op())
        wall = perf_counter() - start
        if code != 0:
            raise RuntimeError(f"{name}: warm-up op exited with {code}")
        times.append((wall, before, calibration.measure() if calibration else None))
    workload.prepare_checks()
    return workload, times


def run_op(workload, main, argv, tracer=None, op: int = 0):
    """Run and check one op. Each op starts from a collected heap, as a
    fresh CLI process does; the collection is outside the timed region."""
    gc.collect()
    if tracer is None:
        code, ms, out = run_cli(main, argv)
    else:
        from tracing import instrumented

        with instrumented(tracer), tracer.operation(op):
            code, ms, out = run_cli(main, argv)
    return ms, workload.check(argv, code, out)


def end_to_end(name: str, seed: int, seconds: float, main, import_s: float, workdir: Path, scale: float = 1.0):
    """Untraced closed loop; returns (metrics, attempted, failed, report lines).
    Times are scaled to reference speed; the report lines add wall times."""
    from calibration import Calibration
    from workloads import SPECS

    calibration = Calibration(**SPECS[name]["calibration"])
    kernel = calibration.measure()
    import_ref = calibration.scale(import_s, kernel, kernel)
    workload, setups = set_up(name, seed, workdir, main, scale, SETUP_REPS, calibration)
    setup_wall = import_s + statistics.median(wall for wall, _, _ in setups)
    setup_s = import_ref + statistics.median(calibration.scale(*setup) for setup in setups)
    walls, samples, kernels, failed = [], [], [], 0
    kernel = calibration.measure()
    deadline = perf_counter() + seconds
    while not samples or perf_counter() < deadline:
        ms, ok = run_op(workload, main, workload.next_op())
        after = calibration.measure(ms * CALIBRATION_SHARE)
        walls.append(ms)
        samples.append(calibration.scale(ms, kernel, after))
        kernels.append(after)
        kernel = after
        failed += not ok
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if not workload.finish():
        failed = len(samples)
    n = len(samples)
    metrics = {
        "setup_s": setup_s,
        "op_p50_ms": statistics.median(samples),
        "ops_per_s": n / (sum(samples) / 1000),
        "peak_rss_mb": peak_rss_mb,
    }
    lines = [
        f"reference kernel median {statistics.median(kernels):.3f} ms ({calibration.reference_ms} ms at reference speed);"
        " times below are at reference speed, wall times in parentheses",
        f"setup_s {setup_s:.4f} s (wall {setup_wall:.4f} s; median of {SETUP_REPS} set-ups, import once)",
        f"op_p50_ms {metrics['op_p50_ms']:.3f} ms (wall {statistics.median(walls):.3f} ms, n={n})",
    ]
    if n >= 100:  # a p90 needs at least ten samples beyond it
        p90, wall_p90 = (statistics.quantiles(values, n=10)[8] for values in (samples, walls))
        lines.append(f"op_p90_ms {p90:.3f} ms (wall {wall_p90:.3f} ms, n={n}, {n - int(n * 0.9)} beyond)")
    else:
        lines.append(f"op_p90_ms not reported (n={n} < 100)")
    lines.append(
        f"ops_per_s {metrics['ops_per_s']:.4f} 1/s (wall {n / (sum(walls) / 1000):.4f} 1/s; closed loop, 1 client, {n} ops)"
    )
    lines.append(f"peak_rss_mb {peak_rss_mb:.2f} MB (this process)")
    lines.append(f"error_rate {failed / n:.4f} ratio ({failed} of {n} ops)")
    return metrics, n, failed, lines


def traced(name: str, seed: int, seconds: float, main, workdir: Path, scale: float = 1.0):
    """Each op untraced then traced, on the full story for ``seconds`` and on
    the quarter-size companion for a quarter as long; returns the same tuple."""
    from tracing import Tracer, layer_metrics

    tracer = Tracer()
    op_ids = itertools.count()
    attempted = failed = 0
    phases = {}
    for label, size, budget in (("full", scale, seconds), ("quarter", scale * QUARTER, seconds * QUARTER)):
        phase_dir = workdir / label
        phase_dir.mkdir()
        workload, _ = set_up(name, seed, phase_dir, main, size)
        plain, timed, ops = [], [], []
        phase_failed = 0
        deadline = perf_counter() + budget
        while not ops or perf_counter() < deadline:
            argv = workload.next_op()
            ms, ok = run_op(workload, main, argv)
            plain.append(ms)
            phase_failed += not ok
            op = next(op_ids)
            ms, ok = run_op(workload, main, argv, tracer, op)
            timed.append(ms)
            ops.append(op)
            phase_failed += not ok
        attempted += 2 * len(ops)
        failed += phase_failed if workload.finish() else 2 * len(ops)
        phases[label] = (workload, layer_metrics(tracer, ops), sum(timed) / sum(plain), len(ops))

    workload, metrics, ratio, n = phases["full"]
    quarter_workload, quarter, _, quarter_n = phases["quarter"]
    metrics["corpus.panels"] = workload.panels
    metrics["corpus.events"] = workload.events
    metrics["trace.overhead_pct"] = (ratio - 1) * 100
    for stage, span in GROWTH_STAGES.items():
        full_cost = metrics[span] / workload.panels
        quarter_cost = quarter[span] / quarter_workload.panels
        metrics[f"{stage}.per_panel_growth"] = full_cost / quarter_cost if full_cost and quarter_cost else 0.0
    trace_path = ROOT / ".bench_work" / f"trace-{name}-seed{seed}.json"
    tracer.dump(trace_path)
    lines = [
        f"per-layer means over {n} traced ops (growth: {quarter_n} more on the quarter-size story);"
        f" spans in {trace_path.relative_to(ROOT)}"
    ]
    return metrics, attempted, failed, lines


def result_line(metrics: dict, specs: list[dict], attempted: int, failed: int) -> str:
    missing = [spec["name"] for spec in specs if spec["name"] not in metrics]
    if missing:
        raise KeyError(f"metrics not measured: {missing}")
    return json.dumps(
        {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {s["name"]: {"value": metrics[s["name"]], "unit": s["unit"]} for s in specs},
        }
    )


def run(name: str, seed: int, seconds: float, trace: bool, scale: float = 1.0) -> str:
    """Run one workload; print the report lines and return the result line."""
    main, import_s = load_cli()
    specs = metric_specs()
    work_root = ROOT / ".bench_work"
    work_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=work_root))
    try:
        if trace:
            metrics, attempted, failed, lines = traced(name, seed, seconds, main, workdir, scale)
            chosen = specs["per_layer"]
        else:
            metrics, attempted, failed, lines = end_to_end(name, seed, seconds, main, import_s, workdir, scale)
            chosen = specs["end_to_end"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(f"# workload={name} seed={seed} seconds={seconds} trace={int(trace)}")
    for line in lines:
        print(line)
    if trace:
        for spec in chosen:
            print(f"{spec['name']} {metrics[spec['name']]:.6g} {spec['unit']}")
    return result_line(metrics, chosen, attempted, failed)


def main() -> None:
    workloads = json.loads((Path(__file__).parent / "workloads.json").read_text(encoding="utf-8"))["workloads"]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    print(run(args.workload, args.seed, args.seconds, bool(args.trace)), flush=True)


if __name__ == "__main__":
    main()
