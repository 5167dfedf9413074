"""Run one workload of the coeffopt benchmark and print its metrics.

    python3 bench/run.py --workload laminate-disk --seed 1 --seconds 20 --trace 0

Run from anywhere; the checkout is the directory above ``bench/`` and
must hold the coeffopt sources in ``src/``.  The workload runs in a
child process with OpenBLAS pinned to one thread (``workloads.py``);
with ``--trace 0`` five more fresh children each measure set-up alone.
Every operation passes a correctness gate before it counts.  The report
goes to standard output, and its last line is one JSON object with the
metrics that ``BENCHMARK.json`` registers: the ``end_to_end`` ones with
``--trace 0``, the ``per_layer`` ones with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("laminate-disk", "compliance-square-256", "gclosure-pointwise",
             "compliance-disk-200")
SETUP_PROBES = 5
TIME_LIMIT_S = 170.0  # the whole run, set-up probes included
# counts that must repeat exactly between traced rounds
REPEATING_COUNTS = ("fem.solves", "fem.cg_iters", "fem.assemble_calls",
                    "optimize.iterations", "optimize.trial_solves",
                    "gclosure.is_admissible_calls")


class ChildFailed(RuntimeError):
    pass


def _child_env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    src = str(ROOT / "src")
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = src + (os.pathsep + old if old else "")
    return env


def _child(mode: str, args: argparse.Namespace, deadline: float,
           extra=()) -> dict:
    cmd = [sys.executable, str(BENCH / "workloads.py"), mode,
           "--workload", args.workload, "--seed", str(args.seed), *extra]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=_child_env(), text=True,
                              capture_output=True,
                              timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        raise ChildFailed(f"{mode} child exceeded the {TIME_LIMIT_S:.0f} s "
                          "limit and was stopped") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildFailed(f"{mode} child exited with {proc.returncode}:\n"
                          + proc.stderr[-4000:])
    return json.loads(lines[-1])


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.partition(":")[2].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _tail(samples: list[float]) -> str:
    """The highest percentile with at least ten samples beyond it."""
    n = len(samples)
    if n < 11:
        return f"n={n}, too few samples for a tail percentile"
    # the sample at 0-based rank n - 11 has exactly ten above it and
    # n - 10 at or below it
    return (f"n={n}, p{100.0 * (n - 10) / n:.0f} = "
            f"{sorted(samples)[n - 11]:.6g}")


def _median(values: list[float]) -> float | None:
    return statistics.median(values) if values else None


def _timed_metrics(run: dict, setup: list[float]) -> tuple[dict, list[str]]:
    """End-to-end metrics of an untraced run, and their report lines.

    Each round repeats the same work; a case's time is the median over
    its passing rounds.
    """
    ops = [op for r in run["rounds"] for op in r["ops"]]
    lines, design, write = [], [], []
    for name in dict.fromkeys(op["name"] for op in ops):
        tries = [op for op in ops if op["name"] == name]
        d = [op["design_s"] for op in tries if op["ok"]]
        w = [op["write_s"] for op in tries if op["ok"]]
        if not d:
            lines.append(f"case {name}: 0 of {len(tries)} passed")
            continue
        design.append(_median(d))
        write.append(_median(w))
        line = (f"case {name}: {len(d)} of {len(tries)} passed; design "
                f"median {_median(d):.4f} s, fastest {min(d):.4f} s "
                f"({_tail(d)})")
        if any(w):
            line += (f"; write median {_median(w):.4f} s, fastest "
                     f"{min(w):.4f} s")
        lines.append(line)
    complete = len(design) == len({op["name"] for op in ops})
    failed = sum(not op["ok"] for op in ops)
    setup_s = _median(setup)
    design_s = sum(design) if complete else None
    write_s = sum(write) if complete and any(write) else None
    rows = [
        ("setup_s", "s", setup_s,
         f"median of {len(setup)} fresh processes: import, then mesh or "
         f"inputs ({_tail(setup)})"),
        ("design_s", "s", design_s,
         "sum over cases of the median run_experiment call or pointwise "
         "batch"),
        ("write_s", "s", write_s,
         "sum over cases of the median write_outputs call"),
        ("wall_s", "s", None if design_s is None
         else setup_s + design_s + (write_s or 0.0),
         "setup_s + design_s + write_s"),
        ("failed_frac", "ratio", failed / len(ops),
         f"{failed} of {len(ops)} operations"),
        ("peak_rss_mb", "MB", run["peak_rss_mb"],
         "workload process, through set-up and its first round"),
    ]
    extras = {}
    for op in ops:
        if op["ok"]:
            for key, value in op["extras"].items():
                extras.setdefault(key, []).append(value)
    for key, values in extras.items():
        rows.append((key, "1/s" if key.endswith("_per_s") else "ratio",
                     _median(values), "median per operation"))

    metrics = {}
    for name, unit, value, what in rows:
        if value is None:
            lines.append(f"metric {name}: no complete sample ({what})")
            continue
        metrics[name] = value
        lines.append(f"metric {name} = {value:.6g} {unit}  ({what})")
    return metrics, lines


def _traced_metrics(run: dict, units: dict) -> tuple[dict, list[str],
                                                       list[str]]:
    """Per-layer medians over traced rounds, report lines, count faults."""
    traced = run["traced"]
    names = sorted({k for t in traced for k in t["metrics"]})
    metrics, lines, faults = {}, [], []
    for name in names:
        values = [t["metrics"][name] for t in traced]
        if len(set(values)) == 1:
            metrics[name] = values[0]  # keeps counts whole
        else:
            metrics[name] = statistics.median(values)
            if name in REPEATING_COUNTS:
                faults.append(f"{name} differs between traced rounds: "
                              f"{values}")
    for target in run["missing"]:
        lines.append(f"missing: {target} (its metrics are left out)")
    wall = statistics.median(t["wall_s"] for t in traced)
    shares = []
    for layer in traced[0]["layer_self_s"]:
        own = statistics.median(t["layer_self_s"][layer] for t in traced)
        shares.append(f"{layer} {100.0 * own / wall:.1f}%")
    lines.append(f"self-time share of traced wall {wall:.4g} s: "
                 + ", ".join(shares))
    lines.extend(f"layer {name} = {value:.6g} {units.get(name, '')}"
                 for name, value in metrics.items())
    lines.extend(f"layer {name}: not measured (a missing target, or every "
                 "driver call raised)" for name in units if name not in metrics)
    return metrics, lines, faults


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawTextHelpFormatter)
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True,
                   help="measure for this long (at least one round)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "coeffopt" / "__init__.py").is_file() \
            or not spec_path.is_file():
        print(f"error: {ROOT} is not a coeffopt checkout (no src/coeffopt "
              "or BENCHMARK.json)", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text(encoding="utf-8"))

    deadline = time.monotonic() + TIME_LIMIT_S
    out_dir = ROOT / ".bench_run" / f"run-{os.getpid()}"
    try:
        setup = [] if args.trace else [
            _child("setup", args, deadline)["setup_s"]
            for _ in range(SETUP_PROBES)]
        run = _child("run", args, deadline, [
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--out-dir", str(out_dir)])
    except ChildFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
        try:
            out_dir.parent.rmdir()
        except OSError:
            pass  # not empty: another run is using it

    env = run["env"]
    print(f"coeffopt benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print(f"env: nproc={len(os.sched_getaffinity(0))} cpu={_cpu_model()!r} "
          f"python={env['python']} numpy={env['numpy']} scipy={env['scipy']} "
          f"OPENBLAS_NUM_THREADS={env['OPENBLAS_NUM_THREADS']}")

    ops = [op for r in run["rounds"] for op in r["ops"]]
    messages = {}
    for k, r in enumerate(run["rounds"], start=1):
        for op in r["ops"]:
            verdict = "PASS" if op["ok"] else \
                "FAIL" if op["incorrect"] else "ERROR"
            print(f"round {k} {op['name']}: design {op['design_s']:.4f} s, "
                  f"write {op['write_s']:.4f} s, {verdict} - {op['detail']}")
            if not op["ok"]:
                messages[op["detail"]] = messages.get(op["detail"], 0) + 1
    attempted, failed = len(ops), sum(not op["ok"] for op in ops)
    correct = not any(op["incorrect"] for op in ops)

    if args.trace:
        registered = spec["per_layer"]
        metrics, lines, faults = _traced_metrics(
            run, {m["name"]: m["unit"] for m in registered})
        attempted += 1  # the repeat check on the traced counts
        failed += bool(faults)
        correct = correct and not faults
        for fault in faults:
            messages[fault] = 1
    else:
        metrics, lines = _timed_metrics(run, setup)
        registered = spec["end_to_end"]
    for line in lines:
        print(line)
    for msg, count in messages.items():
        print(f"failure x{count}: {msg}")

    out = {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
           for m in registered if m["name"] in metrics}
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": out}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
