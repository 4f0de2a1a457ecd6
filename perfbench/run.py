"""bigphon benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload {prep,train,evaluate} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source checkout; the program under test is the
checkout's `src/bigphon`. Every command runs in a fresh interpreter, one at
a time (a closed loop with one client), with BLAS/OpenMP pinned to one
thread and the run pinned to one CPU. Inputs come from the seed; the program
only sees generated files. Times are in reference seconds: each command's
wall time is scaled by the calibration probes run on either side of it (see
probe.py), so that most of the host's drifting speed cancels out.

The run sets the workload up several times (the median is `setup_s`), then
repeats passes over the workload's commands for about S seconds. Each pass
is checked against the references recorded for the seed's input variant.
With --trace 0 it reports the end-to-end metrics, medians over passes; with
--trace 1 it alternates untraced and traced passes and reports per-layer
self times and counts from the traced ones, plus the tracing overhead.
Human-readable lines come first; the last line is one JSON object.
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
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench import probe, tracing, workloads  # noqa: E402

SETUPS = 5
THREADS = 1
COMMAND_TIMEOUT_S = 150.0
RUN_DEADLINE_S = 150.0
WORK = ROOT / ".perfbench_work"
REFERENCES = Path(__file__).resolve().parent / "references.json"


THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT)])
    env.update({var: str(THREADS) for var in THREAD_VARS})
    return env


def run_command(argv: list[str], log_stem: Path, env: dict) -> tuple[int, float, float]:
    """Run `python -m perfbench.launch argv`; (exit code, wall s, peak RSS MB)."""
    with open(f"{log_stem}.out", "wb") as out, open(f"{log_stem}.err", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "perfbench.launch", *argv],
                                cwd=ROOT, env=env, stdout=out, stderr=err)
        timer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


class Runner:
    """Runs commands one at a time, with a calibration probe after each.

    The probe shares the commands' CPU (the caller pins the process), so the
    probes on either side of a command see the speed the command saw.
    """

    def __init__(self, env: dict):
        self.env = env
        probe.measure()  # warm-up: first-call imports and allocations
        self.probes = [probe.measure()]

    def run(self, argv: list[str], log_stem: Path) -> tuple[int, float, float, float]:
        """(exit code, wall s, mean probe s on either side, peak RSS MB)."""
        code, wall, rss = run_command(argv, log_stem, self.env)
        self.probes.append(probe.measure())
        return code, wall, (self.probes[-2] + self.probes[-1]) / 2, rss


def run_pass(workload, inputs: Path, out: Path, variant: int, reference: dict,
             runner: Runner, traced: bool) -> dict:
    """One pass over the workload's commands, checked against the reference."""
    out.mkdir(parents=True)
    walls, raw, stdout, traces, problems = {}, {}, {}, [], []
    peak = 0.0
    for name, argv in workload.commands(inputs, out, variant):
        stem = out / name
        prefix = ["--trace", f"{stem}.spans.json", f"{out.name}/{name}"] if traced else []
        code, wall, probe_s, rss = runner.run(prefix + argv, stem)
        walls[name] = probe.scale(wall, probe_s)
        raw[name], peak = wall, max(peak, rss)
        stdout[name] = Path(f"{stem}.out").read_text(encoding="utf-8", errors="replace")
        if code != 0:
            err = Path(f"{stem}.err").read_text(encoding="utf-8", errors="replace")
            problems.append(f"{name} exited {code}: {err.strip()[-300:]}")
        spans = Path(f"{stem}.spans.json")
        if traced and spans.exists():
            traces.append((wall, json.loads(spans.read_text(encoding="utf-8"))))
        elif traced:
            problems.append(f"{name} wrote no spans")
    seen = {}
    if not problems:
        try:
            seen = workload.observe(out, stdout)
            problems = workloads.mismatches(seen, reference)
        except (OSError, KeyError, ValueError, IndexError) as exc:
            problems = [f"unreadable output: {exc!r}"]
    return {
        "commands": len(walls),
        "failed": len(walls) if problems else 0,
        "problems": problems,
        "seen": seen,
        "walls": walls,
        "wall_s": sum(walls.values()),
        "raw_wall_s": sum(raw.values()),
        "peak_rss_mb": peak,
        "traced": traced,
        "layers": tracing.layer_metrics(traces) if traced and not problems else None,
        "missing": [m for _, trace in traces for m in trace["missing"]],
    }


def set_up(workload, variant: int, work: Path, runner: Runner) -> tuple[float, Path, dict]:
    """Set up SETUPS times in fresh interpreters; (median reference s, inputs, meta)."""
    times = []
    for k in range(SETUPS):
        inputs = work / f"setup-{k}"
        code, wall, probe_s, _ = runner.run(["setup", workload.name, str(variant), str(inputs)],
                                            work / f"setup-{k}")
        if code != 0:
            err = (work / f"setup-{k}.err").read_text(encoding="utf-8", errors="replace")
            raise SystemExit(f"perfbench: set-up failed (exit {code}): {err.strip()[-500:]}")
        times.append(probe.scale(wall, probe_s))
    meta = json.loads((inputs / "meta.json").read_text(encoding="utf-8"))
    return statistics.median(times), inputs, meta


def measure(workload, variant, inputs, reference, runner, seconds, trace, work):
    """Passes while the next one is predicted to end within `seconds`.

    With tracing, passes alternate untraced/traced, and there are at least two.
    """
    passes = []
    begin = time.perf_counter()
    while True:
        traced = bool(trace) and len(passes) % 2 == 1
        result = run_pass(workload, inputs, work / f"pass-{len(passes)}", variant,
                          reference, runner, traced)
        shutil.rmtree(work / f"pass-{len(passes)}", ignore_errors=True)
        passes.append(result)
        elapsed = time.perf_counter() - begin
        need_more = trace and len(passes) < 2
        if not need_more and elapsed + result["raw_wall_s"] > seconds:
            break
        if elapsed > RUN_DEADLINE_S - result["raw_wall_s"]:
            break
    return passes


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def pin_to_one_cpu() -> tuple[int, int]:
    """Pin this process and its children to one allowed CPU; (nproc, CPU)."""
    allowed = os.sched_getaffinity(0)
    cpu = max(allowed)
    os.sched_setaffinity(0, {cpu})
    return len(allowed), cpu


def _median(values):
    return statistics.median(values) if values else 0.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "bigphon" / "__init__.py").is_file():
        print(f"perfbench: no bigphon sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    variant = args.seed % workloads.N_VARIANTS
    references = json.loads(REFERENCES.read_text(encoding="utf-8"))
    reference = references["workloads"][workload.name][str(variant)]

    run_name = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    work = WORK / run_name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    n_cpus, cpu = pin_to_one_cpu()
    os.environ.update({var: str(THREADS) for var in THREAD_VARS})  # for the probe's BLAS
    runner = Runner(child_env())
    try:
        setup_s, inputs, meta = set_up(workload, variant, work, runner)
        passes = measure(workload, variant, inputs, reference, runner, args.seconds,
                         args.trace, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    environment = {
        "workload": workload.name, "seed": args.seed, "variant": variant,
        "nproc": n_cpus, "pinned_cpu": cpu, "cpu": cpu_model(),
        "python": platform.python_version(), "numpy": meta["numpy"], "blas": meta["blas"],
        "blas_threads": THREADS, "probe_reference_s": probe.REFERENCE_S,
        "probe_median_s": statistics.median(runner.probes),
        "passes": len(passes),
        "traced_passes": sum(p["traced"] for p in passes),
    }
    attempted = sum(p["commands"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    plain = [p for p in passes if not p["traced"] and not p["failed"]]
    traced = [p for p in passes if p["traced"] and not p["failed"]]

    figures = {"setup_s": setup_s}
    for key in ("wall_s", "peak_rss_mb", "raw_wall_s"):
        figures[key] = _median([p[key] for p in plain])
    per_pass = [workload.figures(p["walls"], meta) for p in plain]
    for key in per_pass[0] if per_pass else ():
        figures[key] = _median([f[key] for f in per_pass])

    print(f"# perfbench {json.dumps(environment, sort_keys=True)}")
    for k, p in enumerate(passes):
        walls = " ".join(f"{name}={wall:.3f}" for name, wall in p["walls"].items())
        print(f"# pass {k}{' traced' if p['traced'] else ''}: {walls} "
              f"raw_wall_s={p['raw_wall_s']:.3f} peak_rss_mb={p['peak_rss_mb']:.1f}")
        for problem in p["problems"]:
            print(f"# FAILED: {problem}")
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.trace:
        values = {key: _median([p["layers"][key] for p in traced])
                  for key in (traced[0]["layers"] if traced else ())}
        traced_wall = _median([p["wall_s"] for p in traced])
        missing = sorted({m for p in traced for m in p["missing"]})
        if missing:
            print(f"# not in this bigphon, read as zero: {', '.join(missing)}")
        values["trace.overhead_s"] = traced_wall - figures["wall_s"]
        print(f"# wall_s untraced {figures['wall_s']:.6f} s, traced {traced_wall:.6f} s")
        rows = [(m["name"], m["unit"]) for m in declared["per_layer"]]
    else:
        values = figures
        rows = [(m["name"], m["unit"]) for m in declared["end_to_end"]]
        rows += [(key, workloads.FIGURE_UNITS[key]) for key in (per_pass[0] if per_pass else ())]
        rows += [("raw_wall_s", "s")]
    for key, unit in rows:
        print(f"{key:34s} {values.get(key, 0.0):16.6f} {unit}")
    print(f"{'failed_frac':34s} {failed / max(attempted, 1):16.6f} 1")
    kind = "per_layer" if args.trace else "end_to_end"
    metrics = {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]}
               for m in declared[kind]}
    print(json.dumps({"correct": failed == 0 and bool(plain), "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
