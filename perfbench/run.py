"""qtors benchmark: closed-loop CLI workloads with end-to-end metrics and a
traced mode for per-layer metrics.

    python3 perfbench/run.py --workload dynkin|kronecker|wild|all \
        --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-check --seed N

One benchmark process starts one worker at a time (see worker.py); each
worker is one pass over the workload's commands.  Passes repeat while the
next one is expected to end within --seconds (there is always at least
one).  Every answer is checked by an oracle (oracles.py).  The last line
of stdout is one JSON object: correct, attempted, failed and the metrics,
end-to-end ones with --trace 0 and per-layer ones with --trace 1.  Inputs,
the argv of every command, the raw outputs and the spans are kept under
perfbench/runs/<workload>-seed<N>-trace<T>/.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import oracles  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

SETUP_PROBES = 5
RUN_GUARD_S = 170
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")

END_TO_END = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
LABELS = ("enumerate_s", "poset_s", "check_lattice_s", "kronecker_s",
          "kronecker_repeat_s", "witness_s", "tower_s")


class Harness:
    """The runs of one workload and seed, in one run directory."""

    def __init__(self, workload: str, seed: int, trace: bool):
        self.spec = workloads.generate(workload, seed)
        self.dir = HERE / "runs" / f"{workload}-seed{seed}-trace{int(trace)}"
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        (self.dir / "spec.json").write_text(json.dumps(self.spec, indent=1))
        # replay: cd into the run directory and run each line with the qtors CLI
        (self.dir / "commands.txt").write_text(
            "".join("qtors " + " ".join(c["argv"]) + "\n" for c in self.spec["commands"]))
        self.env = dict(os.environ, **{v: "1" for v in BLAS_VARS})
        self.started = time.monotonic()
        self.workers = 0

    def worker(self, *flags: str) -> dict:
        """Start one worker, wait for it under the wall-clock guard and read
        back its log.  CPU time is the change in this process's
        children's usage, as workers run one at a time."""
        tag = f"w{self.workers:02d}"
        self.workers += 1
        timeout = max(1.0, RUN_GUARD_S - (time.monotonic() - self.started))
        before = resource.getrusage(resource.RUSAGE_CHILDREN)
        spawned = time.monotonic()
        with open(self.dir / f"{tag}.stderr", "w") as err:
            proc = subprocess.Popen(
                [sys.executable, str(HERE / "worker.py"), str(self.dir), tag, *flags],
                env=self.env, stdin=subprocess.DEVNULL, stdout=err, stderr=err)
            try:
                proc.wait(timeout=timeout)
                killed = False
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
                killed = True
        ended = time.monotonic()
        after = resource.getrusage(resource.RUSAGE_CHILDREN)
        events = []
        log = self.dir / f"{tag}.jsonl"
        for line in log.read_text().splitlines() if log.exists() else []:
            try:
                events.append(json.loads(line))
            except json.JSONDecodeError:  # the last line of a killed worker
                pass
        ready = [e for e in events if e["event"] == "ready"]
        done = [e for e in events if e["event"] == "done"]
        return {
            "tag": tag,
            "killed": killed,
            # a worker that never got ready counts its whole life as set-up
            "setup_s": (ready[0]["t"] if ready else ended) - spawned,
            "cpu_s": (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime),
            "peak_rss_mb": done[0]["maxrss_mb"] if done else after.ru_maxrss / 1024,
            "commands": [e for e in events if e["event"] == "command"],
            "trace": done[0].get("trace") if done else None,
        }

    def run_pass(self, traced: bool = False) -> dict:
        w = self.worker(*(["--trace"] if traced else []))
        return score(self.spec["commands"], w)


def score(commands: list[dict], w: dict) -> dict:
    """Check every command of a pass with its oracle and sum its metrics.
    A command missing from the log (the worker died or was killed) failed."""
    by_index = {r["index"]: r for r in w["commands"]}
    sums = dict.fromkeys(LABELS, 0.0)
    failures = []
    for i, command in enumerate(commands):
        rec = by_index.get(i)
        if rec is None:
            failures.append({"index": i, "argv": command["argv"], "reason": "did not run to completion"})
            continue
        sums[command["label"]] += rec["wall_s"]
        reason = rec["error"] or oracles.check(command, rec["rc"], rec["stdout"])
        if reason:
            failures.append({"index": i, "argv": command["argv"], "reason": reason})
    return {
        "worker": w["tag"],
        "attempted": len(commands),
        "failed": len(failures),
        "failures": failures,
        "wall_s": sum(r["wall_s"] for r in w["commands"]),
        "cpu_s": w["cpu_s"],
        "setup_s": w["setup_s"],
        "peak_rss_mb": w["peak_rss_mb"],
        "rss_after_mb": [r["rss_mb"] for r in sorted(w["commands"], key=lambda r: r["index"])],
        "sums": sums,
        "trace": w["trace"],
        "killed": w["killed"],
    }


def environment() -> dict:
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "worker_env": {v: "1" for v in BLAS_VARS},
        "QTORS_SEED": os.environ.get("QTORS_SEED", "unset (default 0)"),
        "worker_memory_limit_bytes": worker.MEMORY_LIMIT_BYTES,
        "worker_command_timeout_s": worker.COMMAND_TIMEOUT_S,
    }


def measure(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    h = Harness(workload, seed, trace)
    deadline = h.started + seconds
    setups = [h.worker("--setup-only")["setup_s"] for _ in range(SETUP_PROBES)]
    passes = []
    while True:
        t0 = time.monotonic()
        passes.append(h.run_pass())
        took = time.monotonic() - t0
        if trace or passes[-1]["killed"] or time.monotonic() + took > deadline:
            break
    traced = h.run_pass(traced=True) if trace and not passes[-1]["killed"] else None
    every = passes + ([traced] if traced else [])
    setups += [p["setup_s"] for p in every]
    attempted = sum(p["attempted"] for p in every)
    failed = sum(p["failed"] for p in every)
    end_to_end = {m: statistics.median(setups if m == "setup_s" else [p[m] for p in passes])
                  for m in END_TO_END}
    labels = {k: statistics.median([p["sums"][k] for p in passes]) for k in LABELS}
    result = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "why": workloads.WORKLOADS[workload],
        "environment": environment(),
        "samples": {"passes": len(passes), "setup": len(setups)},
        "end_to_end": end_to_end,
        "per_command": labels,
        "fail_ratio": failed / attempted,
        "attempted": attempted,
        "failed": failed,
        "failures": [f for p in every for f in p["failures"]],
        "passes": passes,
        "traced_pass": traced,
    }
    if traced is not None and traced["trace"] is not None:
        result["per_layer"] = per_layer(workload, h, passes[0], traced)
    (h.dir / "result.json").write_text(json.dumps(result, indent=1, default=str))
    return result


def per_layer(workload: str, h: Harness, plain: dict, traced: dict) -> dict:
    import tracing

    out = tracing.layer_metrics(str(h.dir / f"{traced['worker']}.spans.npz"), traced["trace"])
    out["trace.overhead_ratio"] = traced["wall_s"] / plain["wall_s"]
    rss = plain["rss_after_mb"]
    # RSS after the repeated (3, 6) window minus RSS after its first pass
    out["rep.rss_growth_mb"] = rss[2] - rss[1] if workload == "kronecker" and len(rss) == 3 else 0.0
    out.update(plain["sums"])
    out["fail_ratio"] = plain["failed"] / plain["attempted"]
    return out


def bypass_checks(workload: str, layer: dict) -> list[tuple[str, bool]]:
    """The bypass predictions, as exact call counts of the traced pass."""
    def total(prefix: str) -> int:
        return sum(v for k, v in layer.items() if k.startswith(prefix) and k.endswith(".calls"))

    if workload == "dynkin":
        return [("modkernel.*.calls == 0", total("modkernel.") == 0)]
    return [("taurig.*.calls == 0", total("taurig.") == 0),
            ("poset.*.calls == 0", total("poset.") == 0)]


def metric_units() -> dict[str, str]:
    with open(ROOT / "BENCHMARK.json") as f:
        bench = json.load(f)
    return {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}


def report(result: dict, trace: bool) -> dict:
    """Print the human-readable lines and return the metrics of the result line."""
    units = metric_units()
    name = result["workload"]
    n = result["samples"]
    print(f"# workload {name} seed {result['seed']}: {n['passes']} pass(es), "
          f"{n['setup']} set-up samples, medians")
    print(f"# environment {json.dumps(result['environment'], sort_keys=True)}")
    for m, v in result["end_to_end"].items():
        print(f"{name}  {m:<20} {v:12.4f} {units[m]}")
    for m, v in result["per_command"].items():
        if v:
            print(f"{name}  {m:<20} {v:12.4f} s")
    print(f"{name}  {'fail_ratio':<20} {result['fail_ratio']:12.4f} "
          f"({result['failed']}/{result['attempted']})")
    for f in result["failures"][:10]:
        print(f"{name}  FAILED {' '.join(f['argv'])}: {f['reason']}")
    if not trace:
        return {m: {"value": v, "unit": END_TO_END[m]} for m, v in result["end_to_end"].items()}
    layer = result.get("per_layer", {})
    for check, ok in bypass_checks(name, layer):
        print(f"{name}  bypass {check}: {'holds' if ok else 'VIOLATED'}")
    metrics = {}
    for m, unit in units.items():
        if m in END_TO_END:
            continue
        value = layer.get(m, 0)
        metrics[m] = {"value": value, "unit": unit}
        if value:
            print(f"{name}  {m:<44} {value:14.4f} {unit}")
    return metrics


def self_check(seed: int) -> int:
    """Check the harness itself: corrupted outputs must count as failures,
    and the bypass predictions must hold as exact counts."""
    ok = True
    h = Harness("dynkin", seed, trace=False)
    h.spec["commands"] = h.spec["commands"][:3]  # the A4 quiver only
    (h.dir / "spec.json").write_text(json.dumps(h.spec, indent=1))
    w = h.worker()
    clean = score(h.spec["commands"], w)
    corrupted_w = json.loads(json.dumps(w))
    recs = sorted(corrupted_w["commands"], key=lambda r: r["index"])
    recs[0]["stdout"] = recs[0]["stdout"][: len(recs[0]["stdout"]) // 2]  # truncated
    recs[1]["stdout"] = _flip_first_value(recs[1]["stdout"])  # wrong but well formed
    recs[2]["rc"] = 1
    corrupted = score(h.spec["commands"], corrupted_w)
    checks = [
        ("clean A4 pass has no failures", clean["failed"] == 0),
        ("3 corrupted outputs count as 3 failures of 3",
         corrupted["failed"] == 3 and corrupted["attempted"] == 3),
    ]
    for workload in workloads.WORKLOADS:
        result = measure(workload, seed, 1, trace=True)
        checks.append((f"{workload}: no failed command", result["failed"] == 0))
        checks.append((f"{workload}: the traced pass recorded spans", "per_layer" in result))
        for check, holds in bypass_checks(workload, result.get("per_layer", {})):
            checks.append((f"{workload}: {check}", holds))
    for check, holds in checks:
        print(f"self-check  {check}: {'ok' if holds else 'FAILED'}")
        ok = ok and holds
    return 0 if ok else 1


def _flip_first_value(text: str) -> str:
    """Turn the first integer of a JSON text into the next integer."""
    for i, ch in enumerate(text):
        if ch.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            return text[:i] + str(int(text[i:j]) + 1) + text[j:]
    return text + "0"


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=[*workloads.WORKLOADS, "all"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=int, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--self-check", action="store_true")
    args = p.parse_args(argv)
    if not (ROOT / "src" / "qtors" / "cli.py").is_file():
        print(f"error: no qtors sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.self_check:
        return self_check(args.seed)
    if args.workload is None:
        p.error("--workload is required")
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in names:
        result = measure(name, args.seed, args.seconds, bool(args.trace))
        shown = report(result, bool(args.trace))
        prefix = f"{name}." if args.workload == "all" else ""
        metrics.update({prefix + k: v for k, v in shown.items()})
        correct = correct and result["failed"] == 0
        attempted += result["attempted"]
        failed += result["failed"]
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
