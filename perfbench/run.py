"""perfbench driver: compile → distribute → run, end to end and per layer.

    python3 perfbench/run.py --workload W --seed S --seconds T --trace 0|1
    python3 perfbench/run.py --seed S --out set1.json      # all workloads

One invocation measures for ``--seconds`` per workload.  Each unit runs in
a fresh child process (``child.py``) under a hard deadline; with several
workloads the children are interleaved round-robin, so a slow phase of the
host hits every workload alike.  Every timing is the median over the
run's units.  ``BENCHMARK.json`` is the vocabulary: a metric it declares
and the run does not produce (or the reverse) is an error.

The last line of stdout is one JSON object; with ``--workload`` it is the
``{correct, attempted, failed, metrics}`` record of that workload.
README.md documents workloads, metrics and the protocol.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

from stats import percentile, summary

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: a unit that has not finished by then is killed and counted as failed
CHILD_DEADLINE_S = 120
#: fewest rounds a run reports medians over (a traced round is a traced
#: and an untraced unit)
MIN_ROUNDS = {False: 3, True: 1}


def load_vocabulary() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# the host: one CPU, and how fast it is right now
# ---------------------------------------------------------------------------
def pin_to_one_cpu() -> None:
    """Keep the benchmark, its children and the workers they fork on one
    CPU.  The load is closed-loop with one client, so at most one process is
    runnable at a time and nothing is lost; what goes away is the host's
    cross-CPU wake-up latency, which on a shared two-vCPU box swung the tcp
    workload between 3 s and 7 s per unit for minutes at a time."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


#: calm-host readings of the two calibrations on the box this benchmark was
#: written on: end-to-end times are reported as if the host ran at that speed
REFERENCE_LOOP_MS = 4.9
REFERENCE_PINGPONG_MS = 5.0


def loop_ms() -> float:
    """A fixed pure-Python loop: tracks the CPU's speed for interpreter work."""
    t0 = time.perf_counter()
    x = 0
    for i in range(150_000):
        x += i & 3
    return (time.perf_counter() - t0) * 1e3


def pingpong_ms() -> float:
    """1 500 one-byte round trips over a pipe pair with a forked echo
    process on the same CPU: tracks what a context switch and a small
    kernel transfer cost, which the loop does not see."""
    to_echo_r, to_echo_w = os.pipe()
    from_echo_r, from_echo_w = os.pipe()
    pid = os.fork()
    if pid == 0:
        try:
            while os.read(to_echo_r, 1) == b"x":
                os.write(from_echo_w, b"x")
        finally:
            os._exit(0)
    try:
        t0 = time.perf_counter()
        for _ in range(1500):
            os.write(to_echo_w, b"x")
            os.read(from_echo_r, 1)
        return (time.perf_counter() - t0) * 1e3
    finally:
        os.write(to_echo_w, b"q")
        os.waitpid(pid, 0)
        for fd in (to_echo_r, to_echo_w, from_echo_r, from_echo_w):
            os.close(fd)


def host_slowdown() -> dict:
    """How much slower than the reference host this one runs right now:
    the geometric mean of the two calibrations' ratios, each the best of
    three (a spike is not a phase).  On this shared box the same code runs
    10-70 % slower for minutes at a time; in one such phase the ping-pong
    slowed with the multi-process workloads (+11 % when they slowed
    +12-21 %) while the loop barely moved (+3 %), in others the loop moves
    as much, hence both."""
    loop = min(loop_ms() for _ in range(3))
    pingpong = min(pingpong_ms() for _ in range(3))
    return {
        "loop_ms": loop,
        "pingpong_ms": pingpong,
        "factor": math.sqrt(
            loop / REFERENCE_LOOP_MS * pingpong / REFERENCE_PINGPONG_MS
        ),
    }


# ---------------------------------------------------------------------------
# children
# ---------------------------------------------------------------------------
def child_env() -> Dict[str, str]:
    """The caller's environment minus every ``REPRO_*`` knob (engine, JIT
    threshold, test seed: the program under test gets defaults only), with
    string hashing fixed so that set order, and with it every exact count,
    repeats between children."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(spec: dict) -> dict:
    """Run one child to completion or to the deadline.  Its whole process
    group dies with it, so a wedged worker is a counted failure, never a
    stuck benchmark."""
    before = host_slowdown()
    spec = dict(spec, t_spawn=time.time())
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "child.py"), json.dumps(spec)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        env=child_env(), cwd=str(ROOT), start_new_session=True,
    )
    try:
        stdout, stderr = proc.communicate(timeout=CHILD_DEADLINE_S)
        timed_out = False
    except subprocess.TimeoutExpired:
        timed_out = True
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    if timed_out:
        stdout, stderr = proc.communicate()
    out: Optional[dict] = None
    if not timed_out and proc.returncode == 0 and stdout.strip():
        try:
            out = json.loads(stdout.strip().splitlines()[-1])
        except ValueError:
            out = None
    if out is None:
        reason = (
            f"no result within {CHILD_DEADLINE_S} s" if timed_out
            else f"exit code {proc.returncode}: {stderr.strip()[-2000:]}"
        )
        out = {"errors": [reason], "metrics": {}, "latencies_us": [], "spans": []}
    out["duration_s"] = time.perf_counter() - t0
    after = host_slowdown()
    scale_to_reference_host(out["metrics"], before, after)
    return out


def scale_to_reference_host(metrics: dict, before: dict, after: dict) -> None:
    """Report a unit's end-to-end times as if the host had run at reference
    speed while it ran.  Per-layer times stay as measured; ``host.slowdown``
    converts between the two."""
    if "setup_s" not in metrics:    # the layer probes, or a failed child
        return
    slowdown = math.sqrt(before["factor"] * after["factor"])
    metrics["setup_s"] /= before["factor"]
    metrics["run_s"] /= slowdown
    metrics["pipeline_ms"] /= slowdown
    metrics["host.slowdown"] = slowdown
    metrics["host.calib_ms"] = (before["loop_ms"] + after["loop_ms"]) / 2
    metrics["host.pingpong_ms"] = (
        before["pingpong_ms"] + after["pingpong_ms"]
    ) / 2


# ---------------------------------------------------------------------------
# one run: units of each workload until its time is used
# ---------------------------------------------------------------------------
class Run:
    """Units (and, traced, the layer probes) of one workload in one run."""

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.units: List[dict] = []     # child outputs, in launch order
        self.probes: Optional[dict] = None
        self.spent_s = 0.0

    def wants_more(self, seconds: float, trace: bool, smoke: bool) -> bool:
        per_round = 2 if trace else 1
        rounds = len(self.units) // per_round
        if smoke:
            return rounds == 0
        if rounds < MIN_ROUNDS[trace]:
            return True
        typical = statistics.median(u["duration_s"] for u in self.units)
        return self.spent_s + per_round * typical <= seconds

    @property
    def children(self) -> List[dict]:
        return self.units + ([self.probes] if self.probes else [])

    @property
    def failures(self) -> List[str]:
        return [e for c in self.children for e in c["errors"]]

    @property
    def attempted(self) -> int:
        return len(self.children)

    @property
    def failed(self) -> int:
        return sum(1 for c in self.children if c["errors"])


def measure(workloads, seed: int, seconds: float, trace: bool, smoke: bool):
    """Round-robin over ``workloads``, one fresh child per unit, until each
    has used ``seconds`` of its own children's wall time.  A traced run
    spends part of that on the layer probes and alternates traced with
    untraced units, whose difference is the tracing overhead."""
    runs = {w: Run(w) for w in workloads}
    if trace:
        # the probes do not depend on the workload: one child serves all
        probes = run_child({
            "workload": workloads[0], "seed": seed, "smoke": smoke,
            "trace": True, "probes": True, "unit": "probes",
        })
        for run in runs.values():
            run.probes = probes
            run.spent_s += probes["duration_s"] / len(runs)
    while True:
        pending = [r for r in runs.values() if r.wants_more(seconds, trace, smoke)]
        if not pending:
            return runs
        for run in pending:
            for traced in ((True, False) if trace else (False,)):
                unit = run_child({
                    "workload": run.workload, "seed": seed, "smoke": smoke,
                    "trace": traced, "probes": False,
                    "unit": f"{run.workload}#{len(run.units)}",
                })
                unit["traced"] = traced
                run.units.append(unit)
                run.spent_s += unit["duration_s"]


# ---------------------------------------------------------------------------
# from units to metrics
# ---------------------------------------------------------------------------
def aggregate(run: Run, trace: bool) -> Dict[str, dict]:
    """name -> {value (median), q1, q3, min, n} over the run's good units.
    End-to-end numbers always come from untraced units; a traced run adds
    the per-layer numbers of its traced units and of the probes."""
    good = [u for u in run.units if not u["errors"]]
    untraced = [u for u in good if not u["traced"]]
    traced = [u for u in good if u["traced"]]
    out: Dict[str, dict] = {}

    def collect(units: List[dict]) -> None:
        names = {n for u in units for n in u["metrics"]}
        for name in names:
            out[name] = summary([u["metrics"][name] for u in units if name in u["metrics"]])

    collect(traced)
    collect(untraced)       # wins wherever both kinds report a metric
    if trace and run.probes and not run.probes["errors"]:
        for name, value in run.probes["metrics"].items():
            out[name] = summary([value])

    # per-request latency is pooled over the run's units, not averaged
    pooled = sorted(x for u in untraced for x in u["latencies_us"])
    tails = {
        "rtt_p50_us": 0.50,
        "runtime.services.rtt_p95_us": 0.95,
        "runtime.services.rtt_p99_us": 0.99,
        "runtime.services.rtt_p999_us": 0.999,
    }
    for name, p in tails.items():
        out[name] = dict(summary([percentile(pooled, p)]), n=len(pooled))

    if trace and traced and untraced:
        base = statistics.median(u["metrics"]["run_s"] for u in untraced)
        with_spans = statistics.median(u["metrics"]["run_s"] for u in traced)
        out["trace.overhead_pct"] = summary([100.0 * (with_spans / base - 1.0)])
    out["host.nproc"] = summary([os.cpu_count() or 1])
    out["host.python"] = summary(
        [sys.version_info.major + sys.version_info.minor / 100.0]
    )
    return out


def select(values: Dict[str, dict], declared: List[dict], workload: str) -> Dict[str, dict]:
    """The declared metrics, each with its declared unit; anything missing
    means code and ``BENCHMARK.json`` disagree."""
    missing = [d["name"] for d in declared if d["name"] not in values]
    if missing:
        raise SystemExit(f"{workload}: no value for declared metrics {missing}")
    return {d["name"]: dict(values[d["name"]], unit=d["unit"]) for d in declared}


def write_spans(runs: Dict[str, Run], path: Path) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        for run in runs.values():
            for unit in run.units:
                for span in unit["spans"]:
                    fh.write(json.dumps(span) + "\n")


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------
def main() -> int:
    vocab = load_vocabulary()
    names = [w["name"] for w in vocab["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=names,
                    help="measure one workload (default: all, interleaved)")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=vocab["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=None,
                    help="0: end-to-end metrics, 1: per-layer metrics "
                         "(default: both, from one traced run)")
    ap.add_argument("--smoke", action="store_true",
                    help="one unit per workload at test sizes (tier-1 test)")
    ap.add_argument("--out", type=Path, help="also write the result here")
    ap.add_argument("--trace-out", type=Path, default=HERE / "out" / "trace.jsonl",
                    help="where a traced run writes its spans")
    args = ap.parse_args()
    pin_to_one_cpu()
    if not (SRC / "repro").is_dir():
        print(f"perfbench: no program to measure at {SRC}", file=sys.stderr)
        return 2

    workloads = [args.workload] if args.workload else names
    # without --trace one traced run reports both kinds: its untraced units
    # carry the end-to-end metrics, its traced units and probes the layers
    trace = args.trace != 0
    runs = measure(workloads, args.seed, args.seconds, trace, args.smoke)
    kinds = ["end_to_end", "per_layer"] if args.trace is None else [
        "per_layer" if trace else "end_to_end"
    ]
    result = {}
    for w, run in runs.items():
        for err in run.failures:
            print(f"perfbench: {w}: {err}", file=sys.stderr)
        values = aggregate(run, trace)
        result[w] = {
            "attempted": run.attempted,
            "failed": run.failed,
            "error_rate": run.failed / run.attempted,
            **{kind: select(values, vocab[kind], w) for kind in kinds},
        }
    if trace:
        write_spans(runs, args.trace_out)
    failed = sum(res["failed"] for res in result.values())

    if args.workload and args.trace is not None:
        res = result[args.workload]
        line = {
            "correct": failed == 0,
            "attempted": res["attempted"],
            "failed": res["failed"],
            "metrics": {
                n: {"value": m["value"], "unit": m["unit"]}
                for n, m in res[kinds[0]].items()
            },
        }
    else:
        line = {
            "schema": "perfbench/1", "seed": args.seed,
            "seconds": args.seconds, "smoke": args.smoke,
            "workloads": result,
        }
    text = json.dumps(line)
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(text + "\n")
    print(text)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
