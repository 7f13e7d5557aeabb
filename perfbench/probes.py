"""Fixed layer probes of the traced run: micro-sections that drive one
layer of ``src/repro`` alone, on inputs that do not depend on the workload
being traced, so a layer has a number even on workloads that bypass it.

Each timing is the median of ``REPEATS`` batches; counts are exact.
"""

from __future__ import annotations

import statistics
import time
from typing import Callable, Dict

from repro.api.config import ClusterConfig
from repro.api.experiment import Experiment, compile_workload
from repro.harness.cache import StageCache
from repro.runtime.checkpoint import RecoveryPlan
from repro.runtime.executor import run_sequential
from repro.runtime.faults import FaultPlan
from repro.runtime.message import Message, MessageKind
from repro.runtime.serial import decode_value, encode_value
from repro.vm.interpreter import ENGINES
from repro.vm.values import DependentRef

from stats import percentile
from workloads import COMPUTE_PROGRAMS, SERVICE_PROGRAM

REPEATS = 5
REPEATS_SMOKE = 1

PAYLOADS = {"0B": 0, "64B": 64, "4KiB": 4096, "64KiB": 65536}


def _rate(fn: Callable[[], int], repeats: int, batch_s: float) -> float:
    """Median operations/second of ``fn`` (which returns how many
    operations one call performed) over ``repeats`` timed batches."""
    rates = []
    for _ in range(repeats):
        done = 0
        t0 = time.perf_counter()
        while True:
            done += fn()
            elapsed = time.perf_counter() - t0
            if elapsed >= batch_s:
                break
        rates.append(done / elapsed)
    return statistics.median(rates)


def codec_probe(repeats: int, batch_s: float) -> Dict[str, float]:
    """``runtime.message``: the 24-byte-header wire codec on its own."""
    m: Dict[str, float] = {}
    msgs = {
        label: Message(MessageKind.DEPENDENCE, 0, 1, 7, bytes(n))
        for label, n in PAYLOADS.items()
    }

    def serialize_100(msg: Message) -> int:
        for _ in range(100):
            msg.serialize()
        return 100

    fps = {}
    for label, msg in msgs.items():
        fps[label] = _rate(lambda: serialize_100(msg), repeats, batch_s)
        m[f"runtime.message.serialize_kfps.{label}"] = fps[label] / 1e3
    # serialize time per frame that the payload (crc32 + copy) adds over a
    # header-only frame, as a share of the whole 64 KiB serialize
    m["runtime.message.crc_share.64KiB"] = 1.0 - fps["64KiB"] / fps["0B"]

    frame = msgs["64B"].serialize()

    def deserialize_100() -> int:
        for _ in range(100):
            Message.deserialize(frame)
        return 100

    m["runtime.message.deserialize_kfps.64B"] = (
        _rate(deserialize_100, repeats, batch_s) / 1e3
    )

    def drain(buffer: bytes) -> int:
        offset = frames = 0
        while True:
            got = Message.decode_stream(buffer, offset)
            if got is None:
                return frames
            offset += got[1]
            frames += 1

    small = frame * 1000
    m["runtime.message.decode_stream_kfps.64B"] = (
        _rate(lambda: drain(small), repeats, batch_s) / 1e3
    )
    big = msgs["64KiB"].serialize() * 16
    m["runtime.message.decode_stream_MBps.64KiB"] = (
        _rate(lambda: drain(big), repeats, batch_s) * (len(big) / 16) / 1e6
    )
    return m


def serial_probe(repeats: int, batch_s: float) -> Dict[str, float]:
    """``runtime.serial``: the streamed value format on an RPC's typical
    cargo — a packed four-int argument list and a remote reference."""
    values = [[17, -4, 1 << 20, 99], DependentRef(1, 42, "ServiceAccount")]
    encoded = [encode_value(v, 0, None) for v in values]

    def encode_100() -> int:
        for _ in range(50):
            for v in values:
                encode_value(v, 0, None)
        return 100

    def decode_100() -> int:
        for _ in range(50):
            for data in encoded:
                decode_value(data, 0)
        return 100

    return {
        "runtime.serial.encode_kvps": _rate(encode_100, repeats, batch_s) / 1e3,
        "runtime.serial.decode_kvps": _rate(decode_100, repeats, batch_s) / 1e3,
    }


def vm_probe(repeats: int) -> Dict[str, float]:
    """``vm``: interpreter speed of each execution tier on the five compute
    programs at ``test`` size (cycles are engine-invariant, so Mcycle/s is
    pure interpreter speed); geometric mean over the programs."""
    node = ClusterConfig().build(2).nodes[0]
    cache = StageCache()
    works = [compile_workload(p, "test", cache) for p in COMPUTE_PROGRAMS]
    m = {}
    for engine in ENGINES:
        per_program = []
        for work in works:
            rates = []
            for _ in range(repeats):
                res = run_sequential(
                    work.bprogram, node, loaded=work.loaded, engine=engine
                )
                rates.append(res.cycles / res.wall_time_s / 1e6)
            per_program.append(statistics.median(rates))
        m[f"vm.{engine}_mcps"] = statistics.geometric_mean(per_program)
    return m


def _service_run(backend: str, size: str, **options):
    """One cold run of the service program; returns
    (run wall s, execute-stage s, result)."""
    exp = Experiment.from_options(
        SERVICE_PROGRAM, size=size, backend=backend, cache=StageCache(),
        force_distribution=True, **options,
    )
    t0 = time.perf_counter()
    res = exp.run()
    wall = time.perf_counter() - t0
    execute_s = sum(
        s.elapsed_s for s in res.report.stages if s.stage == "execute"
    )
    return wall, execute_s, res


def backend_probe(repeats: int, size: str, seed: int) -> Dict[str, float]:
    """``runtime.simnet`` / ``threads`` / ``proc`` / ``tcp`` / ``faults``:
    the same small service program on every transport, so their
    per-request costs are comparable with each other."""
    runs = {
        "sim": {}, "thread": {}, "process": {}, "tcp": {},
        # the fault and recovery machinery switched on but inert: what the
        # policy checks cost a clean run
        "inert": {
            "faults": FaultPlan(seed=seed),
            "recovery": RecoveryPlan(enabled=False),
        },
    }
    samples = {name: [] for name in runs}
    for _ in range(repeats):  # interleaved, so drift hits every transport
        for name, options in runs.items():
            backend = "process" if name == "inert" else name
            wall, execute_s, res = _service_run(backend, size, **options)
            lat = res.distributed.latency_s
            samples[name].append({
                "wall_s": wall,
                "makespan_s": res.distributed.makespan_s,
                "startup_ms": (execute_s - res.distributed.makespan_s) * 1e3,
                "rtt_p50_us": percentile(lat, 0.50) * 1e6,
                "requests": res.report.latency_count,
            })

    def med(name: str, key: str) -> float:
        return statistics.median(s[key] for s in samples[name])

    proc_rtt = med("process", "rtt_p50_us")
    return {
        # the simulator's makespan is virtual, its cost to the host is not
        "runtime.simnet.wall_us_per_request": (
            med("sim", "wall_s") * 1e6 / med("sim", "requests")
        ),
        "runtime.simnet.virtual_rtt_us": med("sim", "rtt_p50_us"),
        "runtime.threads.rtt_p50_us": med("thread", "rtt_p50_us"),
        "runtime.threads.makespan_ms": med("thread", "makespan_s") * 1e3,
        "runtime.proc.rtt_p50_us": proc_rtt,
        "runtime.proc.startup_ms": med("process", "startup_ms"),
        "runtime.tcp.rtt_p50_us": med("tcp", "rtt_p50_us"),
        "runtime.tcp.startup_ms": med("tcp", "startup_ms"),
        "runtime.tcp.vs_proc_rtt": med("tcp", "rtt_p50_us") / proc_rtt,
        "runtime.faults.inert_plan_overhead_pct": 100.0 * (
            med("inert", "makespan_s") / med("process", "makespan_s") - 1.0
        ),
    }


def run_probes(seed: int, smoke: bool) -> Dict[str, float]:
    repeats = REPEATS_SMOKE if smoke else REPEATS
    batch_s = 0.005 if smoke else 0.03
    m: Dict[str, float] = {}
    m.update(codec_probe(repeats, batch_s))
    m.update(serial_probe(repeats, batch_s))
    m.update(vm_probe(1 if smoke else 3))
    m.update(backend_probe(1 if smoke else 3, "test" if smoke else "bench", seed))
    return m
