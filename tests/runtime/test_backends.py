"""Runtime backend tests: registry, and behavioral parity of the thread and
process backends with the simulator (lifecycle, remote objects, nested
calls, statics, error propagation)."""

import sys
import pathlib

sys.path.insert(0, str(pathlib.Path(__file__).parent.parent))

import pytest

from helpers import compile_mj_raw

from repro.distgen import rewrite_program
from repro.distgen.plan import DistributionPlan
from repro.errors import RuntimeServiceError, VMError
from repro.runtime.backend import backend_names, create_backend
from repro.runtime.cluster import ClusterSpec, NodeSpec, ethernet_100m
from repro.runtime.executor import DistributedExecutor

BACKENDS = ("sim", "thread", "process", "tcp")


def split_executor(src, homes, backend, main_partition=0, nparts=2,
                   async_writes=False):
    bp, _ = compile_mj_raw(src)
    plan = DistributionPlan(
        nparts=nparts,
        granularity="class",
        class_home=homes,
        dependent_classes=set(bp.classes),
        main_partition=main_partition,
    )
    rewritten, _ = rewrite_program(bp, plan)
    cluster = ClusterSpec(
        nodes=[NodeSpec(f"n{i}", 1e9) for i in range(nparts)],
        link=ethernet_100m(),
    )
    return DistributedExecutor(
        rewritten, plan, cluster, async_writes=async_writes, backend=backend
    )


def run_split(*args, **kwargs):
    return split_executor(*args, **kwargs).run()


# ------------------------------------------------------------------ registry
def test_registry_lists_all_builtin_backends():
    assert backend_names() == ["process", "sim", "tcp", "thread"]


def test_unknown_backend_rejected():
    from repro.errors import UnknownPluginError

    spec = ClusterSpec(nodes=[NodeSpec("n0", 1e9)], link=ethernet_100m())
    with pytest.raises(UnknownPluginError, match="unknown runtime backend"):
        create_backend("carrier-pigeon", spec)
    with pytest.raises(UnknownPluginError, match="did you mean 'thread'"):
        create_backend("threads", spec)


def test_executor_rejects_unknown_backend_at_run():
    src = "class M { static void main(String[] args) { Sys.println(1); } }"
    bp, _ = compile_mj_raw(src)
    plan = DistributionPlan(
        nparts=1, granularity="class", class_home={"M": 0},
        dependent_classes=set(), main_partition=0,
    )
    cluster = ClusterSpec(nodes=[NodeSpec("n0", 1e9)], link=ethernet_100m())
    ex = DistributedExecutor(bp, plan, cluster, backend="nosuch")
    from repro.errors import UnknownPluginError

    with pytest.raises(UnknownPluginError, match="unknown runtime backend"):
        ex.run()


# ------------------------------------------------------------------- parity
@pytest.mark.parametrize("backend", BACKENDS)
def test_remote_object_lifecycle(backend):
    src = """
    class Cell {
        int v;
        Cell(int v) { this.v = v; }
        int get() { return v; }
        void set(int x) { v = x; }
    }
    class M {
        static void main(String[] args) {
            Cell c = new Cell(5);
            c.set(c.get() * 2);
            Sys.println(c.get() + "," + c.v);
        }
    }
    """
    result = run_split(src, {"Cell": 1, "M": 0}, backend)
    assert result.stdout == ["10,10"]
    assert result.total_messages >= 6  # NEW + accesses + replies
    assert result.total_bytes > 0
    assert len(result.node_stats) == 2
    assert result.makespan_s > 0


@pytest.mark.parametrize("backend", BACKENDS)
def test_nested_remote_callback(backend):
    """A remote method calling back into the caller's node — the re-entrant
    pump case — must work under every driver (scheduler, threads, pipes)."""
    src = """
    class Alpha {
        Beta peer;
        int base;
        Alpha(int base) { this.base = base; }
        void setPeer(Beta b) { peer = b; }
        int compute(int x) { return base + peer.scale(x); }
        int raw() { return base; }
    }
    class Beta {
        Alpha friend;
        void setFriend(Alpha a) { friend = a; }
        int scale(int x) { return x * friend.raw(); }
    }
    class M {
        static void main(String[] args) {
            Alpha a = new Alpha(3);
            Beta b = new Beta();
            a.setPeer(b);
            b.setFriend(a);
            Sys.println(a.compute(4));
        }
    }
    """
    assert run_split(src, {"Alpha": 0, "Beta": 1, "M": 0}, backend).stdout == ["15"]


@pytest.mark.parametrize("backend", BACKENDS)
def test_three_node_distribution(backend):
    src = """
    class A { int f() { return 1; } }
    class B { int g() { return 2; } }
    class M {
        static void main(String[] args) {
            A a = new A();
            B b = new B();
            Sys.println(a.f() + b.g());
        }
    }
    """
    result = run_split(src, {"A": 1, "B": 2, "M": 0}, backend, nparts=3)
    assert result.stdout == ["3"]
    assert len(result.node_stats) == 3


@pytest.mark.parametrize("backend", BACKENDS)
def test_statics_are_per_node(backend):
    """Per-JVM statics: trivially true for the process backend (real
    separate heaps) and must stay true in shared-interpreter backends."""
    src = """
    class G { static int counter; }
    class Worker {
        int bump() { G.counter++; return G.counter; }
    }
    class M {
        static void main(String[] args) {
            Worker w = new Worker();
            w.bump(); w.bump();
            G.counter = 100;
            Sys.println(w.bump() + "," + G.counter);
        }
    }
    """
    assert run_split(src, {"Worker": 1, "M": 0, "G": 0}, backend).stdout == ["3,100"]


@pytest.mark.parametrize("backend", BACKENDS)
def test_shared_virtual_call_site_with_a_receiver_class_per_node(backend):
    """``Shape.total`` is one ``BMethod`` — in the shared-interpreter
    backends one execution plan, so one inline-cached call site — that runs
    on node 0 with a ``Shape`` receiver and on node 1 with a ``Square``:
    every call lands in the runtime class's ``area`` on every backend."""
    from repro.vm.jit import CallSite

    src = """
    class Shape {
        int n;
        int area(int x) { this.n = this.n + 1; return x + 1; }
        int total(int m) {
            int t = 0;
            for (int i = 0; i < m; i = i + 1) { t = t + this.area(i); }
            return t;
        }
    }
    class Square extends Shape {
        int area(int x) { this.n = this.n + 2; return x * 2; }
    }
    class M {
        static void main(String[] args) {
            Shape a = new Shape();
            Shape b = new Square();
            int s = 0;
            for (int r = 0; r < 6; r = r + 1) {
                s = s + a.total(40) + b.total(40);
            }
            Sys.println(s + ":" + a.n + ":" + b.n);
        }
    }
    """
    ex = split_executor(
        src, {"Shape": 0, "Square": 1, "M": 0}, backend, async_writes=True
    )
    assert ex.run().stdout == ["14280:240:480"]
    if backend in ("sim", "thread"):  # the node machines ran in this process
        total = ex.loaded.lookup_method("Shape", "total").flat()
        sites = [e for e in total.fused
                 if e.__class__ is CallSite and e.ins.b == "area"]
        assert len(sites) == 1 and sites[0].cache[2].name == "area"


@pytest.mark.parametrize("backend", BACKENDS)
def test_remote_error_propagates(backend):
    src = """
    class Risky {
        int divide(int a, int b) { return a / b; }
    }
    class M {
        static void main(String[] args) {
            Risky r = new Risky();
            Sys.println(r.divide(1, 0));
        }
    }
    """
    with pytest.raises(VMError, match="remote error"):
        run_split(src, {"Risky": 1, "M": 0}, backend)


@pytest.mark.parametrize("backend", ("thread", "process", "tcp"))
def test_peer_failure_fails_fast(backend):
    """A node dying outside the reply protocol (here: event-budget blowout)
    broadcasts SHUTDOWN; a peer stuck awaiting a reply must fail promptly
    instead of sitting out its full wait timeout."""
    import time

    src = """
    class Cell {
        int v;
        int get() { return v; }
        void set(int x) { v = x; }
    }
    class M {
        static void main(String[] args) {
            Cell c = new Cell();
            int i;
            for (i = 0; i < 50; i++) { c.set(c.get() + i); }
            Sys.println(c.get());
        }
    }
    """
    bp, _ = compile_mj_raw(src)
    plan = DistributionPlan(
        nparts=2, granularity="class", class_home={"Cell": 1, "M": 0},
        dependent_classes={"Cell", "M"}, main_partition=0,
    )
    from repro.distgen import rewrite_program as _rw

    rewritten, _ = _rw(bp, plan)
    cluster = ClusterSpec(
        nodes=[NodeSpec("n0", 1e9), NodeSpec("n1", 1e9)], link=ethernet_100m()
    )
    ex = DistributedExecutor(rewritten, plan, cluster, backend=backend)
    t0 = time.monotonic()
    with pytest.raises(RuntimeServiceError):
        ex.run(max_events=40)
    assert time.monotonic() - t0 < 30.0, "peer failure took the slow path"


# -------------------------------------------------------------------- stats
@pytest.mark.parametrize("backend", BACKENDS)
def test_node_stats_flow_through_shared_snapshot(backend):
    """Stats come off every backend through the same snapshot path: heap
    census, stdout capture and message counters are populated."""
    src = """
    class Item { int v; Item(int v) { this.v = v; } int get() { return v; } }
    class M {
        static void main(String[] args) {
            Item a = new Item(1);
            Item b = new Item(2);
            Sys.println(a.get() + b.get());
        }
    }
    """
    result = run_split(src, {"Item": 1, "M": 0}, backend)
    assert result.stdout == ["3"]
    total_heap = sum(s.heap_objects for s in result.node_stats)
    assert total_heap >= 2
    assert sum(s.messages_sent for s in result.node_stats) == result.total_messages
    assert sum(s.bytes_sent for s in result.node_stats) == result.total_bytes
    assert [line for s in result.node_stats for line in s.stdout] == result.stdout
    agg = result.aggregate()
    assert agg["nodes"] == 2.0
    assert agg["requests_served"] >= 1.0


def test_jit_counters_identical_across_backends():
    """``machine.jit_stats()`` rides home in every node report, so the
    cluster-wide JIT counters of one program on one engine do not depend on
    whether its machines lived in this process."""
    from repro.api import Experiment
    from repro.harness.cache import StageCache

    jit = {
        backend: Experiment.from_options(
            "bank", size="test", backend=backend, engine="compiled",
            cache=StageCache(), force_distribution=True,
        ).run().distributed.jit
        for backend in BACKENDS
    }
    assert jit["sim"]["promotions"] > 0
    assert all(j == jit["sim"] for j in jit.values()), jit
