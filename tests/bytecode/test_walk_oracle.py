"""The verifier's one static walk against the one interpreter: every bundled
workload runs at ``test`` size on the reference engine, observed through
the profiler's ``on_step`` hook.  Before every executed instruction the
operand stack is as deep as the verifier's cached entry depth, and after
every step that neither calls nor returns, the next ``pc`` is one of
:func:`~repro.bytecode.model.successors`' answers — for a conditional
branch, the first when it is taken and the second when it is not."""

import pytest

from repro.api.experiment import compile_workload
from repro.bytecode import opcodes as op
from repro.bytecode.model import successors
from repro.profiler.base import Profiler, attach
from repro.vm.interpreter import Machine, forced_engine, run_sync
from repro.workloads import WORKLOADS


class FlowObserver(Profiler):
    """Checks each step against the walk; counts what it checked."""

    name = "flow-oracle"

    def __init__(self) -> None:
        #: ``(frame, frames on the machine, pc, successors, taken)`` of the
        #: step before (``taken``: ``None`` unless a conditional branch)
        self.last = None
        self.steps = self.followed = self.branches = 0

    def on_step(self, machine, cost: int) -> int:
        frames = machine.frames
        frame = frames[-1]
        pc = frame.pc - 1  # ``step`` has moved past the instruction already
        where = f"{frame.method.qualified}@{pc}"
        last = self.last
        if last is not None and last[0] is frame and last[1] == len(frames):
            _, _, prev, succ, taken = last
            assert pc in succ, f"{where}: reached from @{prev}, not in {succ}"
            if taken is not None:
                assert pc == succ[0 if taken else 1], \
                    f"{where}: branch at @{prev} taken={taken}, successors {succ}"
                self.branches += 1
            self.followed += 1
        ins = frame.flat[pc]
        stack = frame.stack
        assert len(stack) == frame.flat.depths[pc], \
            f"{where}: stack {len(stack)} deep, verifier says {frame.flat.depths[pc]}"
        o = ins.op
        taken = None
        if o in op.CMP_BRANCHES:
            taken = bool(ins.cfn(stack[-2], stack[-1]))
        elif o in op.BOOL_BRANCHES:
            taken = bool(stack[-1]) == (o == op.IFTRUE)
        self.last = (frame, len(frames), pc, successors(ins, pc), taken)
        self.steps += 1
        return 0


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_every_step_follows_the_verifiers_walk(workload):
    loaded = compile_workload(workload, "test").loaded
    machine = Machine(loaded)
    machine.statics = loaded.fresh_statics()
    observer = FlowObserver()
    attach(machine, observer)
    machine.call_bmethod(loaded.main_method(), None, [None])
    with forced_engine("reference"):
        run_sync(machine)
    assert observer.steps == machine.steps
    assert observer.followed > observer.steps // 2
    assert observer.branches > 0
