"""``partition.rng.Stream`` is ``numpy.random.default_rng``, draw for draw.

The reference here *is* numpy (2.4.6 when the stream was pinned): seeds up
to 128 bits and random interleavings of the two draws the partitioners make
are compared value for value, and ``part_graph`` is run once on the shipped
stream and once with a real ``Generator`` handed to the same kernels.  The
frozen vectors at the bottom need no numpy at all — they run in a
subprocess that has it blocked, which is also the proof that ``rng.py``
imports none.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import run_python
from test_kernel_oracle import program_graphs

from repro.partition import api, part_graph
from repro.partition.rng import Stream
from repro.workloads import WORKLOADS

HIGHS = st.one_of(
    st.sampled_from([1, 2, 3, 7, 1000, 1 << 30, (1 << 31) + 1, (1 << 32) - 1, 1 << 32]),
    st.integers(min_value=1, max_value=1 << 32),
)
DRAWS = st.lists(
    st.one_of(
        st.tuples(st.just("integers"), HIGHS),
        st.tuples(st.just("permutation"), st.integers(min_value=0, max_value=300)),
    ),
    min_size=1, max_size=60,
)


def draw(rng, op, arg):
    value = getattr(rng, op)(arg)
    return [int(x) for x in value] if op == "permutation" else int(value)


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(min_value=0, max_value=1 << 128), draws=DRAWS)
def test_stream_is_default_rng(seed, draws):
    ours, theirs = Stream(seed), np.random.default_rng(seed)
    for step, (op, arg) in enumerate(draws):
        assert draw(ours, op, arg) == draw(theirs, op, arg), (step, op, arg)


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(min_value=0, max_value=1 << 64), before=DRAWS, after=DRAWS)
def test_a_copy_draws_what_the_original_draws(seed, before, after):
    """``Stream.copy()`` carries the state and the buffered half of the last
    64-bit output, so each tolerance of a multi-tolerance partition draws
    what a call at that tolerance alone would."""
    ours = Stream(seed)
    for op, arg in before:
        draw(ours, op, arg)
    twin = ours.copy()
    for op, arg in after:
        assert draw(twin, op, arg) == draw(ours, op, arg), (op, arg)


def test_a_one_value_range_consumes_nothing():
    ours, theirs = Stream(5), np.random.default_rng(5)
    for _ in range(3):
        assert ours.integers(1) == theirs.integers(1) == 0
    assert ours.integers(1 << 30) == theirs.integers(1 << 30)


@pytest.mark.parametrize("bad", [0, -1, (1 << 32) + 1])
def test_only_the_pinned_surface_is_offered(bad):
    """Nothing outside 1 <= high <= 2**32 is approximated."""
    with pytest.raises(ValueError):
        Stream(0).integers(bad)
    with pytest.raises(ValueError):
        Stream(-1)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_parts_are_what_a_numpy_generator_yields(name, monkeypatch):
    """Same kernels, the two streams: every bundled workload's plan graph
    and ODG x the three methods that draw x three seeds."""
    graphs = program_graphs(WORKLOADS[name].source("test"))
    cases = [
        (graph, method, seed)
        for graph in graphs
        for method in ("multilevel", "kl", "random")
        for seed in (0, 1, 17)
    ]
    ours = [part_graph(g, 2, method=m, seed=s) for g, m, s in cases]
    monkeypatch.setattr(api, "Stream", np.random.default_rng)
    for (g, m, s), got in zip(cases, ours):
        want = part_graph(g, 2, method=m, seed=s)
        assert got.parts == want.parts, (m, s)
        assert got.imbalance == want.imbalance


#: (op, argument) pairs and what numpy 2.4.6 drew for them, per seed
SCRIPT = [
    ("integers", 2), ("integers", 1), ("integers", 1 << 30),
    ("integers", 1 << 32), ("integers", 1000), ("permutation", 10),
    ("integers", 7), ("integers", (1 << 32) - 1), ("permutation", 0),
    ("permutation", 1), ("integers", 3 * (1 << 30)), ("permutation", 5),
    ("integers", 49),
]
FROZEN = {
    0: [1, 0, 683932403, 2195314465, 269, [9, 2, 7, 4, 5, 1, 0, 3, 6, 8], 1,
        3504064332, [], [0], 2761892495, [0, 4, 2, 1, 3], 4],
    17: [1, 0, 907392149, 461025355, 160, [3, 6, 9, 4, 5, 7, 8, 1, 0, 2], 2,
         2594786686, [], [0], 503855310, [3, 1, 0, 2, 4], 20],
}

_REPLAY = """
import json
from repro.partition.rng import Stream
seed, script = json.loads(sys.argv[1])
rng = Stream(seed)
print(json.dumps([getattr(rng, op)(arg) for op, arg in script]))
"""


@pytest.mark.parametrize("seed", sorted(FROZEN))
def test_frozen_vectors_with_numpy_blocked(seed):
    done = run_python(_REPLAY, json.dumps([seed, SCRIPT]), blocked=["numpy"])
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == FROZEN[seed]
