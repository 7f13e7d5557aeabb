"""Cold start, as counts: what a run imports, and that it needs nothing
outside the standard library.

Every case is one fresh interpreter (``helpers.run_python``), because what
is measured is ``sys.modules`` and the pytest process has numpy in it.  No
wall clock anywhere — ``setup_s`` / ``peak_rss_mb`` in perfbench are the
timed evidence, these are the part of it that repeats exactly:

* with numpy, scipy and networkx *unimportable*, ``repro distribute`` and
  ``Experiment.run()`` print what they print with the packages there;
* with them importable, a run still does not import them, nor the package
  halves nobody on that path asked for (the native rule sets of
  ``repro.codegen``, the oracle / world / corpus side of ``repro.testing``);
* the number of modules ``import repro.api`` plus one run loads is pinned.
"""

import json
import sys

import pytest

from helpers import run_python

from repro.workloads import WORKLOADS

THIRD_PARTY = ("numpy", "scipy", "networkx")
#: imported by a default run on top of what a bare interpreter holds, as
#: shipped (CPython 3.11: 96 of ``repro``, 81 of the standard library);
#: with numpy under the partitioner and eager package inits it was 266
MODULES_PER_RUN = 177

_DISTRIBUTE = """
from repro.cli import main
sys.exit(main(["distribute", sys.argv[1], "--size", "test", "--json"]))
"""

_EXPERIMENT = """
import json
from repro.api import Experiment
for name in ("crypt", "service_bank"):
    res = Experiment.from_options(name, size="test", method=sys.argv[1]).run()
    print(json.dumps(res.report.to_dict(), sort_keys=True))
    print(json.dumps([res.stdout, res.plan.parts, res.plan.edgecut]))
"""

_MODULES_AFTER_A_RUN = """
import json
bare = set(sys.modules)
import repro.api
from repro.api import Experiment
Experiment.from_options("crypt", size="test", backend=sys.argv[1]).run()
print(json.dumps(sorted(set(sys.modules) - bare)))
"""


def records(stdout, one_document):
    """The JSON records a script printed — one per line, or the one indented
    document the CLI prints — with stage timings, the one wall-clock field of
    a ``sim`` report, zeroed."""
    out = [json.loads(d) for d in ([stdout] if one_document else stdout.splitlines())]
    for record in out:
        if isinstance(record, dict):
            for stage in record["stages"]:
                stage["elapsed_s"] = 0.0
    return out


def same_with_and_without(script, arg, one_document=False):
    runs = []
    for blocked in (THIRD_PARTY, ()):
        done = run_python(script, arg, blocked=blocked)
        assert done.returncode == 0, done.stderr
        assert done.stderr == ""
        runs.append(records(done.stdout, one_document))
    assert runs[0] == runs[1]
    return runs[0]


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_distribute_needs_no_third_party_package(workload):
    (report,) = same_with_and_without(_DISTRIBUTE, workload, one_document=True)
    assert report["config"]["workload"]["name"] == workload
    assert report["speedup_pct"] is not None


@pytest.mark.parametrize("method", ("multilevel", "kl", "roundrobin", "random"))
def test_every_partitioner_but_spectral_needs_none_either(method):
    records = same_with_and_without(_EXPERIMENT, method)
    assert [r["partition"]["method"] for r in records[::2]] == [method] * 2


@pytest.mark.parametrize("backend", ("sim", "process"))
def test_a_run_imports_only_what_it_uses(backend):
    done = run_python(_MODULES_AFTER_A_RUN, backend)
    assert done.returncode == 0, done.stderr
    loaded = json.loads(done.stdout)
    unwanted = THIRD_PARTY + (
        "repro.codegen.x86", "repro.codegen.strongarm",
        "repro.testing.oracle", "repro.testing.genworld", "repro.testing.corpus",
    )
    assert not [m for m in loaded if m.startswith(unwanted)]
    # the zero-dependency claim itself: standard library and repro, nothing else
    allowed = sys.stdlib_module_names | {"repro", "__mp_main__"}
    assert not [m for m in loaded if m.split(".")[0] not in allowed]
    if backend == "sim":
        assert len(loaded) <= MODULES_PER_RUN * 1.05, len(loaded)


_WORKER_IMPORTS = """
import json
import os
from repro.api import Experiment
from repro.runtime import worker

def worker_main(*args):
    before = set(sys.modules)
    try:
        run_worker(*args)
    finally:
        fresh = sorted(m for m in set(sys.modules) - before
                       if m.split(".")[0] == "repro")
        os.write(1, (json.dumps(fresh) + "\\n").encode())

run_worker, worker._worker_main = worker._worker_main, worker_main
for backend in ("process", "tcp"):
    Experiment.from_options("service_bank", size="test", backend=backend,
                            force_distribution=True).run()
"""


def test_a_worker_imports_nothing_of_repro_its_parent_had_not():
    """Workers are forked after the parent imported what a node is built
    from, so none compiles a module of the request path from source (with
    ``PYTHONDONTWRITEBYTECODE`` set, each such module is compiled again in
    every worker, one worker after the other on one CPU)."""
    done = run_python(_WORKER_IMPORTS)
    assert done.returncode == 0, done.stderr
    per_worker = [json.loads(line) for line in done.stdout.splitlines()
                  if line.startswith("[")]
    assert len(per_worker) >= 4           # two nodes or more per backend
    assert per_worker == [[]] * len(per_worker), per_worker
