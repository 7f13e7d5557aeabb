"""Distributed runtime: pluggable backends and the message exchange.

Mirrors Section 5 of the paper.  Each node runs the paper's three
services: ``ExecutionStarter``, and ``MessageExchange``, which is the MPI
service as well (:mod:`repro.runtime.services`).  They run on one node
core (:mod:`repro.runtime.backend`) over one of four transports: the
discrete-event simulator (:mod:`repro.runtime.simnet`), one thread per node
(:mod:`repro.runtime.threads`), or one OS process per node over pipes
(:mod:`repro.runtime.proc`) or TCP sockets (:mod:`repro.runtime.tcp`) —
the last two on the one polled stream transport of
:mod:`repro.runtime.worker`.  Messages use the streamed format of
:mod:`repro.runtime.serial` and the ``NEW`` / ``DEPENDENCE`` kinds of
:mod:`repro.runtime.message`.

Submodules are imported lazily to keep ``repro.vm`` usable standalone.
"""

_EXPORTS = {
    "RuntimeBackend": "repro.runtime.backend",
    "Transport": "repro.runtime.backend",
    "backend_names": "repro.runtime.backend",
    "create_backend": "repro.runtime.backend",
    "ClusterSpec": "repro.runtime.cluster",
    "NodeSpec": "repro.runtime.cluster",
    "ethernet_100m": "repro.runtime.cluster",
    "DistributedExecutor": "repro.runtime.executor",
    "DistributedResult": "repro.runtime.executor",
    "run_distributed": "repro.runtime.executor",
    "Message": "repro.runtime.message",
    "MessageKind": "repro.runtime.message",
}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    target = _EXPORTS.get(name)
    if target is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(target), name)
