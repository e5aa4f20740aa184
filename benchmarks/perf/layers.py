"""The layer map: source path -> layer, and cProfile bucketing by it.

Layers are measured from outside the program: every function cProfile
saw is charged, by the file it lives in, to exactly one layer, so self
times and call counts reconcile with the whole by construction.  A file
under ``src/repro`` that maps to no layer raises — a new module must be
placed in the ledger before the benchmark will run with it.
"""

from __future__ import annotations

#: ledger order (also the README's layer table)
LAYERS = ("simnet.kernel", "simnet.devices", "simnet.fabric",
          "simnet.udpip", "core", "mpi.dispatch", "mpi.p2p", "mpi.hier",
          "mpi.policy", "analysis", "obs", "runtime", "other")

#: packages under ``repro/`` that are one layer each, under their name
_PACKAGES = ("core", "analysis", "obs", "runtime")

#: ``repro/simnet/<stem>.py``
_SIMNET = {
    "kernel": "simnet.kernel",
    "link": "simnet.devices", "switchdev": "simnet.devices",
    "nic": "simnet.devices", "medium": "simnet.devices",
    "resource": "simnet.devices", "frame": "simnet.devices",
    "stats": "simnet.devices", "units": "simnet.devices",
    "calibration": "simnet.devices", "trace": "simnet.devices",
    "__init__": "simnet.devices",
    "fabric": "simnet.fabric", "topology": "simnet.fabric",
    "udp": "simnet.udpip", "ip": "simnet.udpip",
    "ipstack": "simnet.udpip", "host": "simnet.udpip",
}

#: ``repro/mpi/<stem>.py`` and ``repro/mpi/collective/<stem>.py``
_MPI = {
    "communicator": "mpi.dispatch", "world": "mpi.dispatch",
    "datatypes": "mpi.dispatch", "ops": "mpi.dispatch",
    "status": "mpi.dispatch", "__init__": "mpi.dispatch",
    "collective/registry": "mpi.dispatch",
    "collective/tags": "mpi.dispatch",
    "collective/__init__": "mpi.dispatch",
    "p2p": "mpi.p2p", "collective/extras": "mpi.p2p",
    "collective/hier": "mpi.hier",
    "collective/policy": "mpi.policy",
}


class UnmappedFile(LookupError):
    """A ``src/repro`` file the layer map does not place."""


def layer_of(filename: str) -> str:
    """The layer a source file belongs to (``other`` outside repro)."""
    root = "/src/repro/"
    path = "/" + filename.replace("\\", "/")
    at = path.rfind(root)
    if at < 0 or not path.endswith(".py"):
        return "other"
    parts = path[at + len(root):-len(".py")].split("/")
    if len(parts) == 1:                      # repro/__init__.py
        return "runtime"
    package, stem = parts[0], "/".join(parts[1:])
    if package in _PACKAGES:
        return package
    layer = None
    if package == "simnet":
        layer = _SIMNET.get(stem)
    elif package == "mpi":
        layer = _MPI.get(stem)
        if layer is None and stem.startswith("collective/") \
                and stem.endswith("_p2p"):
            layer = "mpi.p2p"
    if layer is None:
        raise UnmappedFile(
            f"{filename} is under src/repro but in no layer of "
            f"benchmarks/perf/layers.py — add it to the map")
    return layer


def bucket(profiler) -> dict:
    """``{layer: {"self_s", "calls"}}`` from a ``cProfile.Profile``.

    ``calls`` counts every call event cProfile saw (Python functions,
    generator resumptions and C functions); built-ins and anything
    outside ``src/repro`` — NumPy, pickle, the benchmark's own frames —
    land in ``other``.
    """
    out = {layer: {"self_s": 0.0, "calls": 0} for layer in LAYERS}
    for entry in profiler.getstats():
        code = entry.code
        layer = ("other" if isinstance(code, str)
                 else layer_of(code.co_filename))
        out[layer]["self_s"] += entry.inlinetime
        out[layer]["calls"] += entry.callcount
    return out
