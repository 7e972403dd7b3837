"""simlint determinism sanitizer (``SL1xx``): the source must not read
ambient nondeterminism.

The reproduction's contract is "same seed => byte-identical trace"
(docs/SIM.md).  The determinism gate checks it by running every flow under
pinned, distinct hash seeds and comparing bytes, so a hash-ordered
iteration anywhere a flow goes shows up as a diff.  These rules are the
part a rerun cannot see: a value that is equal in every run on one host —
an unset environment variable, a hostname — or code no flow reaches.  Each
is a table of names, matched through import aliases.

Rules:

* ``SL101`` — wall-clock read (``time.time``/``monotonic``/``perf_counter``
  family, ``datetime.now``/``utcnow``/``today``).  Simulated code must take
  time from ``kernel.now_s`` / a :class:`~repro.sim.clock.Timeline`.
* ``SL102`` — process-global or unseeded randomness (module-level
  ``random.*``, ``numpy.random.*`` legacy API, ``random.Random()`` /
  ``numpy.random.default_rng()`` with no seed).  Use the kernel's seeded
  ``random.Random(seed)``.
* ``SL103`` — ambient environment read (``os.environ``/``getenv``,
  ``os.urandom``, ``uuid.uuid1/uuid4``, ``secrets``, hostname/pid probes).
"""

from __future__ import annotations

import ast

from ..diagnostic import Severity
from ..registry import rule
from ._pysource import ImportMap

__all__ = ["run"]

SL000 = rule(
    "SL000",
    "source",
    Severity.ERROR,
    "source file cannot be read or parsed",
    "fix the syntax error / path so the file parses",
)
SL101 = rule(
    "SL101",
    "source",
    Severity.ERROR,
    "wall-clock read in simulation source",
    "take time from kernel.now_s / a Timeline (docs/SIM.md); wall-clock "
    "reads make same-seed runs diverge",
)
SL102 = rule(
    "SL102",
    "source",
    Severity.ERROR,
    "unseeded or process-global randomness",
    "construct random.Random(seed) (the kernel owns one) instead of the "
    "module-level random API; seed every default_rng()",
)
SL103 = rule(
    "SL103",
    "source",
    Severity.ERROR,
    "ambient environment read in simulation source",
    "thread configuration through explicit parameters; os.environ/urandom/"
    "uuid4 reads differ across hosts and runs",
)
#: Wall-clock entry points (SL101).
_WALL_CLOCK = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "time.process_time",
        "time.process_time_ns",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
    }
)

#: Module-level random API (SL102) — everything that touches the hidden
#: process-global Mersenne state.
_GLOBAL_RANDOM = frozenset(
    {
        "random." + name
        for name in (
            "seed", "random", "randint", "randrange", "choice", "choices",
            "shuffle", "sample", "uniform", "gauss", "normalvariate",
            "getrandbits", "betavariate", "triangular", "expovariate",
            "vonmisesvariate", "paretovariate", "weibullvariate",
        )
    }
    | {
        "numpy.random." + name
        for name in (
            "rand", "randn", "randint", "random", "random_sample", "choice",
            "shuffle", "permutation", "seed", "normal", "uniform",
        )
    }
    | {"random.SystemRandom"}
)

#: RNG constructors that are fine *with* a seed argument (SL102).
_SEEDABLE_CTORS = frozenset({"random.Random", "numpy.random.default_rng"})

#: Ambient environment probes (SL103).  ``os.environ`` is matched as an
#: attribute access, not just a call.
_ENV_CALLS = frozenset(
    {
        "os.getenv",
        "os.urandom",
        "os.getpid",
        "os.getlogin",
        "uuid.uuid1",
        "uuid.uuid4",
        "socket.gethostname",
        "platform.node",
        "secrets.token_bytes",
        "secrets.token_hex",
        "secrets.token_urlsafe",
        "secrets.randbelow",
        "secrets.choice",
    }
)
_ENV_ATTRS = frozenset({"os.environ"})


def run(tree: ast.Module, path: str, emit) -> None:
    """Run the SL1xx rules over one parsed source file."""
    imports = ImportMap(tree)

    for node in ast.walk(tree):
        where = f"{path}:{getattr(node, 'lineno', 0)}"
        if isinstance(node, ast.Call):
            name = imports.resolve(node.func)
            if name is None:
                continue
            if name in _WALL_CLOCK:
                emit("SL101", f"call to {name}()", location=where)
            elif name in _GLOBAL_RANDOM:
                emit("SL102", f"call to module-level {name}()", location=where)
            elif name in _SEEDABLE_CTORS and not node.args and not node.keywords:
                emit(
                    "SL102",
                    f"{name}() constructed without a seed",
                    location=where,
                )
            elif name in _ENV_CALLS:
                emit("SL103", f"call to {name}()", location=where)
        elif isinstance(node, (ast.Attribute, ast.Name)):
            # a Name too: ``from os import environ`` reads it bare
            name = imports.resolve(node)
            if name in _ENV_ATTRS:
                emit("SL103", f"read of {name}", location=where)
