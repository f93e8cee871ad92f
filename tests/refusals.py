"""Every reason a run is refused, and the backends it can be asked of.

One row per reason :func:`repro.runtime.result.check_run` owns: words
the refusal must contain, the backends the question can be put to (a
fleet member or an output template is a fleet's notion, ``at_time`` a
simulator's, a source that cannot seek only matters where the run reads
it in place), and the ask.  ``tests/test_driver_conformance.py`` puts
each row to ``local`` and ``simnet`` — through ``run_broadcast`` and to
the driver built directly — and ``tests/deploy/test_conformance.py`` to
``procs`` as well, as a one-shot (``"procs"`` below) and as a submit
into a running fleet (``"submit"``: ``procs`` with ``server=``): every
backend answers in the same words, before anything of the run starts.
"""

import io
import re
from typing import NamedTuple, Tuple

import pytest

from repro import run_broadcast
from repro.core import KascadeError, PatternSource, StreamSource
from repro.core.plan import ChainPlan
from repro.runtime import CrashPlan

SIZE = 64 * 1024
RECEIVERS = ["n2", "n3"]
ALL = ("local", "simnet", "procs", "submit")
IN_PROCESS = ("local", "simnet")
FLEETS = ("procs", "submit")


class Refusal(NamedTuple):
    says: str
    backends: Tuple[str, ...]
    ask: dict
    #: The head reads a pipe (it cannot seek) instead of a pattern.
    stream: bool = False


REFUSALS = {
    "head fault without the opt-in": Refusal(
        "opt in with allow_head_chaos=True", ALL,
        dict(crashes=[("n1", 0, "close")])),
    "head failover on a striped plan": Refusal(
        "requires a 1-stripe plan", ALL,
        dict(allow_head_chaos=True,
             plan=ChainPlan.from_orders("n1", [["n2", "n3"], ["n3", "n2"]]))),
    "head failover on the evloop plane": Refusal(
        "not survivable on data_plane='evloop'", ("local", "procs", "submit"),
        dict(allow_head_chaos=True, data_plane="evloop")),
    "head failover on a source that cannot seek": Refusal(
        "head failover needs a seekable source", IN_PROCESS,
        dict(allow_head_chaos=True), stream=True),
    "fault on an unknown node": Refusal(
        "crash plans for unknown nodes: ['n9']", ALL,
        dict(crashes=[("n9", 0, "close")])),
    "fault on a fleet member outside the session": Refusal(
        "fleet members outside this session: ['n4']", ("submit",),
        dict(crashes=[("n4", 0, "close")])),
    "two faults for one node": Refusal(
        "more than one crash plan for: ['n3']", ALL,
        dict(crashes=[("n3", 0, "close"), CrashPlan("n3", 5, "silent")])),
    "a time-triggered fault off the simulator": Refusal(
        "needs the simulator's clock (backend='simnet')",
        ("local", "procs", "submit"),
        dict(crashes=[CrashPlan("n3", at_time=0.0)])),
    "stripes on a source that cannot seek": Refusal(
        "stripes=2 needs a seekable source", IN_PROCESS,
        dict(stripes=2), stream=True),
    "the simulator on the evloop plane": Refusal(
        "simnet is a discrete-event simulator", ("simnet",),
        dict(data_plane="evloop")),
    "a late joiner outside the fleet": Refusal(
        "'n9' is not a fleet member", ("submit",),
        dict(late_join=[("n9", 0)])),
    "a late joiner named twice": Refusal(
        "more than one late join for: ['n4']", ALL,
        dict(late_join=[("n4", 0), ("n4", 2 * 1024)])),
    "a late joiner already in the session": Refusal(
        "late joiners must not be in the session already: ['n2']", ALL,
        dict(late_join=[("n2", 0)])),
    "a late joiner on a source that cannot seek": Refusal(
        "late join needs a seekable source", IN_PROCESS,
        dict(late_join=[("n4", 0)]), stream=True),
    # On a fleet the head's SIGKILL takes the join chain's head with it;
    # on threads it would not: one story is not told yet.
    "late join with allow_head_chaos": Refusal(
        "late join cannot be combined with allow_head_chaos", ALL,
        dict(allow_head_chaos=True, late_join=[("n4", 0)])),
    "late join on the evloop plane": Refusal(
        "late join is not supported on data_plane='evloop'", ("local",),
        dict(late_join=[("n4", 0)], data_plane="evloop")),
    "one output file for many receivers": Refusal(
        "output_template needs a {node} placeholder", FLEETS,
        dict(output_template="/tmp/same-file.out")),
}


def source_for(row: Refusal):
    if row.stream:
        return StreamSource(io.BytesIO(bytes(SIZE)))
    return PatternSource(SIZE)


def refusal(backend: str, row: Refusal, **how) -> str:
    """Ask ``backend`` through ``run_broadcast``; the refusal's words."""
    with pytest.raises(KascadeError, match=re.escape(row.says)) as refused:
        run_broadcast(source_for(row), RECEIVERS, backend=backend,
                      **row.ask, **how)
    return str(refused.value)


def driver_refusal(driver, row: Refusal, config) -> str:
    """Build ``driver`` (a ``Broadcast``) directly; the refusal's words."""
    ask = dict(row.ask)
    config = config.with_(**{key: ask.pop(key) for key in
                             ("stripes", "data_plane") if key in ask})
    with pytest.raises(KascadeError, match=re.escape(row.says)) as refused:
        driver(source_for(row), RECEIVERS, config=config, **ask)
    return str(refused.value)
