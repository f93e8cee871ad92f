"""The node program, compiled once: what the launcher hands every agent.

The paper's Kascade "copies itself + the node list to all targets … then
starts itself everywhere" (§III-B).  Here the supervisor compiles the
modules an agent runs — once per fleet — and every agent it spawns reads
them from its stdin instead of finding the checkout on ``PYTHONPATH``
and compiling it again: N interpreters on a few cores stop doing the
same work N times.

Two halves, which only have to agree on the format:

* :func:`build` — ``MAGIC_NUMBER`` + a marshalled ``{module name:
  (is_package, origin, code object)}``.  Each code object comes from the
  module's own loader, so a byte-code cache that is present is read, not
  recompiled; nothing is imported that the supervisor would not import
  anyway (``find_spec`` touches the parent packages only).
* :data:`BOOT` — the ``python -c`` text at the other end: read the
  program from fd 0, serve those names from one ``sys.meta_path``
  finder, run ``argv[1]`` as ``-m`` would.  Modules keep their real
  ``__file__``/``co_filename`` (tracebacks and ``linecache`` show
  source) and packages their real search path, so what is *not* in the
  program — ``core.pacing``, ``core.stripes``, ``runtime.evloop``,
  anything lazy — still imports from disk.  A program written by another
  Python (``python=`` names one with a different magic number) installs
  nothing, and the agent imports from ``PYTHONPATH`` as one typed by
  hand does: that ``if`` is the only second path.

The program is trusted exactly as ``argv`` and the environment are: it
arrives on a descriptor chosen by whoever chose those.
"""

from __future__ import annotations

import marshal
from importlib.util import MAGIC_NUMBER, find_spec
from typing import Tuple

#: What ``kascade agent`` has loaded when it dials out — everything a
#: session on it can use.  ``tests/test_import_budget.py`` holds this
#: list equal to what a fresh agent imports, so it cannot rot in silence
#: (a module missing here still loads, from disk: slower, not broken).
AGENT_MODULES = (
    "repro", "repro._lazy",
    "repro.cli", "repro.cli.kascade",
    "repro.core", "repro.core.buffers", "repro.core.chunkstore",
    "repro.core.config", "repro.core.engine", "repro.core.errors",
    "repro.core.framing", "repro.core.messages", "repro.core.node_state",
    "repro.core.perfstats", "repro.core.pipeline", "repro.core.plan",
    "repro.core.recovery", "repro.core.report", "repro.core.sinks",
    "repro.core.sources", "repro.core.stages", "repro.core.tracing",
    "repro.core.units",
    "repro.deploy", "repro.deploy.agent", "repro.deploy.protocol",
    "repro.runtime", "repro.runtime.host", "repro.runtime.links",
    "repro.runtime.node", "repro.runtime.registry", "repro.runtime.result",
    "repro.runtime.transport",
)
#: What an agent that was given a cache (``--cache-bytes`` > 0) adds.
CACHE_MODULES = ("repro.core.cache", "repro.daemon", "repro.daemon.pull")


def module_names(cached: bool) -> Tuple[str, ...]:
    """The modules of the program for an agent with or without a cache."""
    return AGENT_MODULES + (CACHE_MODULES if cached else ())


def build(cached: bool) -> bytes:
    """Compile the agent's modules into one program (see module docs)."""
    table = {}
    for name in module_names(cached):
        spec = find_spec(name)
        table[name] = (spec.submodule_search_locations is not None,
                       spec.origin, spec.loader.get_code(name))
    return MAGIC_NUMBER + marshal.dumps(table)


#: ``python -c BOOT repro.cli.kascade agent …`` with a program on fd 0.
#: Kept short: it is what ``ps`` shows in front of the agent's own argv.
#: The class is its own finder and loader, called unbound.
BOOT = """\
import sys,os,marshal,runpy,importlib.util as u
b=sys.stdin.buffer.read();n=len(u.MAGIC_NUMBER)
P=marshal.loads(b[n:])if b[:n]==u.MAGIC_NUMBER else{}
class L:
 def find_spec(name,path=None,target=None):
  if name in P:
   pkg,origin,_=P[name]
   return u.spec_from_file_location(name,origin,loader=L,
    submodule_search_locations=[os.path.dirname(origin)]if pkg else None)
 def create_module(spec):pass
 def exec_module(module):exec(P[module.__name__][2],module.__dict__)
 def get_code(name):return P[name][2]
if P:sys.meta_path.insert(0,L)
del sys.argv[0],b
runpy.run_module(sys.argv[0],run_name="__main__",alter_sys=True)
"""
