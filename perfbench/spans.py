"""Layer-boundary tracing for the benchmark's traced run.

The traced run installs wrappers around the public functions listed in
:data:`BOUNDARIES` (plus every process body handed to
``Environment.process``).  Each wrapper records a span — start, end,
parent, layer — into an in-memory :class:`SpanLog`; generator functions
get a wrapping generator that records one span per resume.  A call that
stays inside the layer of the innermost open span records no new span
(its time already belongs to that layer), so only layer crossings are
spans.  Counters are bumped at the same boundaries.

Nothing under ``src/`` changes: the wrappers are installed by patching
class attributes and module globals in the benchmark's worker process,
which exits after one pass.  The wrappers draw no random numbers and
schedule no events, so a traced pass must produce the same results as
an untraced one; ``run.py`` checks that through the cell digests.

Layer self time is a span's duration minus the time its child spans
cover, summed per layer (:meth:`SpanLog.layer_times`).
"""

from __future__ import annotations

import importlib
import inspect
import math
import sys
from array import array
from dataclasses import dataclass
from time import perf_counter
from types import GeneratorType
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Report group of each ``repro`` package.  Packages not listed here are
#: reported as ``unattributed`` when one of their process bodies runs.
GROUP_OF_PACKAGE: Dict[str, str] = {
    "sim": "sim",
    "sim.rng": "sim.rng",
    "net": "net",
    "grid": "grid",
    "jdl": "jdl",
    "core": "core",
    "multiprog": "multiprog",
    "streaming": "streaming",
    "interposition": "streaming",
    "baselines": "baselines",
    "workloads": "workloads",
    "obs": "obs",
    "runner": "runner",
    "scenario": "runner",
    "metrics": "render",
    "experiments": "render",
}

#: Packages ranked in ``REPRO_LAYERS`` that no boundary wraps, and why.
UNMEASURED: Dict[str, str] = {
    "codec": "config key encoding runs only to build cell-cache keys, "
             "and the benchmark runs with the cache off",
    "calibration": "frozen calibration constants; no per-op calls",
    "interposition": "the real-socket console agent and shadow; no "
                     "simulated workload calls them (the simulated path "
                     "is repro.streaming)",
    "cli": "the benchmark calls repro.runner.run_experiment directly, "
           "not the command line",
}

#: Report groups in output order (``unattributed`` is computed).
GROUPS: Tuple[str, ...] = (
    "sim", "sim.rng", "net", "grid", "jdl", "core", "multiprog",
    "streaming", "baselines", "workloads", "obs", "runner", "render",
    "unattributed")


def group_of_module(module: str) -> str:
    """Report group of a dotted module name (``unattributed`` if none)."""
    parts = module.split(".")
    if len(parts) < 2 or parts[0] != "repro":
        return "unattributed"
    if parts[1] == "sim" and len(parts) > 2 and parts[2] == "rng":
        return "sim.rng"
    return GROUP_OF_PACKAGE.get(parts[1], "unattributed")


class SpanLog:
    """Spans as parallel arrays, kept in memory until the pass ends."""

    def __init__(self) -> None:
        self.start = array("d")
        self.end = array("d")
        self.group = array("B")
        self.parent = array("q")
        #: Indexes of the spans open right now, innermost last.
        self.stack: List[int] = []
        self.counts: Dict[str, float] = {}
        #: Objects kept to read the layers' own counters at the end:
        #: submission reports, stream-buffer flush counts, sender stats.
        self.reports: List[Any] = []
        self.buffers: List[Any] = []
        self.senders: List[Any] = []
        self.group_ids: Dict[str, int] = {name: i
                                          for i, name in enumerate(GROUPS)}

    def gid(self, group: str) -> int:
        return self.group_ids[group]

    def bump(self, name: str, n: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def current_group(self) -> int:
        stack = self.stack
        return self.group[stack[-1]] if stack else -1

    # -- hot path ------------------------------------------------------
    def open(self, gid: int) -> int:
        """Open a span unless the innermost open span has layer ``gid``."""
        stack = self.stack
        if stack and self.group[stack[-1]] == gid:
            return -1
        idx = len(self.start)
        self.parent.append(stack[-1] if stack else -1)
        self.group.append(gid)
        self.end.append(0.0)
        stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def close(self, idx: int) -> None:
        if idx >= 0:
            self.end[idx] = perf_counter()
            self.stack.pop()

    # -- analysis --------------------------------------------------------
    def layer_times(self, wall: float) -> Dict[str, float]:
        """Self seconds per report group, with ``unattributed`` as the
        part of ``wall`` that no root span covers."""
        import numpy as np

        if self.stack:
            raise RuntimeError(f"{len(self.stack)} spans still open")
        start = np.frombuffer(self.start, dtype=np.float64)
        end = np.frombuffer(self.end, dtype=np.float64)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        group = np.frombuffer(self.group, dtype=np.uint8)
        duration = end - start
        if duration.size and duration.min() < 0:
            raise RuntimeError("a span ends before it starts")
        nested = parent >= 0
        covered = np.bincount(parent[nested], weights=duration[nested],
                              minlength=duration.size)
        own = duration - covered
        per_group = np.bincount(group, weights=own, minlength=len(GROUPS))
        out = {name: float(per_group[i]) for i, name in enumerate(GROUPS)}
        out["unattributed"] += wall - float(duration[~nested].sum())
        return out

    def write(self, path: str) -> None:
        """Write the spans as one ``.npz`` (start, end, group, parent)."""
        import numpy as np

        np.savez(path, start=np.frombuffer(self.start, dtype=np.float64),
                 end=np.frombuffer(self.end, dtype=np.float64),
                 group=np.frombuffer(self.group, dtype=np.uint8),
                 parent=np.frombuffer(self.parent, dtype=np.int64),
                 groups=np.array(GROUPS))


# ---------------------------------------------------------------------------
# Wrappers
# ---------------------------------------------------------------------------
def _traced_generator(log: SpanLog, gid: int, gen: GeneratorType,
                      on_error: Optional[Callable[..., None]] = None,
                      on_return: Optional[Callable[[Any], None]] = None):
    """Drive ``gen`` and record one span per resume.

    Behaves like ``yield from gen``: values, exceptions, ``close()`` and
    the return value pass through unchanged.
    """
    send = gen.send
    stack, group, open_ = log.stack, log.group, log.open
    value: Any = None
    error: Optional[BaseException] = None
    while True:
        idx = -1 if stack and group[stack[-1]] == gid else open_(gid)
        try:
            if error is None:
                yielded = send(value)
            else:
                yielded = gen.throw(error)
        except StopIteration as stop:
            log.close(idx)
            if on_return is not None:
                on_return(stop.value)
            return stop.value
        except BaseException as exc:
            log.close(idx)
            if on_error is not None:
                on_error(log, exc)
            raise
        log.close(idx)
        try:
            value = yield yielded
            error = None
        except GeneratorExit:
            idx = log.open(gid)
            try:
                gen.close()
            finally:
                log.close(idx)
            raise
        except BaseException as exc:  # thrown in by the kernel
            value, error = None, exc


_TRACED_CODE = _traced_generator.__code__


def _wrap_generator(log: SpanLog, gid: int, gen: GeneratorType,
                    on_error=None, on_return=None) -> GeneratorType:
    wrapped = _traced_generator(log, gid, gen, on_error, on_return)
    # Process names default to the generator's name; keep it.
    wrapped.__name__ = gen.__name__
    wrapped.__qualname__ = gen.__qualname__
    return wrapped


@dataclass(frozen=True)
class Boundary:
    """One wrapped public function: ``module:Qualified.name``.

    ``count`` names a counter bumped on every call (only on calls from
    another layer when ``external``).  ``before``/``after`` hooks see
    ``(log, args, kwargs)`` and ``(log, args, kwargs, result)``; for a
    generator the result is its return value.  ``on_error`` runs when
    the call (or a generator resume) raises.  ``callback_arg`` names an
    argument ``(position, keyword)`` holding a callable the layer hands
    in (an RPC handler, a timer callback); it is wrapped so its calls
    are spans of the layer that defined it.
    """

    target: str
    count: Optional[str] = None
    external: bool = False
    before: Optional[Callable[..., None]] = None
    after: Optional[Callable[..., None]] = None
    on_error: Optional[Callable[[SpanLog, BaseException], None]] = None
    callback_arg: Optional[Tuple[int, str]] = None

    @property
    def module(self) -> str:
        return self.target.split(":")[0]

    @property
    def group(self) -> str:
        return group_of_module(self.module)


def _make_wrapper(log: SpanLog, b: Boundary, fn: Callable) -> Callable:
    gid = log.gid(b.group)
    count, external, before, after = b.count, b.external, b.before, b.after
    on_error = b.on_error
    is_genfunc = inspect.isgeneratorfunction(fn)
    stack, group, counts = log.stack, log.group, log.counts
    open_, close = log.open, log.close
    callback_arg = b.callback_arg

    def wrapper(*args: Any, **kwargs: Any) -> Any:
        if callback_arg is not None:
            args, kwargs = _wrap_callback_arg(log, callback_arg, args, kwargs)
        inside = bool(stack) and group[stack[-1]] == gid
        if count is not None and not (external and inside):
            counts[count] = counts.get(count, 0) + 1
        if before is not None:
            before(log, args, kwargs)
        if is_genfunc:
            on_return = None if after is None \
                else (lambda result: after(log, args, kwargs, result))
            return _wrap_generator(log, gid, fn(*args, **kwargs), on_error,
                                   on_return)
        if inside and on_error is None:
            result = fn(*args, **kwargs)  # same layer: no new span
        else:
            idx = -1 if inside else open_(gid)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                close(idx)
                if on_error is not None:
                    on_error(log, exc)
                raise
            close(idx)
        if after is not None:
            after(log, args, kwargs, result)
        if type(result) is GeneratorType:
            return _wrap_generator(log, gid, result, on_error)
        return result

    wrapper.__name__ = getattr(fn, "__name__", "wrapper")
    wrapper.__qualname__ = getattr(fn, "__qualname__", "wrapper")
    wrapper.__doc__ = getattr(fn, "__doc__", None)
    wrapper.__wrapped__ = fn
    return wrapper


def _wrap_callable(log: SpanLog, fn: Callable) -> Callable:
    """Wrap a callable handed to another layer, by its defining module."""
    inner = getattr(fn, "__func__", fn)
    inner = getattr(inner, "func", inner)  # functools.partial
    module = getattr(inner, "__module__", None) or ""
    gid = log.gid(group_of_module(module))
    stack, group, open_, close = log.stack, log.group, log.open, log.close

    def callback(*args: Any, **kwargs: Any) -> Any:
        idx = -1 if stack and group[stack[-1]] == gid else open_(gid)
        try:
            result = fn(*args, **kwargs)
        finally:
            close(idx)
        if type(result) is GeneratorType:
            return _wrap_generator(log, gid, result)
        return result

    return callback


def _wrap_callback_arg(log: SpanLog, where: Tuple[int, str], args: tuple,
                       kwargs: dict) -> Tuple[tuple, dict]:
    position, keyword = where
    if keyword in kwargs:
        if kwargs[keyword] is not None:
            kwargs = dict(kwargs)
            kwargs[keyword] = _wrap_callable(log, kwargs[keyword])
    elif len(args) > position and args[position] is not None:
        args = (args[:position] + (_wrap_callable(log, args[position]),)
                + args[position + 1:])
    return args, kwargs


def _resolve(target: str) -> Tuple[Any, str, Any]:
    """``(owner, attribute, raw value)`` for ``module:Qual.name``.

    Raises ``LookupError`` when the name no longer resolves, so a rename
    in the program fails the traced run instead of silently zeroing a
    layer.
    """
    module_name, _, qualname = target.partition(":")
    try:
        owner: Any = importlib.import_module(module_name)
    except ImportError as exc:
        raise LookupError(f"boundary {target}: {exc}") from None
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            raise LookupError(f"boundary {target}: no {part!r}")
    raw = owner.__dict__.get(attr) if isinstance(owner, type) \
        else getattr(owner, attr, None)
    if raw is None:
        raise LookupError(f"boundary {target}: {attr!r} does not resolve "
                          f"(renamed or moved?)")
    return owner, attr, raw


def _patch(log: SpanLog, b: Boundary) -> None:
    owner, attr, raw = _resolve(b.target)
    if isinstance(owner, type):
        if isinstance(raw, classmethod):
            setattr(owner, attr, classmethod(
                _make_wrapper(log, b, raw.__func__)))
        elif isinstance(raw, staticmethod):
            setattr(owner, attr, staticmethod(
                _make_wrapper(log, b, raw.__func__)))
        elif callable(raw):
            setattr(owner, attr, _make_wrapper(log, b, raw))
        else:
            raise LookupError(f"boundary {b.target} is not a function")
        return
    if not callable(raw):
        raise LookupError(f"boundary {b.target} is not a function")
    wrapper = _make_wrapper(log, b, raw)
    # Module-level functions are imported by name elsewhere: rebind
    # every reference in the loaded repro modules.
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro"
                                  or name.startswith("repro.")):
            continue
        namespace = vars(module)
        for key, value in list(namespace.items()):
            if value is raw:
                namespace[key] = wrapper


# ---------------------------------------------------------------------------
# Counter hooks
# ---------------------------------------------------------------------------
def _new_stream(log: SpanLog, args: tuple, kwargs: dict) -> None:
    # RandomStreams keeps its streams in ``_streams``; a rename fails the
    # traced run with an AttributeError rather than zeroing the count.
    streams, name = args[0], kwargs.get("name", args[1] if len(args) > 1
                                        else None)
    if name not in streams._streams:
        log.bump("sim.rng.streams")


def _send_bytes(log: SpanLog, args: tuple, kwargs: dict) -> None:
    nbytes = kwargs.get("nbytes", args[2] if len(args) > 2 else 0)
    log.bump("net.bytes", nbytes)


def _send_failed(log: SpanLog, exc: BaseException) -> None:
    if isinstance(exc, Exception):
        log.bump("net.send_failures")


def _candidates(log: SpanLog, args: tuple, kwargs: dict,
                outcome: Any) -> None:
    log.bump("core.candidates", len(outcome.candidates))


def _keep_report(log: SpanLog, args: tuple, kwargs: dict,
                 submitted: Any) -> None:
    log.reports.append(submitted.report)


def _keep_flush_counts(log: SpanLog, args: tuple, kwargs: dict,
                       result: Any) -> None:
    log.buffers.append(args[0].flush_counts)


def _keep_sender_stats(log: SpanLog, args: tuple, kwargs: dict,
                       result: Any) -> None:
    log.senders.append(args[0].stats)


def _cells(log: SpanLog, args: tuple, kwargs: dict, result: Any) -> None:
    log.bump("runner.cells", result.data["runner"].cells_total)


#: Every wrapped public function.  Targets are ``module:Qual.name``;
#: the layer is the target's package (see :func:`group_of_module`).
BOUNDARIES: Tuple[Boundary, ...] = (
    # sim: the run loop (span + event count) and process bodies are
    # handled by install(); here is the kernel API the layers call.
    # (``env.timeout``/``env.event`` are per-instance partials of the
    # event classes and stay unwrapped.)
    *(Boundary(f"repro.sim.events:Event.{name}")
      for name in ("succeed", "fail", "trigger")),
    *(Boundary(f"repro.sim.timers:Timer.{name}") for name in ("arm", "cancel")),
    *(Boundary(f"repro.sim.store:{name}")
      for name in ("Store.put", "Store.get", "FilterStore.get")),
    *(Boundary(f"repro.sim.resources:{name}")
      for name in ("Resource.request", "Resource.release",
                   "PriorityResource.request")),
    Boundary("repro.sim.environment:Environment.timer",
             callback_arg=(1, "callback")),
    *(Boundary(f"repro.sim.environment:Environment.{name}")
      for name in ("all_of", "any_of")),
    # sim.rng: the named random streams.
    *(Boundary(f"repro.sim.rng:RandomStreams.{name}", count="sim.rng.calls")
      for name in ("jitter", "exponential", "uniform", "choice",
                   "shuffled", "spawn")),
    Boundary("repro.sim.rng:RandomStreams.stream", count="sim.rng.calls",
             external=True, before=_new_stream),
    # net
    Boundary("repro.net.sockets:ConnectionEnd.send", count="net.sends",
             before=_send_bytes, on_error=_send_failed),
    Boundary("repro.net.relay:VirtualConnection.send", count="net.sends",
             before=_send_bytes, on_error=_send_failed),
    Boundary("repro.net.sockets:ConnectionEnd.recv"),
    Boundary("repro.net.sockets:ConnectionEnd.recv_datagram"),
    Boundary("repro.net.sockets:Listener.accept"),
    Boundary("repro.net.sockets:connect"),
    Boundary("repro.net.rpc:RpcServer.register", callback_arg=(2, "handler")),
    Boundary("repro.net.rpc:RpcClient.connect"),
    Boundary("repro.net.rpc:RpcClient.call"),
    Boundary("repro.net.rpc:RpcClient.close"),
    Boundary("repro.net.gsi:handshake"),
    *(Boundary(f"repro.net.topology:Network.{name}",
               count="net.path_queries")
      for name in ("route", "path_up", "transfer_time")),
    *(Boundary(f"repro.net.topology:Link.{name}", count="net.link_changes")
      for name in ("add_outage", "fail", "recover")),
    # grid
    Boundary("repro.grid.gram:GramClient.submit", count="grid.gram_submits"),
    *(Boundary(f"repro.grid.gram:GramClient.{name}")
      for name in ("connect", "status", "cancel", "close")),
    Boundary("repro.grid.batchsystem:LocalBatchSystem.submit",
             count="grid.lrms_submits"),
    Boundary("repro.grid.batchsystem:LocalBatchSystem.cancel"),
    Boundary("repro.grid.mds:query_index", count="grid.mds_queries"),
    Boundary("repro.grid.site:Site.advert", count="grid.adverts"),
    Boundary("repro.grid.testbed:Testbed.publish_all_now"),
    Boundary("repro.grid.workernode:WorkerNode.execute"),
    *(Boundary(f"repro.grid.workernode:MachineContext.{name}")
      for name in ("cpu", "io", "sleep")),
    Boundary("repro.grid.cpu:WorkerCpu.run"),
    Boundary("repro.grid.staging:stage_input"),
    Boundary("repro.grid.staging:retrieve_output"),
    # jdl
    Boundary("repro.jdl.job:JobDescription.from_attributes",
             count="jdl.jobs_built"),
    Boundary("repro.jdl.job:JobDescription.from_jdl",
             count="jdl.jobs_built"),
    Boundary("repro.jdl.job:JobDescription.clone"),
    Boundary("repro.jdl.expr:matches", count="jdl.evals"),
    Boundary("repro.jdl.expr:rank_value", count="jdl.evals"),
    # core
    Boundary("repro.core.base:BrokerBase.submit", count="core.submits",
             after=_keep_report),
    Boundary("repro.core.base:BrokerBase.cancel"),
    Boundary("repro.core.base:BrokerBase.drain"),
    Boundary("repro.core.pull:PullBroker.drain"),
    Boundary("repro.core.selection:ResourceSelector.discover"),
    Boundary("repro.core.selection:ResourceSelector.refresh_site"),
    Boundary("repro.core.selection:ResourceSelector.select",
             count="core.selections", after=_candidates),
    Boundary("repro.core.matchmaker:Matchmaker.filter_candidates"),
    Boundary("repro.core.matchmaker:Matchmaker.order"),
    Boundary("repro.core.leases:LeaseTable.acquire", count="core.leases"),
    Boundary("repro.core.leases:LeaseTable.release"),
    Boundary("repro.core.fairshare:FairShareAccounting.admit"),
    Boundary("repro.core.fairshare:FairShareAccounting.step"),
    Boundary("repro.core.replicas:ReplicaCatalog.nearest"),
    Boundary("repro.core.steering:SteeringAdapter.inject"),
    # multiprog
    Boundary("repro.multiprog.agent:AgentRuntime.run_job",
             count="multiprog.vm_dispatches"),
    Boundary("repro.multiprog.agent:AgentRuntime.behavior"),
    Boundary("repro.multiprog.registry:AgentRegistry.register"),
    Boundary("repro.multiprog.registry:AgentRegistry.free_interactive"),
    Boundary("repro.multiprog.registry:AgentRegistry.free_batch"),
    # streaming
    Boundary("repro.streaming.buffers:StreamBuffer.__init__",
             after=_keep_flush_counts),
    Boundary("repro.streaming.buffers:StreamBuffer.write",
             count="streaming.buffer_writes"),
    Boundary("repro.streaming.buffers:StreamBuffer.flush"),
    Boundary("repro.streaming.sender:ChunkSender.__init__",
             after=_keep_sender_stats),
    Boundary("repro.streaming.sender:ChunkSender.attach"),
    *(Boundary(f"repro.streaming.spool:DiskSpool.{name}",
               count="streaming.spool_ops")
      for name in ("write", "read_head", "commit_head")),
    *(Boundary(f"repro.streaming.agent:JobStdio.{name}")
      for name in ("write", "read", "eof")),
    *(Boundary(f"repro.streaming.agent:ConsoleAgent.{name}")
      for name in ("start", "send_eof")),
    *(Boundary(f"repro.streaming.session:InteractiveSession.{name}")
      for name in ("make_setup", "type_line", "read_line",
                   "wait_first_output", "kill_job")),
    *(Boundary(f"repro.streaming.shadow:ConsoleShadow.{name}")
      for name in ("type_line", "kill_job")),
    # baselines
    *(Boundary(f"repro.baselines.{module}.{name}")
      for module, names in (
          ("base:Mechanism", ("one_way", "roundtrip")),
          ("ssh:SshMechanism", ("establish", "one_way")),
          ("glogin:GloginMechanism", ("establish", "one_way")),
          ("interposition:InterpositionMechanism",
           ("establish", "roundtrip", "close")))
      for name in names),
    # workloads
    Boundary("repro.workloads.pingpong:run_sequences"),
    Boundary("repro.workloads.apps:cpu_bound_app"),
    Boundary("repro.workloads.apps:immediate_output_app"),
    # obs
    Boundary("repro.obs.control:SimController.drain",
             count="obs.control_drains"),
    Boundary("repro.obs.control:SimController.apply",
             count="obs.steer_fired"),
    Boundary("repro.obs.telemetry:Counter.inc",
             count="obs.telemetry_samples"),
    *(Boundary(f"repro.obs.telemetry:Gauge.{name}",
               count="obs.telemetry_samples")
      for name in ("set", "inc", "dec")),
    Boundary("repro.obs.telemetry:Histogram.observe",
             count="obs.telemetry_samples"),
    *(Boundary(f"repro.obs.telemetry:Telemetry.{name}")
      for name in ("counter", "gauge", "histogram", "snapshot")),
    Boundary("repro.obs.telemetry:merge_snapshots"),
    # runner and scenario
    Boundary("repro.runner.engine:run_experiment", after=_cells),
    Boundary("repro.scenario:Scenario.build", count="scenario.builds"),
    Boundary("repro.scenario:ScenarioHandle.submit"),
    # render: the experiments' merge/render and the metrics helpers
    Boundary("repro.experiments.common:ExperimentResult.render"),
    Boundary("repro.metrics.tables:AsciiTable.render"),
)


def coverage_problems() -> List[str]:
    """Layers of ``REPRO_LAYERS`` (plus obs) with no boundary and no
    stated reason, and boundaries whose layer has no report group."""
    from repro.analysis.flows.layers import REPRO_LAYERS

    wrapped = {b.module.split(".")[1] for b in BOUNDARIES}
    problems = []
    for package in sorted(set(REPRO_LAYERS.ranks) | {"obs"}):
        if package not in wrapped and package not in UNMEASURED:
            problems.append(f"layer {package!r} has no wrapped public "
                            f"function and no reason to be unmeasured")
        if package in wrapped and package in UNMEASURED:
            problems.append(f"layer {package!r} is both wrapped and "
                            f"listed as unmeasured")
    for b in BOUNDARIES:
        if b.group == "unattributed":
            problems.append(f"boundary {b.target} has no report group")
    return problems


def check_boundaries() -> None:
    """The boundary-table self-test, without patching anything.

    Raises ``LookupError`` if a boundary no longer resolves and
    ``RuntimeError`` if the table leaves a layer uncovered.
    """
    problems = coverage_problems()
    if problems:
        raise RuntimeError("boundary table: " + "; ".join(problems))
    for b in BOUNDARIES:
        _resolve(b.target)


def install() -> SpanLog:
    """Patch every boundary; returns the log the wrappers write to."""
    check_boundaries()
    from repro.sim.environment import Environment

    log = SpanLog()
    for b in BOUNDARIES:
        _patch(log, b)

    sim = log.gid("sim")
    original_run = Environment.run
    original_process = Environment.process
    gid_of_code: Dict[Any, int] = {}

    def run(self: Environment, until: Any = None) -> Any:
        first = self._eid
        idx = log.open(sim)
        try:
            return original_run(self, until)
        finally:
            log.close(idx)
            log.bump("sim.events", self._eid - first)

    def process(self: Environment, generator: Any, name: Any = None,
                daemon: Any = None) -> Any:
        code = generator.gi_code
        if code is not _TRACED_CODE:
            gid = gid_of_code.get(code)
            if gid is None:
                module = generator.gi_frame.f_globals.get("__name__", "")
                gid = gid_of_code[code] = log.gid(group_of_module(module))
            generator = _wrap_generator(log, gid, generator)
        return original_process(self, generator, name=name, daemon=daemon)

    Environment.run = run  # type: ignore[method-assign]
    Environment.process = process  # type: ignore[method-assign]
    return log


def layer_metrics(log: SpanLog, wall: float) -> Dict[str, float]:
    """The per-layer metrics of one traced pass (units and meanings are
    in ``metrics.json``; ``run.py`` adds ``trace.overhead_pct``)."""
    times = log.layer_times(wall)
    c = log.counts.get
    out: Dict[str, float] = {}
    for group in GROUPS:
        out[f"{group}.self_s"] = times[group]
    events = c("sim.events", 0)
    out["sim.events"] = events
    out["sim.host_us_per_event"] = (1e6 * times["sim"] / events
                                    if events else 0.0)
    for name in ("sim.rng.calls", "sim.rng.streams", "net.sends",
                 "net.bytes", "net.path_queries", "net.link_changes",
                 "net.send_failures", "grid.gram_submits",
                 "grid.lrms_submits", "grid.mds_queries", "grid.adverts",
                 "jdl.jobs_built", "jdl.evals", "core.submits",
                 "core.selections", "core.candidates", "core.leases",
                 "multiprog.vm_dispatches", "streaming.buffer_writes",
                 "streaming.spool_ops", "obs.control_drains",
                 "obs.steer_fired", "obs.telemetry_samples", "runner.cells",
                 "scenario.builds"):
        out[name] = c(name, 0)
    reports = log.reports
    placed = sum(1 for r in reports if r.started_at is not None)
    out["core.resubmissions"] = sum(r.resubmissions for r in reports)
    out["core.placed_ratio"] = placed / len(reports) if reports else 0.0
    out["core.match_sim_s"] = (
        math.fsum(r.discovery_time + r.selection_time for r in reports)
        / len(reports) if reports else 0.0)
    out["streaming.flushes"] = sum(sum(counts.values())
                                   for counts in log.buffers)
    out["streaming.retries"] = sum(stats.retries for stats in log.senders)
    return out
