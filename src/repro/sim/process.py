"""Generator-backed simulation processes.

A :class:`Process` wraps a Python generator.  Each ``yield`` hands an
:class:`~repro.sim.events.Event` to the kernel; the process is resumed with
the event's value when it fires (or has the event's exception thrown into it
when the event failed).  Processes are themselves events that fire when the
generator returns, so processes can wait for each other.

PERF note: ``_resume`` is one of the two hottest frames of the kernel
(with ``Environment._drain``); it caches the generator's bound ``send``/
``throw`` methods at construction and appends its completion entry to the
environment's zero-delay FIFO lane directly, following the scheduling
invariants documented in ``sim/environment.py``.
"""

from __future__ import annotations

from types import GeneratorType
from typing import TYPE_CHECKING, Any, Generator, Optional

from .errors import Interrupt, SimulationError
from .events import Event, Initialize, NORMAL, PENDING, URGENT

if TYPE_CHECKING:  # pragma: no cover
    from .environment import Environment

ProcessGenerator = Generator[Event, Any, Any]


class Process(Event):
    """An active component of the simulation.

    Created through :meth:`Environment.process`.  The process event fires
    with the generator's return value when the generator finishes, or fails
    with the escaping exception.
    """

    __slots__ = ("_generator", "_send", "_throw", "_target", "name", "daemon")

    def __init__(self, env: "Environment", generator: ProcessGenerator,
                 name: Optional[str] = None, daemon: bool = False) -> None:
        if not isinstance(generator, GeneratorType):
            raise ValueError(f"{generator!r} is not a generator")
        super().__init__(env)
        self._generator = generator
        # Bound-method caches: saves two attribute lookups per resume.
        self._send = generator.send
        self._throw = generator.throw
        self.name = name or generator.__name__
        #: Daemon processes are service loops expected to outlive the run
        #: (exempt from sanitizer alive-process reports).
        self.daemon = daemon
        #: The event the process is currently waiting for (None if running
        #: right now or finished).
        self._target: Optional[Event] = None
        sanitizer = env.sanitizer
        if sanitizer is not None:
            sanitizer.track_process(self)
        Initialize(env, self)

    @property
    def target(self) -> Optional[Event]:
        return self._target

    @property
    def is_alive(self) -> bool:
        """True until the wrapped generator has terminated."""
        return self._value is PENDING

    def interrupt(self, cause: Any = None) -> None:
        """Throw an :class:`Interrupt` into the process.

        The process is unregistered from its current target event (the event
        stays pending and may fire later without consequence for this
        process) and resumed immediately with the interrupt exception.
        """
        if not self.is_alive:
            raise SimulationError(f"{self.name} has terminated and cannot be interrupted")
        if self is self.env.active_process:
            raise SimulationError("A process is not allowed to interrupt itself")

        interrupt_event = Event(self.env)
        interrupt_event._ok = False
        interrupt_event._value = Interrupt(cause)
        interrupt_event._defused = True
        interrupt_event.callbacks = [self]
        self.env.schedule(interrupt_event, priority=URGENT)

        # Deschedule from the old target so a later trigger does not resume
        # the process twice.
        if self._target is not None and self._target.callbacks is not None:
            if self in self._target.callbacks:
                self._target.callbacks.remove(self)
        self._target = None

    def _resume(self, event: Event) -> None:
        """Advance the generator with ``event``'s outcome."""
        env = self.env
        env._active_proc = self

        while True:
            try:
                if event._ok:
                    next_event = self._send(event._value)
                else:
                    # The event failed: throw its exception into the process.
                    event._defused = True
                    exc = event._value
                    if isinstance(exc, BaseException):
                        next_event = self._throw(exc)
                    else:  # pragma: no cover - defensive
                        next_event = self._throw(SimulationError(repr(exc)))
            except StopIteration as stop:
                # Process finished normally.
                self._target = None
                env._active_proc = None
                self._ok = True
                self._value = stop.value
                env._eid = eid = env._eid + 1
                env._fifo.append((env._now, NORMAL, eid, self))
                return
            except BaseException as exc:
                # Process died with an exception -> fail the process event.
                self._target = None
                env._active_proc = None
                self._ok = False
                self._value = exc
                env._eid = eid = env._eid + 1
                env._fifo.append((env._now, NORMAL, eid, self))
                return

            # PERF: duck-typed dispatch — every kernel event type exposes
            # ``callbacks``; yielding anything else raises AttributeError
            # (a zero-cost try on 3.11+), replacing an isinstance check on
            # the hot path.
            try:
                callbacks = next_event.callbacks
            except AttributeError:
                self._fail_nonevent(next_event)  # error path; resumes below
                return
            if callbacks is not None:
                # Event not yet processed: register and suspend.  The
                # process registers *itself* — see the class docstring /
                # ``__call__`` note below.
                callbacks.append(self)
                self._target = next_event
                break
            # Event already processed: loop around and continue
            # immediately with its stored outcome.
            event = next_event

        env._active_proc = None

    def _fail_nonevent(self, next_event: Any) -> None:
        """Shared error tail for a generator yielding a non-event."""
        env = self.env
        self._target = None
        env._active_proc = None
        error = SimulationError(
            f"Process {self.name!r} yielded non-event {next_event!r}"
        )
        try:
            self._throw(error)
        except BaseException:  # simlint: disable=swallowed-error -- the error is re-raised via the process event two lines down
            pass
        self._ok = False
        self._value = error
        env._eid = eid = env._eid + 1
        env._fifo.append((env._now, NORMAL, eid, self))

    #: Processes register themselves (not a bound method) as event
    #: callbacks: ``Environment._drain`` recognises the Process instance and
    #: inlines the resume fast path without a frame, while every generic
    #: dispatch site (``Environment.step``, ``Timer._pop_shot``, user
    #: code calling ``callback(event)``) still works because calling the
    #: process IS calling ``_resume``.
    __call__ = _resume

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<Process({self.name}) object at {id(self):#x}>"
