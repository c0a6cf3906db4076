"""Differential kernel property test: every way of running a program
processes its events in the same order.

Small kernel programs are generated from a fixed vocabulary of
operations — same-time ties, zero-delay succeed chains, URGENT
interrupts landing mid-burst, ``AnyOf``/``AllOf`` fan-in, ``Timer``
cancel and re-arm, store ping-pong, failing processes that are caught
or defused, re-yields of already processed events, and events with
several waiting processes.  Each program
is run five ways in this process:

* ``run()``;
* ``step()`` until :class:`~repro.sim.errors.EmptySchedule`;
* ``run()`` with an idle :class:`~repro.obs.control.SimController`;
* ``run()`` with ``profile=True``;
* ``run()`` with both hooks;

and the ``(now, tag)`` traces must be identical, with a
sanitizer-clean exit.  When the compiled lane is built, a fixed set of
generated programs is also replayed on it in a fresh interpreter.

Programs are plain nested lists, drawn through a ``draw(lo, hi)``
callback, so hypothesis and a seeded stream build them the same way.
"""

from __future__ import annotations

from typing import Any, Callable, List, Tuple

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import SimController
from repro.sim import EmptySchedule, Environment, Interrupt, RandomStreams, \
    Store

from .test_kernel_determinism import _run_in_lane, needs_compiled

#: The only delays programs use: a small set, so same-time ties abound.
DELAYS = (0.0, 0.5, 1.0)

#: Operation kinds; ``spawn`` is last so leaf bodies can exclude it.
KINDS = ("wait", "chain", "anyof", "allof", "timer", "fail", "interrupt",
         "pingpong", "reyield", "broadcast", "spawn")

MODES = ("run", "step", "control", "profile", "both")

#: Programs replayed on the compiled lane (a seeded, fixed set).
FIXED_PROGRAMS = 30

Draw = Callable[[int, int], int]
Trace = List[Tuple[float, str]]


def draw_program(draw: Draw) -> List[list]:
    """A program: one operation list per root process."""
    return [_draw_ops(draw, nested=True) for _ in range(draw(2, 6))]


def _draw_ops(draw: Draw, nested: bool) -> list:
    ops: list = []
    for _ in range(draw(1, 6)):
        kind = KINDS[draw(0, len(KINDS) - (1 if nested else 2))]
        if kind == "wait":
            ops.append([kind, draw(0, 2)])
        elif kind in ("chain", "pingpong"):
            ops.append([kind, draw(1, 3)])
        elif kind == "broadcast":
            ops.append([kind, draw(2, 3), draw(0, 2)])
        elif kind in ("anyof", "allof"):
            ops.append([kind, [draw(0, 2) for _ in range(draw(1, 3))]])
        elif kind == "timer":
            ops.append([kind, draw(0, 2), draw(0, 2), draw(0, 3)])
        elif kind == "fail":
            ops.append([kind, draw(0, 2), draw(0, 2)])
        elif kind == "interrupt":
            ops.append([kind, draw(1, 2), draw(0, 2)])
        elif kind == "reyield":
            ops.append([kind])
        else:
            ops.append([kind, _draw_ops(draw, nested=False), draw(0, 1)])
    return ops


def trace_program(program: List[list], mode: str = "run",
                  sanitize: bool = False) -> Tuple[Trace, Environment]:
    """Run ``program`` the chosen way; return its trace and environment."""
    env = Environment(sanitize=sanitize,
                      profile=mode in ("profile", "both"))
    if mode in ("control", "both"):
        SimController(env).install()
    log: Trace = []

    def note(tag: str) -> None:
        log.append((round(env.now, 9), tag))

    def failing(tag: str, delay: float):
        yield env.timeout(delay)
        note(f"{tag}:raise")
        raise ValueError(tag)

    def sleeper(tag: str, delay: float):
        try:
            yield env.timeout(delay)
            note(f"{tag}:overslept")
        except Interrupt as intr:
            note(f"{tag}:interrupted:{intr.cause}")

    def pinger(tag: str, ping: Store, pong: Store, rounds: int):
        for r in range(rounds):
            yield ping.put(r)
            got = yield pong.get()
            note(f"{tag}:pong:{got}")

    def ponger(tag: str, ping: Store, pong: Store, rounds: int):
        for _ in range(rounds):
            got = yield ping.get()
            note(f"{tag}:ping:{got}")
            yield pong.put(got + 10)

    def waiter(tag: str, event: Any):
        got = yield event
        note(f"{tag}:woke:{got}")

    def body(name: str, ops: list):
        for i, op in enumerate(ops):
            kind = op[0]
            tag = f"{name}.{i}"
            if kind == "wait":
                yield env.timeout(DELAYS[op[1]])
            elif kind == "chain":
                for j in range(op[1]):
                    ev = env.event()
                    ev.succeed(j)
                    got = yield ev
                    tag += f":{got}"
            elif kind in ("anyof", "allof"):
                events = [env.timeout(DELAYS[d], value=k)
                          for k, d in enumerate(op[1])]
                cond = (env.any_of(events) if kind == "anyof"
                        else env.all_of(events))
                fired = yield cond
                tag += ":" + ",".join(str(fired[e]) for e in events
                                      if e in fired)
            elif kind == "timer":
                _, first, second, how = op
                timer = env.timer(name=tag)
                timer.arm(DELAYS[first])
                if how == 1:  # cancel, then re-arm: leaves a tombstone
                    timer.cancel()
                    timer.arm(DELAYS[second])
                elif how == 2:  # move the deadline while armed
                    timer.arm(DELAYS[second])
                if how == 3:  # cancel and walk away
                    timer.cancel()
                else:
                    yield timer
            elif kind == "fail":
                _, delay, how = op
                if how == 2:
                    ev = env.event()
                    ev.fail(ValueError(tag))
                    try:
                        yield ev
                    except ValueError:
                        tag += ":caught-event"
                else:
                    child = env.process(failing(tag, DELAYS[delay]),
                                        name=tag)
                    if how == 0:
                        try:
                            yield child
                        except ValueError:
                            tag += ":caught"
                    else:
                        child.defuse()
            elif kind == "interrupt":
                victim = env.process(sleeper(tag, DELAYS[op[1]]), name=tag)
                yield env.timeout(DELAYS[op[2]])
                if victim.is_alive:
                    victim.interrupt(tag)
            elif kind == "pingpong":
                ping, pong = Store(env), Store(env)
                yield env.all_of([
                    env.process(pinger(tag, ping, pong, op[1])),
                    env.process(ponger(tag, ping, pong, op[1]))])
            elif kind == "broadcast":  # one event, several callbacks
                shared = env.timeout(DELAYS[op[2]], value=tag)
                yield env.all_of([env.process(waiter(f"{tag}/{w}", shared))
                                  for w in range(op[1])])
            elif kind == "reyield":
                ev = env.event()
                ev.succeed(tag)
                yield ev
                got = yield ev  # already processed: the generic resume path
                tag += f":{got}"
            else:
                child = env.process(body(tag, op[1]), name=tag)
                if op[2]:
                    got = yield child
                    tag += f":{got}"
            note(f"{tag}:{kind}")
        return name

    for k, ops in enumerate(program):
        env.process(body(f"p{k}", ops), name=f"p{k}")
    if mode == "step":
        try:
            while True:
                env.step()
        except EmptySchedule:
            pass
    else:
        env.run()
    note("end")
    if sanitize:
        env.sanitizer.assert_clean()
    return log, env


def fixed_programs() -> List[List[list]]:
    """The seeded program set the compiled-lane replay uses."""
    rng = RandomStreams(12).stream("kernel-differential/programs")
    return [draw_program(lambda lo, hi: int(rng.integers(lo, hi + 1)))
            for _ in range(FIXED_PROGRAMS)]


def run_fixed_programs(sanitize: bool = False) -> Trace:
    """Concatenated ``run()`` traces of :func:`fixed_programs`."""
    log: Trace = []
    for k, program in enumerate(fixed_programs()):
        trace, _ = trace_program(program, sanitize=sanitize)
        log.extend((now, f"#{k}:{tag}") for now, tag in trace)
    return log


@st.composite
def programs(draw: Any) -> List[list]:
    return draw_program(lambda lo, hi: draw(st.integers(lo, hi)))


def _assert_modes_agree(program: List[list]) -> None:
    reference, _ = trace_program(program, "run", sanitize=True)
    for mode in MODES[1:]:
        trace, env = trace_program(program, mode, sanitize=True)
        assert trace == reference, mode
        if env.profiler is not None:
            assert env.profiler.callbacks > 0
            assert env.profiler.run_wall > 0.0


@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(programs())
def test_every_run_mode_processes_the_same_trace(program):
    _assert_modes_agree(program)


def test_fixed_programs_agree_across_modes():
    for program in fixed_programs():
        _assert_modes_agree(program)


@needs_compiled
def test_fixed_programs_identical_on_compiled_lane():
    compiled = _run_in_lane("run_fixed_programs", compiled=True,
                            sanitize=True,
                            module="tests.test_kernel_differential")
    assert compiled == run_fixed_programs()
