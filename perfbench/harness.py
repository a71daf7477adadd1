"""Loading the program, running operations and rounds, and tallying outcomes."""

from __future__ import annotations

import importlib
import statistics
import sys
import types
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import inputs
import workloads
from spans import NullTracer, Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Every timed phase runs at least this many rounds, so every operation has a median.
MIN_ROUNDS = 4
#: Set-up (import plus input building) is repeated this often; its median is reported.
SETUP_REPS = 11
#: A calibration runs before any operation that starts this long after the last one.
CALIBRATE_EVERY_S = 0.5
#: Timings are rescaled to a machine on which one calibration pass takes this long.
CALIBRATION_REF_S = 0.003

NULL = NullTracer()


def load_program():
    """Import shellcert afresh from the checkout's ``src`` and gather the API used here."""
    for name in [m for m in sys.modules if m == "shellcert" or m.startswith("shellcert.")]:
        del sys.modules[name]
    sc = importlib.import_module("shellcert")
    if Path(sc.__file__).resolve().parent != SRC / "shellcert":
        raise ImportError("shellcert was imported from %s, not from %s" % (sc.__file__, SRC))
    ns = types.SimpleNamespace(**vars(sc))
    ns.parse_complex = importlib.import_module("shellcert.formats").parse_complex
    ns.run_claims = importlib.import_module("shellcert.verify").run_claims
    ns.STAGES = importlib.import_module("shellcert.hunt").STAGES
    return ns


@dataclass
class Workload:
    """``data(seed)`` makes the inputs as plain data (benchmark code only);
    ``setup(sc, data)`` hands them to the program; ``ops`` lists the operations."""

    data: object
    setup: object
    ops: object


def _build_all(sc, specs):
    return {s.name: workloads.build(sc, s) for s in specs}


WORKLOADS = {
    "decide": Workload(
        inputs.decide_specs,
        lambda sc, d: _build_all(sc, d["catalog"] + d["random"] + d["flag"] + [d["k48"]]),
        workloads.decide_ops),
    "homology": Workload(inputs.homology_specs, _build_all, workloads.homology_ops),
    "hunt": Workload(inputs.hunt_runs, lambda sc, d: None,
                     lambda ctx, d, built: workloads.hunt_ops(ctx, d)),
}


def _calibration_pass() -> int:
    """Fixed pure-Python work: integer arithmetic, set and dict updates."""
    seen: set = set()
    counts: dict = {}
    x = 12345
    for _ in range(12000):
        x = (x * 1103515245 + 12345) & 0x3FFFFFFF
        if x in seen:
            seen.discard(x)
        else:
            seen.add(x)
        counts[x & 255] = counts.get(x & 255, 0) + 1
    return len(seen)


class Clock:
    """Converts wall seconds into seconds of a reference machine speed.

    The machine this benchmark was built on changes speed by up to 2x over
    tens of seconds, and a fixed pure-Python kernel slows down with the
    program.  So the kernel is timed between operations, and each
    operation's wall time is scaled by the mean of the calibrations just
    before and just after it.
    """

    def __init__(self):
        self.marks: list = []  # (time, seconds per calibration pass)

    def calibrate(self):
        passes = []
        for _ in range(3):
            t0 = perf_counter()
            _calibration_pass()
            passes.append(perf_counter() - t0)
        self.marks.append((perf_counter(), min(passes)))

    def calibrate_if_due(self):
        if not self.marks or perf_counter() - self.marks[-1][0] >= CALIBRATE_EVERY_S:
            self.calibrate()

    def scale(self, start: float, end: float) -> float:
        """Reference seconds per wall second over [start, end]; needs a mark after ``end``."""
        times = [t for t, _ in self.marks]
        before = self.marks[max(bisect_right(times, start) - 1, 0)][1]
        after = self.marks[min(bisect_left(times, end), len(times) - 1)][1]
        return CALIBRATION_REF_S / ((before + after) / 2)


def setup(workload: Workload, data, clock: Clock):
    """Import plus input building, ``SETUP_REPS`` times.

    Returns the program, the last inputs built and the median set-up time in
    reference seconds.
    """
    times = []
    clock.calibrate()
    start = perf_counter()
    for _ in range(SETUP_REPS):
        t0 = perf_counter()
        sc = load_program()
        built = workload.setup(sc, data)
        times.append(perf_counter() - t0)
    end = perf_counter()
    clock.calibrate()
    return sc, built, statistics.median(times) * clock.scale(start, end)


@dataclass
class Tally:
    """Operations attempted and failed.  A crash or a wrong answer fails an
    operation; only a wrong answer makes the run incorrect."""

    attempted: int = 0
    failed: int = 0
    wrong: int = 0
    reported: set = field(default_factory=set)

    def note(self, status, op_name, detail):
        if (status, op_name) not in self.reported:
            self.reported.add((status, op_name))
            print("%s: %s: %s" % (status, op_name, detail), file=sys.stderr)


def run_op(ctx, op, tr, tally: Tally):
    """Time one call, then check its output; returns (seconds, weight, status)."""
    with tr.span("op", op=op.name):
        t0 = perf_counter()
        try:
            out = op.call(tr)
            status = "ok"
        except ctx.sc.Undecided:
            out, status = None, "undecided"
        except Exception as e:  # a crash of the program is a failed operation
            out, status = e, "crashed"
        elapsed = perf_counter() - t0
    weight = op.weight(out) if status == "ok" else 1
    if status == "ok":
        with tr.span("check", op=op.name):
            try:
                op.check(out, tr)
            except workloads.Wrong as e:
                status = "wrong"
                tally.note(status, op.name, e)
    elif status == "crashed":
        tally.note(status, op.name, "%s: %s" % (type(out).__name__, str(out)[:200]))
    tally.attempted += weight
    if status in ("crashed", "wrong"):
        tally.failed += weight
        tally.wrong += status == "wrong"
    return elapsed, weight, status


def timed_phase(ctx, ops, seconds, tally, clock: Clock):
    """Whole rounds until ``seconds`` have passed (at least ``MIN_ROUNDS``).

    Returns each operation's wall times and reference times across rounds,
    and each operation's weight.
    """
    spans = {op.name: [] for op in ops}
    weights = {}
    start = perf_counter()
    rounds = 0
    while rounds < MIN_ROUNDS or perf_counter() - start < seconds:
        ctx.outputs.clear()
        for op in ops:
            clock.calibrate_if_due()
            t0 = perf_counter()
            elapsed, weight, _ = run_op(ctx, op, NULL, tally)
            spans[op.name].append((t0, elapsed))
            weights[op.name] = weight
        rounds += 1
    clock.calibrate()
    wall = {name: [e for _, e in v] for name, v in spans.items()}
    ref = {name: [e * clock.scale(t0, t0 + e) for t0, e in v] for name, v in spans.items()}
    return wall, ref, weights


def traced_round(ctx, ops, tally) -> Tracer:
    """One more round with a span around every call, table operations replayed."""
    tr = Tracer()
    ctx.outputs.clear()
    with tr.span("round"):
        for op in ops:
            run_op(ctx, op, tr, tally)
            if op.replay is not None:
                with tr.span("facts.replay", op=op.name):
                    try:
                        op.replay(tr)
                    except Exception:  # the span records what was raised
                        pass
    return tr


def median_round_seconds(times) -> float:
    """A round's time built from each operation's median over the rounds."""
    return sum(statistics.median(ts) for ts in times.values())


def mean_round_seconds(times) -> float:
    return sum(sum(ts) for ts in times.values()) / len(next(iter(times.values())))
