"""Running benchmark items through thomstem and checking what comes back.

Everything here calls thomstem's public functions from outside; no file
of the library is touched. The untraced path is exactly what a user gets:
`parse_scenario`, then `run_scenario` and `report_json`, or `explain_text`.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import time
from dataclasses import dataclass, field
from statistics import median
from typing import Dict, List, Optional

from workloads import Item

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
EXPECTED_PATH = os.path.join(HERE, "expected.json")

OUTCOMES = ("nontrivial", "trivial", "unknown", "explained", "spec_error",
            "out_of_table", "other_error")


class Program:
    """The thomstem package of this checkout, imported from its src/."""

    def __init__(self):
        if not os.path.isfile(os.path.join(SRC, "thomstem", "__init__.py")):
            raise SystemExit(f"perfbench: no thomstem sources in {SRC}")
        sys.path.insert(0, SRC)
        import thomstem
        from thomstem import pipeline
        from thomstem.stems import OutOfTableError
        if not os.path.abspath(thomstem.__file__).startswith(SRC + os.sep):
            raise SystemExit(f"perfbench: thomstem was imported from "
                             f"{thomstem.__file__}, not from {SRC}")
        self.package = thomstem
        self.pipeline = pipeline
        self.SpecError = pipeline.SpecError
        self.OutOfTableError = OutOfTableError

    def env(self) -> dict:
        """What a result must record so that only like runs are compared."""
        return {
            # the compiled-kernel switch may be removed; then only pure exists
            "kernel_backend": getattr(self.package, "kernel_backend", "pure"),
            "python": sys.version.split()[0],
            "nproc": os.cpu_count(),
        }


@dataclass
class Outcome:
    total_s: float              # parse to final bytes (or to the error)
    compute_s: float            # parse to verdict (run) or to the explain text
    text: Optional[str] = None
    result: object = None       # the RunResult of a run
    error: Optional[BaseException] = None


def execute(item: Item, program: Program) -> Outcome:
    """One item, untraced, as the CLI would run it."""
    P = program.pipeline
    result = text = error = None
    t0 = time.perf_counter()
    try:
        spec = P.parse_scenario(item.raw)
        if item.mode == "explain":
            text = P.explain_text(spec)
            t1 = time.perf_counter()
        else:
            result = P.run_scenario(spec)
            t1 = time.perf_counter()
            text = P.report_json(result)
    except Exception as exc:  # recorded and checked against the expectation
        error = exc
        t1 = time.perf_counter()
    t2 = time.perf_counter()
    return Outcome(t2 - t0, t1 - t0, text, result, error)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def load_expected(path: str = EXPECTED_PATH) -> Dict[str, str]:
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)["digests"]


def outcome_kind(outcome: Outcome, program: Program) -> str:
    if outcome.error is None:
        return outcome.result.verdict if outcome.result else "explained"
    if isinstance(outcome.error, program.SpecError):
        return "spec_error"
    if isinstance(outcome.error, program.OutOfTableError):
        return "out_of_table"
    return "other_error"


def _names_field(pointer: str, field_path: str) -> bool:
    """Does a SpecError pointer name the field (or a part of it)?"""
    if pointer.startswith("spec."):
        pointer = pointer[len("spec."):]
    return pointer == field_path or pointer.startswith(
        (field_path + ".", field_path + "["))


def _describe(error: Optional[BaseException]) -> str:
    if error is None:
        return "an output"
    return f"{type(error).__name__}: {error}"


def hand_check(raw: dict, result) -> Optional[str]:
    """The paper families' answers, written out from the acceptance criteria.

    sec3 odd det: `Z^4 + Z/2`, nontrivial. sec4 odd/odd: trivial, the top
    column killed by a d4. sec4 even/even: unknown. sec5 odd/odd: eta^2 on
    a surviving top column, nontrivial. None when the item is not one of
    these families or its answer matches.
    """
    name = raw.get("name")
    if name not in ("paper-sec3", "paper-sec4", "paper-sec5"):
        return None
    odd = [m["determinant"] % 2 == 1 for m in raw["manifolds"]]
    report = result.report
    top = report.entry_for(result.final_complex.top_cell)
    if name == "paper-sec3" and all(odd):
        assembled = report.assembled.pretty() if report.assembled else None
        want, ok = "nontrivial", assembled == "Z^4 + Z/2"
        detail = f"assembled {assembled}, not Z^4 + Z/2"
    elif name == "paper-sec4" and all(odd):
        want = "trivial"
        ok = top.status == "killed" and (top.killer or "").startswith("d4")
        detail = f"top column {top.status} [{top.killer}], not killed by d4"
    elif name == "paper-sec4" and not any(odd):
        want, ok, detail = "unknown", True, ""
    elif name == "paper-sec5" and all(odd):
        element = str(result.assignment.get(top.cell))
        want = "nontrivial"
        ok = element == "eta_sq" and top.status == "survives"
        detail = f"top column {top.status} carries {element}, not a surviving eta_sq"
    else:
        return None
    if result.verdict != want:
        return f"verdict {result.verdict}, the paper says {want}"
    return None if ok else detail


def check(item: Item, outcome: Outcome, program: Program,
          expected: Dict[str, str]) -> Optional[str]:
    """None when the item ended as it must, else the reason it did not."""
    error = outcome.error
    if item.expect == "spec_error":
        if error is None:
            return "malformed input was accepted"
        if not isinstance(error, program.SpecError):
            return f"raised {_describe(error)} instead of a SpecError"
        if not _names_field(error.pointer, item.field):
            return f"SpecError pointer {error.pointer!r} does not name {item.field}"
        return None
    if item.expect == "out_of_table":
        if isinstance(error, program.OutOfTableError):
            return None
        return f"expected an OutOfTableError, got {_describe(error)}"
    if error is not None:
        return f"raised {_describe(error)}"
    want = expected.get(item.key)
    if want is None:
        return "no frozen digest for this item (run perfbench/freeze.py?)"
    if digest(outcome.text) != want:
        return "output bytes differ from the frozen digest"
    if item.mode == "run":
        return hand_check(item.raw, outcome.result)
    return None


class Calibrator:
    """Tracks how fast the machine runs Python right now.

    On a shared machine the same work can take 40% longer for seconds at a
    time. A fixed, allocation-heavy pure-Python job, timed between items,
    slows down with it. Each item's time is scaled by REFERENCE_S over the
    mean of the two timings around it, which reads as the time the item
    would take where this job takes REFERENCE_S.

    The job runs in the measuring process, which never imports thomstem,
    so its time does not depend on what the program allocates or keeps
    alive. Passes ask for a timing through a `CalibratorLink`.
    """

    REFERENCE_S = 0.020
    EVERY_S = 0.25       # of item time between two timings, at the most

    def __init__(self):
        self._keys = [(i * 7919 % 100003, i & 15) for i in range(40000)]
        self.measure()   # the first run is slower than the rest
        self._last = self.measure()

    def measure(self) -> float:
        start = time.perf_counter()
        table = {}
        for key in self._keys:
            table[key] = (key, str(key[0]))
        sorted(table, key=lambda key: key[1] * 100003 + key[0])
        return time.perf_counter() - start

    def factor(self) -> float:
        """The scale for the items run since the previous timing."""
        now = self.measure()
        factor = self.REFERENCE_S / ((self._last + now) / 2)
        self._last = now
        return factor


class CalibratorLink:
    """A pass's end of the measuring process's `Calibrator`: asks for a
    factor with one line on `requests` and reads it from `replies`."""

    EVERY_S = Calibrator.EVERY_S
    REQUEST = "calibrate"

    def __init__(self, requests, replies):
        self._requests = requests
        self._replies = replies

    def factor(self) -> float:
        self._requests.write(self.REQUEST + "\n")
        self._requests.flush()
        return float(self._replies.readline())


@dataclass
class PassResult:
    """One pass over every item of a draw.

    `total_s` and `compute_s` are raw; `scale` holds each item's
    calibration factor, or stays empty when the pass ran uncalibrated.
    """

    total_s: List[float] = field(default_factory=list)     # per item
    compute_s: List[float] = field(default_factory=list)   # per item
    scale: List[float] = field(default_factory=list)       # per item
    digests: List[Optional[str]] = field(default_factory=list)
    failures: Dict[str, str] = field(default_factory=dict)  # item -> reason
    outcomes: Dict[str, int] = field(default_factory=dict)

    @property
    def scaled_total_s(self) -> List[float]:
        return [t * f for t, f in zip(self.total_s, self.scale)]

    @property
    def scaled_compute_s(self) -> List[float]:
        return [t * f for t, f in zip(self.compute_s, self.scale)]

    @property
    def wall_s(self) -> float:
        """Calibrated time spent inside thomstem over the pass."""
        return sum(self.scaled_total_s)

    def record(self, item: Item, outcome: Outcome, program: Program,
               expected: Dict[str, str]) -> None:
        """Keep an item's times and outcome, and check it."""
        self.total_s.append(outcome.total_s)
        self.compute_s.append(outcome.compute_s)
        self.digests.append(digest(outcome.text) if outcome.text else None)
        self.outcomes[outcome_kind(outcome, program)] += 1
        reason = check(item, outcome, program, expected)
        if reason:
            self.failures[item.name] = reason

    def calibrate(self, calibrator, last: bool) -> None:
        """Give the items recorded since the last timing their factor,
        once enough item time has passed or the pass is over."""
        if calibrator is None:
            return
        pending = self.total_s[len(self.scale):]
        if last or sum(pending) >= calibrator.EVERY_S:
            self.scale.extend([calibrator.factor()] * len(pending))


def run_pass(items: List[Item], program: Program, expected: Dict[str, str],
             calibrator=None) -> PassResult:
    out = PassResult(outcomes=dict.fromkeys(OUTCOMES, 0))
    for index, item in enumerate(items):
        out.record(item, execute(item, program), program, expected)
        out.calibrate(calibrator, index == len(items) - 1)
    return out


def repeat_passes(run_one, seconds: float, min_passes: int) -> list:
    """Run passes until the next one would end after `seconds`."""
    passes = []
    start = time.perf_counter()
    while True:
        before = time.perf_counter()
        passes.append(run_one())
        now = time.perf_counter()
        if len(passes) >= min_passes and now - start + now - before > seconds:
            return passes


def per_item_medians(passes: List[PassResult], attr: str) -> List[float]:
    columns = zip(*(getattr(p, attr) for p in passes))
    return [median(column) for column in columns]
