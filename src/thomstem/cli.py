"""Command-line surface.

    thomstem SCENARIO [flags]            run a scenario, print the report
    thomstem explain SCENARIO [flags]    print pipeline stages, no assembly

SCENARIO is paper-sec3, paper-sec4, paper-sec5, or `run --spec FILE` for a
custom JSON scenario. Exit codes: 0 determinate verdict, 2 malformed
input, 3 unknown verdict, 4 out-of-table stems, 1 anything else.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import partial
from operator import methodcaller
from typing import Optional, Sequence

from . import pipeline
from .ahss import VERDICT_UNKNOWN
from .pipeline import PRESET_NAMES, ScenarioSpec, SpecError
from .stems import OutOfTableError

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_BAD_SPEC = 2
EXIT_UNKNOWN = 3
EXIT_OUT_OF_TABLE = 4


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="thomstem",
        description="Thom-space cell calculus: assemble stable cohomotopy "
                    "groups and evaluate class assignments.")
    parser.add_argument("scenario", choices=PRESET_NAMES + ("run",),
                        help="paper preset, or 'run' with --spec FILE")
    parser.add_argument("--det", type=int, default=1,
                        help="determinant for paper-sec3")
    parser.add_argument("--det1", type=int, default=1,
                        help="first determinant for paper-sec4/5")
    parser.add_argument("--det2", type=int, default=1,
                        help="second determinant for paper-sec4/5")
    parser.add_argument("--spec", metavar="FILE",
                        help="custom scenario JSON (schema thomstem-scenario/1)")
    parser.add_argument("--target", type=int, default=None, metavar="N",
                        help="override the target sphere dimension")
    parser.add_argument("--suspend", type=int, default=0, metavar="K",
                        help="extra suspensions on top of the scenario's own")
    parser.add_argument("--out", metavar="PATH",
                        help="write the report here instead of stdout")
    fmt = parser.add_mutually_exclusive_group()
    fmt.add_argument("--json", dest="fmt", action="store_const", const="json",
                     help="JSON report (default)")
    fmt.add_argument("--text", dest="fmt", action="store_const", const="text",
                     help="plain-text summary")
    parser.set_defaults(fmt="json")
    return parser


def _load_spec(args) -> ScenarioSpec:
    if args.scenario == "run":
        if not args.spec:
            raise SpecError("--spec", "the 'run' scenario needs --spec FILE")
        try:
            with open(args.spec, "r", encoding="utf-8") as handle:
                data = json.load(handle)
        except OSError as exc:
            raise SpecError("--spec", f"cannot read {args.spec}: {exc}")
        except (ValueError, RecursionError) as exc:
            # JSONDecodeError and UnicodeDecodeError are ValueErrors, and
            # so is an integer literal over the int-to-str digit limit
            raise SpecError("--spec", f"not readable as UTF-8 JSON: {exc}")
        spec = pipeline.parse_scenario(data)
    else:
        # the last field of a preset row names the determinant flags it reads
        for flag in pipeline._PRESETS[args.scenario][-1]:
            if getattr(args, flag) == 0:
                raise SpecError(f"--{flag}", "must be a nonzero integer")
        spec = pipeline.preset(args.scenario, det=args.det,
                               det1=args.det1, det2=args.det2)
    if args.suspend < 0:
        raise SpecError("--suspend", "must be nonnegative")
    return spec.with_overrides(target=args.target,
                               extra_suspensions=args.suspend)


def _styled(text: str, code: str) -> str:
    if os.environ.get("THOMSTEM_COLOR") == "1":
        return f"\x1b[{code}m{text}\x1b[0m"
    return text


def _text_report(result) -> str:
    verdict_color = {"nontrivial": "32", "trivial": "36", "unknown": "33"}
    report = result.report
    lines = [
        _styled(f"scenario {result.spec.name}", "1"),
        f"manifold: {result.manifold.label} (b1={result.manifold.b1}, "
        f"b+={result.manifold.b_plus})",
        f"bundle: rank-{result.bundle.rank} {result.bundle.field}, "
        f"c2 = {result.bundle.c2.format()}",
        f"target: S^{result.target_n}",
        f"assembled: " + (report.assembled.pretty() if report.assembled else
                          "bounds %s .. %s" % (report.bounds[0].pretty(),
                                               report.bounds[1].pretty())),
        "verdict: " + _styled(result.verdict,
                              verdict_color.get(result.verdict, "0")),
        "",
        "certificate:",
    ]
    lines.extend("  " + line for line in result.certificate.split("\n"))
    return "\n".join(lines) + "\n"


def _emit(write, out_path: Optional[str]) -> None:
    """Call `write(fp)` on stdout or on the file at `out_path`, which
    must be writable (SpecError) and is never left partly written."""
    if not out_path:
        return write(sys.stdout)
    try:
        with open(out_path, "w", encoding="utf-8") as handle:
            try:
                write(handle)
                handle.flush()
            except BaseException:
                if os.path.isfile(out_path):
                    os.remove(out_path)
                raise
    except OSError as exc:
        raise SpecError("--out", f"cannot write {out_path}: {exc}")


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    explain = False
    if argv and argv[0] == "explain":
        explain = True
        argv = argv[1:]
    args = _parser().parse_args(argv)
    try:
        spec = _load_spec(args)
        if explain:
            _emit(methodcaller("write", pipeline.explain_text(spec)), args.out)
            return EXIT_OK
        result = pipeline.run_scenario(spec)
        if args.fmt == "text":
            _emit(methodcaller("write", _text_report(result)), args.out)
        else:
            _emit(partial(pipeline.write_report, result), args.out)
        return EXIT_UNKNOWN if result.verdict == VERDICT_UNKNOWN else EXIT_OK
    except SpecError as exc:
        print(f"thomstem: malformed scenario: {exc}", file=sys.stderr)
        return EXIT_BAD_SPEC
    except OutOfTableError as exc:
        print(f"thomstem: {exc}", file=sys.stderr)
        return EXIT_OUT_OF_TABLE
    except ValueError as exc:
        print(f"thomstem: invalid input: {exc}", file=sys.stderr)
        return EXIT_BAD_SPEC
    except Exception as exc:  # pragma: no cover - last-resort diagnostics
        print(f"thomstem: internal error: {exc}", file=sys.stderr)
        return EXIT_ERROR


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
