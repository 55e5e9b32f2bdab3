"""Scenario plumbing: building manifolds from structured specs, running the
manifold -> bundle -> complex -> assembly pipeline, and rendering reports.

The built-in presets and custom scenarios alike are documents in the
versioned JSON schema documented in the README (quad-form rows are written
"[i,j,k,l] = value"), checked by `parse_scenario`.
"""

from __future__ import annotations

import re
from collections import namedtuple
from itertools import chain, groupby
from json.encoder import encode_basestring_ascii
from types import SimpleNamespace
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from . import stems
from .ahss import (GroupReport, Notes, assemble, evaluate_class,
                   stem_groups, vanishing_certificate)
from .chern import (SIGN_CONVENTION_NOTE, BundleData, FrozenMap,
                    ManifoldData, connected_sum, index_bundle,
                    make_homology_torus)
from .thom import (BASEPOINT_NOTE, FIBER_PARTS, FIBER_THOM, StableCell,
                   StableCellComplex, infer_attachments, label_counts,
                   skeletal_quotient, sphere_bundle_quotient, thom_cells)
from .values import CheckedTuple

SCHEMA_SCENARIO = "thomstem-scenario/1"
SCHEMA_REPORT = "thomstem-report/1"

PIPELINE_THOM = "thom"
PIPELINE_SPHERE = "sphere_quotient"

# preset -> (pipeline, suspensions, skeletal_cut, element on the top cell,
# the determinant arguments it reads: one homology torus each)
_PRESETS = {
    "paper-sec3": (PIPELINE_THOM, 0, 5, "eta", ("det",)),
    "paper-sec4": (PIPELINE_THOM, 1, None, "nu_multiple(12)",
                   ("det1", "det2")),
    "paper-sec5": (PIPELINE_SPHERE, 2, None, "eta_sq", ("det1", "det2")),
}
PRESET_NAMES = tuple(_PRESETS)

# Largest total b1 a scenario file may ask for (a homology torus counts 4).
# The Thom complex has 2^b1 cells and each generator costs about 4x: thom
# b1 = 12 takes 0.05 s to run and 0.32 s to render, and gives a 114 MB
# report (860k notes) at 241 MB peak RSS (best of 3 fresh processes,
# Python 3.11, 2-vCPU VM).
MAX_TOTAL_B1 = 12


class SpecError(ValueError):
    """Malformed scenario input; `pointer` names the offending field."""

    def __init__(self, pointer: str, message: str):
        super().__init__(f"{pointer}: {message}")
        self.pointer = pointer


class ScenarioSpec(CheckedTuple, namedtuple(
        "ScenarioSpec", "name manifolds pipeline suspensions skeletal_cut "
        "target_shift target_override class_assignment",
        defaults=(PIPELINE_THOM, 0, None, 0, None, ()))):
    """A fully resolved scenario: what to build and what class to evaluate,
    checked by `parse_scenario`.

    Each manifold entry is a read-only mapping, left out of the hash.
    """

    __slots__ = ()

    def __hash__(self):
        return hash(self[:1] + self[2:])

    def with_overrides(self, target: Optional[int] = None,
                       extra_suspensions: int = 0) -> "ScenarioSpec":
        return self._replace(
            suspensions=self.suspensions + extra_suspensions,
            target_override=self.target_override if target is None
            else target)


def preset(name: str, det: int = 1, det1: int = 1, det2: int = 1) -> ScenarioSpec:
    """The read-only built-in presets.

    Each preset is a scenario document checked by `parse_scenario`, so a
    bad argument fails with a `SpecError` that names the field.

    The `paper-sec5` verdict does not depend on `det1` and `det2`: the
    sphere quotient has w = 0, so it is `nontrivial` for det 2,4 too,
    while the paper's theorem needs both determinants odd. Its `eta_sq`
    on the top cell is a hypothesis input, like every class assignment,
    not a class derived from the determinants.
    """
    if name not in _PRESETS:
        raise SpecError("scenario", f"unknown preset {name!r}")
    pipeline, suspensions, cut, element, flags = _PRESETS[name]
    given = {"det": det, "det1": det1, "det2": det2}
    return parse_scenario({
        "schema": SCHEMA_SCENARIO, "name": name, "pipeline": pipeline,
        "manifolds": [{"determinant": given[flag]} for flag in flags],
        "suspensions": suspensions, "skeletal_cut": cut,
        "class_assignment": [{"cell": "top", "element": element}]})


# -- structured-text scenario files ------------------------------------

# the keys each object of a scenario document may hold
_SCENARIO_KEYS = ("schema", "name", "pipeline", "manifolds", "suspensions",
                  "skeletal_cut", "target_shift", "class_assignment")
_TORUS_KEYS = ("determinant",)
_BLOCK_KEYS = ("b1", "quad_form", "signature", "b_plus", "label")
_ROW_KEYS = ("cell", "element")
_SELECTOR_KEYS = ("base", "fiber")

_QUAD_ROW = re.compile(r"^\s*\[\s*(\d+)\s*,\s*(\d+)\s*,\s*(\d+)\s*,\s*(\d+)\s*\]"
                       r"\s*=\s*(-?\d+)\s*$")


def parse_scenario(data: Mapping) -> ScenarioSpec:
    """Validate a scenario mapping (already JSON-decoded) into a spec."""
    if not isinstance(data, Mapping):
        raise SpecError("spec", "scenario must be a JSON object")
    schema = data.get("schema")
    if schema != SCHEMA_SCENARIO:
        raise SpecError("spec.schema",
                        f"expected {SCHEMA_SCENARIO!r}, got {schema!r}")
    _check_keys(data, _SCENARIO_KEYS, "spec")
    name = data.get("name", "custom")
    if not isinstance(name, str):
        raise SpecError("spec.name", "must be a string")
    pipeline = data.get("pipeline", PIPELINE_THOM)
    if pipeline not in (PIPELINE_THOM, PIPELINE_SPHERE):
        raise SpecError("spec.pipeline",
                        f"must be {PIPELINE_THOM!r} or {PIPELINE_SPHERE!r}")
    manifolds = data.get("manifolds")
    if not _is_list(manifolds):
        raise SpecError("spec.manifolds", "must be a list")
    resolved = []
    for i, m in enumerate(manifolds):
        resolved.append(_check_manifold(m, f"spec.manifolds[{i}]"))
    total_b1 = sum(m.get("b1", 4) for m in resolved)
    if total_b1 > MAX_TOTAL_B1:
        raise SpecError("spec.manifolds",
                        f"total b1 = {total_b1} exceeds the limit of "
                        f"{MAX_TOTAL_B1} (a homology torus counts 4)")
    if sum(m.get("signature", 0) for m in resolved):
        first = next(i for i, m in enumerate(resolved) if m.get("signature"))
        raise SpecError(f"spec.manifolds[{first}].signature",
                        "signatures must sum to 0: the A-hat factor is "
                        "fixed to 1")
    for key in ("suspensions", "target_shift"):
        if key in data and not _is_int(data[key]):
            raise SpecError(f"spec.{key}", "must be an integer")
    if data.get("suspensions", 0) < 0:
        raise SpecError("spec.suspensions", "must be nonnegative")
    cut = data.get("skeletal_cut")
    if cut is not None and not _is_int(cut):
        raise SpecError("spec.skeletal_cut", "must be an integer or null")
    rows = data.get("class_assignment", [])
    if not _is_list(rows):
        raise SpecError("spec.class_assignment", "must be a list")
    assignment = []
    for i, row in enumerate(rows):
        where = f"spec.class_assignment[{i}]"
        if not isinstance(row, Mapping) or "cell" not in row or "element" not in row:
            raise SpecError(where, "needs 'cell' and 'element' fields")
        _check_keys(row, _ROW_KEYS, where)
        _parse_element(row["element"], where + ".element")  # validate early
        assignment.append((_freeze_selector(row["cell"], where + ".cell"),
                           row["element"]))
    return ScenarioSpec(
        name=name,
        manifolds=tuple(resolved),
        pipeline=pipeline,
        suspensions=data.get("suspensions", 0),
        skeletal_cut=cut,
        target_shift=data.get("target_shift", 0),
        class_assignment=tuple(assignment),
    )


def _is_int(value) -> bool:
    """A JSON integer: bool is an int subclass in Python but not here."""
    return isinstance(value, int) and not isinstance(value, bool)


def _is_list(value) -> bool:
    """A JSON array: strings are sequences in Python but not here."""
    return isinstance(value, Sequence) and not isinstance(value, (str, bytes))


def _check_keys(data: Mapping, allowed: Tuple[str, ...], where: str) -> None:
    """A key the schema does not name, a misspelled one say, would be
    dropped without a word: reject it."""
    for key in data:
        if key not in allowed:
            raise SpecError(f"{where}.{key}", "unknown key; the allowed keys "
                            "are " + ", ".join(allowed))


def _check_manifold(m, where: str) -> Mapping:
    if not isinstance(m, Mapping):
        raise SpecError(where, "must be an object")
    if "determinant" in m:
        _check_keys(m, _TORUS_KEYS, where)
        if not _is_int(m["determinant"]) or m["determinant"] == 0:
            raise SpecError(f"{where}.determinant", "must be a nonzero integer")
        return FrozenMap({"determinant": m["determinant"]})
    if "b1" not in m:
        raise SpecError(where, "needs 'determinant' or an explicit 'b1' block")
    _check_keys(m, _BLOCK_KEYS, where)
    out = {"b1": m["b1"], "signature": m.get("signature", 0),
           "b_plus": m.get("b_plus", 3), "label": m.get("label", "M"),
           "quad_form": {}}
    if not _is_int(out["b1"]) or out["b1"] < 0:
        raise SpecError(f"{where}.b1", "must be a nonnegative integer")
    if not _is_int(out["signature"]):
        raise SpecError(f"{where}.signature", "must be an integer")
    if not _is_int(out["b_plus"]) or out["b_plus"] < 0:
        raise SpecError(f"{where}.b_plus", "must be a nonnegative integer")
    if not isinstance(out["label"], str):
        raise SpecError(f"{where}.label", "must be a string")
    rows = m.get("quad_form", [])
    if not _is_list(rows):
        raise SpecError(f"{where}.quad_form",
                        'must be a list of "[i,j,k,l] = value" rows')
    row_of = {}
    for j, row in enumerate(rows):
        match = _QUAD_ROW.match(row) if isinstance(row, str) else None
        if not match:
            raise SpecError(f"{where}.quad_form[{j}]",
                            'rows must look like "[i,j,k,l] = value"')
        try:
            subset = tuple(int(g) for g in match.groups()[:4])
            value = int(match.group(5))
        except ValueError as exc:  # more digits than int() will read
            raise SpecError(f"{where}.quad_form[{j}]", str(exc)) from None
        if not 1 <= subset[0] < subset[1] < subset[2] < subset[3] <= out["b1"]:
            raise SpecError(f"{where}.quad_form[{j}]",
                            "indices must ascend strictly within "
                            f"1..b1 = {out['b1']}")
        if subset in row_of:
            raise SpecError(f"{where}.quad_form[{j}]", "repeats the subset of "
                            f"{where}.quad_form[{row_of[subset]}]")
        row_of[subset] = j
        out["quad_form"][subset] = value
    out["quad_form"] = FrozenMap(out["quad_form"])
    return FrozenMap(out)


def _freeze_selector(selector, where: str):
    if selector == "top":
        return "top"
    if isinstance(selector, Mapping) and "base" in selector:
        _check_keys(selector, _SELECTOR_KEYS, where)
        base = selector["base"]
        if not _is_list(base):
            raise SpecError(f"{where}.base", "must be a list of generator indices")
        for k, index in enumerate(base):
            # no torus in the size limit has a generator past MAX_TOTAL_B1,
            # and the cell lookup builds a mask of 2**index
            if not _is_int(index) or not 1 <= index <= MAX_TOTAL_B1:
                raise SpecError(f"{where}.base[{k}]", "generator indices are "
                                f"integers from 1 to {MAX_TOTAL_B1}")
        if len(set(base)) != len(base):
            raise SpecError(f"{where}.base", "repeats a generator index")
        fiber = selector.get("fiber", FIBER_THOM)
        if fiber not in FIBER_PARTS:
            raise SpecError(f"{where}.fiber", "must be one of " + ", ".join(
                map(repr, FIBER_PARTS)))
        return (tuple(base), fiber)
    raise SpecError(where, 'must be "top" or {"base": [...], "fiber": ...}')


_ELEMENT_CALL = re.compile(r"^(one|nu_multiple)\((-?\d+)\)$")


def _parse_element(text, where: str):
    """Element spec -> a builder taking the cell's stem (for zero)."""
    if not isinstance(text, str):
        raise SpecError(where, "element must be a string")
    plain = {"eta": stems.eta, "eta_sq": stems.eta_sq}
    if text in plain:
        return lambda q: plain[text]()
    if text == "zero":
        return lambda q: stems.zero(q)
    match = _ELEMENT_CALL.match(text.replace(" ", ""))
    if match:
        builder = {"one": stems.one, "nu_multiple": stems.nu_multiple}[match.group(1)]
        try:
            value = int(match.group(2))
        except ValueError as exc:  # more digits than int() will read
            raise SpecError(where, str(exc)) from None
        return lambda q: builder(value)
    raise SpecError(where, f"unknown stem element {text!r}; use zero, eta, "
                    "eta_sq, one(d) or nu_multiple(k)")


# -- running ------------------------------------------------------------

class RunResult(CheckedTuple, namedtuple(
        "RunResult", "spec manifold bundle final_complex target_n report "
        "assignment verdict certificate")):
    """What `run_scenario` gives; `assignment` is stored as a `FrozenMap`."""

    __slots__ = ()

    def __new__(cls, spec: ScenarioSpec, manifold: ManifoldData,
                bundle: BundleData, final_complex: StableCellComplex,
                target_n: int, report: GroupReport,
                assignment: Mapping[StableCell, stems.StemElement],
                verdict: str, certificate: str):
        return tuple.__new__(cls, (spec, manifold, bundle, final_complex,
                                   target_n, report, FrozenMap(assignment),
                                   verdict, certificate))


# perfbench's self-tests change a result's verdict with `dataclasses.replace`,
# which reads only `name`, `init` and `_field_type` of each field and then
# calls the constructor
RunResult.__dataclass_fields__ = {name: SimpleNamespace(
    name=name, init=True, _field_type=None) for name in RunResult._fields}


def resolve_manifold(spec: ScenarioSpec) -> ManifoldData:
    built = []
    for m in spec.manifolds:
        if "determinant" in m:
            built.append(make_homology_torus(m["determinant"]))
        else:
            built.append(ManifoldData(**m))
    if not built:
        raise SpecError("spec.manifolds", "at least one manifold is required")
    out = built[0]
    for m in built[1:]:
        out = connected_sum(out, m)
    return out


def resolve_target(spec: ScenarioSpec, manifold: ManifoldData,
                   bundle: BundleData) -> int:
    if spec.target_override is not None:
        return spec.target_override
    return 4 * bundle.sphere_shift + manifold.b_plus + spec.target_shift


def resolve_assignment(spec: ScenarioSpec, cut: StableCellComplex,
                       target_n: int) -> Dict[StableCell, stems.StemElement]:
    """The class on each picked cell of the final complex, the cells of
    `cut` suspended `spec.suspensions` times in all. Each cell is found in
    `cut` and lifted by the suspensions it lacks: none when `cut` was
    built at its final dimension (`run_scenario`), `spec.suspensions`
    when it was built unsuspended (`explain_text`). So its dim, its stem
    and every error name the suspended cell. A cell picked by two rows
    raises: the verdict must not hang on row order."""
    out: Dict[StableCell, stems.StemElement] = {}
    picked_by: Dict[StableCell, int] = {}
    set_by = ("the manifolds, suspensions and target_shift"
              if spec.target_override is None else
              "--target")
    for i, (selector, element_text) in enumerate(spec.class_assignment):
        where = f"spec.class_assignment[{i}]"
        if selector == "top":
            if not cut.cells:
                raise SpecError("spec.skeletal_cut", "collapses every cell, so "
                                f"{where} has no top cell")
            cell = cut.top_cell
        else:
            base, fiber = selector
            try:
                cell = cut.find_cell(base, fiber)
            except KeyError:
                raise SpecError(
                    f"{where}.cell",
                    f"no {fiber} cell with base {list(base)} in the final "
                    "complex (collapsed by skeletal_cut, or not built from "
                    "these manifolds by this pipeline)") from None
        lift = spec.suspensions - cell.suspension
        if lift:
            cell = cell.suspended(lift)
        if cut.is_basepoint(cell):      # whatever its suspension
            raise SpecError(f"{where}.cell", f"{cell.name()} is the "
                            "basepoint and carries no class")
        if cell in picked_by:
            raise SpecError(f"{where}.cell", f"{cell.name()} is already "
                            "picked by spec.class_assignment"
                            f"[{picked_by[cell]}]")
        picked_by[cell] = i
        stem = cell.dim - target_n
        element = _parse_element(element_text, f"{where}.element")(stem)
        if element.q != stem:
            raise SpecError(f"{where}.element",
                            f"{element} lives in stem {element.q}, but "
                            f"{cell.name()} sits in stem {stem} of S^{target_n}"
                            f" (set by {set_by})")
        out[cell] = element
    return out


def _stages(spec: ScenarioSpec, k: int) -> Tuple[
        ManifoldData, BundleData, StableCellComplex, StableCellComplex, int]:
    """The chain `run_scenario` and `explain_text` share: manifold ->
    index bundle -> cells -> labels -> cut -> target. Every cell is made
    suspended `k` times, and the cut collapses dims <= skeletal_cut + k,
    the same cells at any k. Returns (manifold, bundle, built, cut,
    target_n); `built` is the labelled complex before the cut.
    `run_scenario` passes k = spec.suspensions, so `cut` is the final
    complex; `explain_text` passes 0 and reads stems and dims shifted by
    `spec.suspensions`. Each stage is looked up in this module's
    namespace when it is called, so that a wrapper set there sees every
    call."""
    manifold = resolve_manifold(spec)
    bundle = index_bundle(manifold)
    if spec.pipeline == PIPELINE_SPHERE:
        built = infer_attachments(sphere_bundle_quotient(bundle, k))
    else:
        built = infer_attachments(thom_cells(bundle, k))
    cut = built
    if spec.skeletal_cut is not None:
        cut = skeletal_quotient(cut, spec.skeletal_cut + k)
    target_n = resolve_target(spec, manifold, bundle)
    return manifold, bundle, built, cut, target_n


def run_scenario(spec: ScenarioSpec) -> RunResult:
    """Build every cell at its final dimension, suspended
    `spec.suspensions` times, so the cut complex is the final one; then
    assemble it, resolve the class assignment on it (no cell is lifted)
    and give the verdict and certificate."""
    manifold, bundle, _, final, target_n = _stages(spec, spec.suspensions)
    report = assemble(final, target_n)
    assignment = resolve_assignment(spec, final, target_n)
    verdict = evaluate_class(report, assignment)
    certificate = vanishing_certificate(report, assignment)
    return RunResult(spec, manifold, bundle, final, target_n, report,
                     assignment, verdict, certificate)


# -- rendering ----------------------------------------------------------

class Rows:
    """A report table kept by column: one {key: column list} dict per run
    of rows that share one key set. Iterates over its row dicts, and is
    written as the list of them."""

    def __init__(self, *runs: Dict[str, list]):
        self.runs = runs

    def __iter__(self):
        for run in self.runs:
            yield from (dict(zip(run, row)) for row in zip(*run.values()))


def complex_to_dict(complex_: StableCellComplex) -> dict:
    """JSON-ready description: cells, dims, label counts, detected labels."""
    cells = complex_.cells
    out = {
        "basepoint_policy": complex_.basepoint_policy,
        "gap3_trivial_flag": complex_.gap3_trivial,
        "cells": Rows({
            "name": [cell.name() for cell in cells],
            "base": [cell.base_indices for cell in cells],
            "fiber": [cell.fiber_part for cell in cells],
            "suspension": [cell.suspension for cell in cells],
            "dim": [cell.dim for cell in cells],
            "basepoint": [complex_.is_basepoint(cell) for cell in cells],
        }),
        "cells_by_dim": {str(d): n
                         for d, n in sorted(complex_.cells_by_dim().items())},
    }
    labels = complex_.attachments
    if labels is not None:
        out["label_counts"] = label_counts(labels)
        detected = labels.detected
        out["detected_labels"] = Rows({
            "upper": [upper.name() for (upper, _), _ in detected],
            "lower": [lower.name() for (_, lower), _ in detected],
            "dims": [(upper.dim, lower.dim) for (upper, lower), _ in detected],
            "label": [label.value for _, label in detected],
            "justification": [label.justification for _, label in detected],
        })
    return out


def _assembly_dict(report: GroupReport, names: Dict[int, str]) -> dict:
    """The assembly section. `names` maps the id of each cell of the run's
    final complex to its name; a column whose cell is not one of those
    objects (a report copied apart from its complex) is named afresh."""
    # a report holds a few group objects, one per stem, over many columns
    groups = {id(entry.group): entry.group for entry in report.entries}
    pretty = {key: group.pretty() for key, group in groups.items()}
    runs = []   # a new run wherever the optional reduced_index key appears
    for reduced, run in groupby(report.entries,
                                lambda entry: entry.reduced_index is not None):
        run = list(run)
        runs.append({
            "cell": [names.get(id(entry.cell)) or entry.cell.name()
                     for entry in run],
            "dim": [entry.cell.dim for entry in run],
            "stem": [entry.stem_q for entry in run],
            "group": [pretty[id(entry.group)] for entry in run],
            "status": [entry.status for entry in run],
            "killer": [entry.killer for entry in run],
        })
        if reduced:
            runs[-1]["reduced_index"] = [entry.reduced_index for entry in run]
    out = {
        "target": report.target_n,
        "entries": Rows(*runs),
        "assembled": report.assembled.pretty() if report.assembled else None,
        "notes": report.notes,
        "blocks": {k: g.pretty() for k, g in sorted(report.blocks().items())},
        "differentials": report.differentials,
    }
    if report.bounds:
        out["assembled_bounds"] = {
            "lower_quotient": report.bounds[0].pretty(),
            "upper_sum": report.bounds[1].pretty(),
        }
    return out


def _manifold_dict(m: ManifoldData) -> dict:
    return {
        "label": m.label,
        "b1": m.b1,
        "signature": m.signature,
        "b_plus": m.b_plus,
        "quad_form": [f"[{','.join(str(k) for k in subset)}] = {value}"
                      for subset, value in sorted(m.quad_form.items())],
    }


def _bundle_dict(b: BundleData) -> dict:
    return {
        "base_rank": b.base_rank,
        "field": b.field,
        "rank": b.rank,
        "sphere_shift": b.sphere_shift,
        "c1": b.c1.format(),
        "c2": b.c2.format(),
        "w": [b.w_class(i).format() for i in range(1, 5)],
    }


def report_dict(result: RunResult) -> dict:
    """The JSON report: stable key order, no timestamps, byte-reproducible."""
    spec, final = result.spec, result.final_complex
    complex_dict = complex_to_dict(final)
    # the assembly's columns are cells of this complex: each name is
    # formatted once, for both tables
    names = dict(zip(map(id, final.cells),
                     complex_dict["cells"].runs[0]["name"]))
    return {
        "schema": SCHEMA_REPORT,
        "scenario": {
            "name": spec.name,
            "pipeline": spec.pipeline,
            "suspensions": spec.suspensions,
            "skeletal_cut": spec.skeletal_cut,
            "target": result.target_n,
            "manifolds": [dict(m) if "determinant" in m else
                          {k: v for k, v in m.items() if k != "quad_form"}
                          for m in spec.manifolds],
        },
        "conventions": {
            "sign": SIGN_CONVENTION_NOTE,
            "basepoint": BASEPOINT_NOTE,
        },
        "manifold": _manifold_dict(result.manifold),
        "bundle": _bundle_dict(result.bundle),
        "complex": complex_dict,
        "assembly": _assembly_dict(result.report, names),
        "class_assignment": [
            {"cell": cell.name(), "element": str(element)}
            for cell, element in sorted(result.assignment.items())],
        "verdict": result.verdict,
        "certificate": result.certificate.split("\n"),
    }


def report_json(result: RunResult) -> str:
    """The report as json.dumps(indent=2, sort_keys=True, default=list)
    writes it (a `Rows` or `Notes` value as the list of its items), plus a
    newline, byte for byte; strings go through the C escaper."""
    parts: List[str] = []
    _write(report_dict(result), "\n", parts)
    parts.append("\n")
    return "".join(parts)


# JSON text of the scalars a report may hold, by exact type
_SCALARS = {str: encode_basestring_ascii,
            bool: lambda value: "true" if value else "false",
            int: int.__repr__,
            type(None): lambda value: "null"}

# the bytes encode_basestring_ascii copies as they are: printable ASCII
# but the quote and the backslash
_PLAIN = bytes(c for c in range(0x20, 0x7F) if c not in b'"\\')
_PROBE_ITEMS = 4096     # strings per probe, so its copy stays small


def _write(value, newline: str, parts: List[str]) -> None:
    """Append the list, tuple, dict, `Rows` or `Notes` value as JSON;
    `newline` is the line break plus the indent of the line `value` starts
    on. Items are str, int, bool, None or containers again, and dict keys
    are str; anything else (a float too, or a subclass of a scalar) raises
    TypeError, so the report stays exact. `Rows` is written by
    `_write_rows` a column at a time and `Notes` by `_write_notes` a run
    at a time; a list or tuple goes one part per item."""
    inner = newline + "  "
    if type(value) is Rows:
        _write_rows(value, newline, parts)
    elif type(value) is Notes:
        _write_notes(value, newline, parts)
    elif isinstance(value, dict):
        if not value:
            parts.append("{}")
            return
        sep = "{" + inner
        for key, item in sorted(value.items()):    # a non-str key raises
            head = sep + encode_basestring_ascii(key) + ": "
            text = _SCALARS.get(type(item))
            if text is None:
                parts.append(head)
                _write(item, inner, parts)
            else:
                parts.append(head + text(item))
            sep = "," + inner
        parts.append(newline + "}")
    elif isinstance(value, (list, tuple)):
        if not value:
            parts.append("[]")
            return
        sep = "[" + inner
        for item in value:
            text = _SCALARS.get(type(item))
            if text is None:
                parts.append(sep)
                _write(item, inner, parts)
            else:
                parts.append(sep + text(item))
            sep = "," + inner
        parts.append(newline + "]")
    else:
        raise TypeError(f"{type(value).__name__} is not written to a report")


def _write_notes(notes: Notes, newline: str, parts: List[str]) -> None:
    """Append `notes` as the JSON list of its notes. When every plain note
    and head, and each distinct tails tuple, passes `_plain`, the body is
    one join, each run written as its head before each of its tails;
    otherwise the notes go as a list. A note, head or tail that is not an
    exact str raises TypeError."""
    items = notes.items
    heads = [item if isinstance(item, str) else item[0] for item in items]
    tails = list({id(item[1]): item[1] for item in items
                  if not isinstance(item, str)}.values())
    if not items:
        parts.append("[]")
    elif set(map(type, chain(heads, *tails))) != {str}:
        raise TypeError("a report note is not a str")
    elif not (_plain(heads) and all(map(_plain, tails))):
        _write(list(notes), newline, parts)
    else:
        sep = '",' + newline + '  "'
        parts += ("[" + newline + '  "', sep.join(
            item if isinstance(item, str) else
            item[0] + (sep + item[0]).join(item[1]) for item in items),
            '"' + newline + "]")


def _plain(strings) -> bool:
    """Is every string printable ASCII without a quote or a backslash, so
    that encode_basestring_ascii(s) == '"' + s + '"'? Probed a slice at
    a time on the joined text."""
    for start in range(0, len(strings), _PROBE_ITEMS):
        text = "".join(strings[start:start + _PROBE_ITEMS])
        if not text.isascii() or text.encode("ascii").translate(None, _PLAIN):
            return False
    return True


def _write_rows(rows: Rows, newline: str, parts: List[str]) -> None:
    """Append `rows` as JSON in one join: each run sorts its keys once and
    fills one %-template per row from the `_column_texts` of its columns."""
    inner = newline + "  "
    key_line = inner + "  "
    texts: List[str] = []
    for run in rows.runs:
        names = sorted(run)                        # mixed key types raise
        columns = [_column_texts(run[name], key_line) for name in names]
        template = "{" + ",".join(
            key_line + encode_basestring_ascii(name).replace("%", "%%")
            + ": %s" for name in names) + inner + "}"
        texts += map(template.__mod__, zip(*columns))
    parts += ("[" + inner, ("," + inner).join(texts), newline + "]") \
        if texts else ("[]",)


def _column_texts(values: list, newline: str) -> List[str]:
    """JSON texts of one column of row values written on lines indented
    as `newline`. A value that is neither a scalar nor a list or tuple of
    exact int raises TypeError."""
    kinds = set(map(type, values))
    if len(kinds) == 1 and kinds <= _SCALARS.keys():
        return list(map(_SCALARS[kinds.pop()], values))
    lists = kinds & {list, tuple}
    if not kinds - lists <= _SCALARS.keys() or lists and not set(map(
            type, chain.from_iterable(value for value in values
                                      if type(value) in lists))) <= {int}:
        raise TypeError("a report row holds a value that is neither a "
                        "scalar nor a list of int")
    inner = newline + "  "
    sep = "," + inner
    return [_SCALARS[type(value)](value) if type(value) in _SCALARS else
            "[" + inner + _int_list_text(value).replace(",", sep)
            + newline + "]" if value else "[]"
            for value in values]


# the digits of each int list a report row holds, "1,2,4", joined once per
# process: a base index tuple recurs in every report over the same torus.
# Keyed by tuple, so read only once the caller has checked that every item
# is an exact int: (True,) == (1,) and the two hash alike.
_INT_LIST_TEXT: Dict[tuple, str] = {}


def _int_list_text(value) -> str:
    key = tuple(value)
    text = _INT_LIST_TEXT.get(key)
    if text is None:
        text = _INT_LIST_TEXT[key] = ",".join(map(int.__repr__, key))
    return text


def explain_text(spec: ScenarioSpec) -> str:
    """Pipeline stages, cell tables, Sq detections and labels, without
    assembling or suspending anything. Deterministic for golden-file
    diffs. Suspending k times shifts every dim and the target by k, so
    the final complex's stems are the cut complex's against S^(N-k) and
    its dims are the cut's plus k. The stem table is checked and the
    class assignment resolved in the order `run_scenario` does, so a
    spec that `run` rejects is rejected here too, with the same error."""
    manifold, bundle, built, cut, target_n = _stages(spec, 0)
    stem_groups(cut, target_n - spec.suspensions)   # raises as `assemble`
    resolve_assignment(spec, cut, target_n)

    lines: List[str] = []
    lines.append(f"scenario: {spec.name}")
    lines.append(f"pipeline: {spec.pipeline}")
    md = _manifold_dict(manifold)
    lines.append(f"manifold: {md['label']} (b1={md['b1']}, "
                 f"signature={md['signature']}, b+={md['b_plus']})")
    if md["quad_form"]:
        lines.append("quad form: " + "; ".join(md["quad_form"]))
    else:
        lines.append("quad form: empty")
    if manifold.b1 == 0 and not manifold.quad_form:
        lines.append("trivial bundle, sphere model")
    elif bundle.c2.is_zero:
        lines.append("trivial bundle (c2 = 0)")
    lines.append(f"index bundle: rank-{bundle.rank} {bundle.field} over "
                 f"T^{bundle.base_rank}, c1 = {bundle.c1.format()}, "
                 f"c2 = {bundle.c2.format()}")
    lines.append(f"stiefel-whitney: w2 = {bundle.w_class(2).format()}, "
                 f"w4 = {bundle.w_class(4).format()}")
    if built.bundle is not bundle:
        qb = built.bundle
        lines.append(f"quotient bundle: rank-{qb.rank} {qb.field}, "
                     f"w1 = w2 = w3 = 0")
    lines.append(f"target: S^{target_n}")
    lines.append(f"cells by dimension (as built): " + ", ".join(
        f"{d}:{n}" for d, n in sorted(built.cells_by_dim().items())))
    if spec.skeletal_cut is not None:
        lines.append(f"skeleton cut: cells of dim <= {spec.skeletal_cut} "
                     "collapsed")
    if spec.suspensions:
        lines.append(f"suspensions: {spec.suspensions}")
    if spec.skeletal_cut is not None or spec.suspensions:
        lines.append("cells by dimension (final): " + ", ".join(
            f"{d + spec.suspensions}:{n}"
            for d, n in sorted(cut.cells_by_dim().items())))
    labels = built.attachments
    lines.append("labels by gap: " + (", ".join(
        f"{k}={v}" for k, v in label_counts(labels).items()) or "none"))
    detected = labels.detected
    lines.append("Sq detections:" if detected else "Sq detections: none")
    for (upper, lower), label in detected:
        lines.append(f"  {label.value}: {upper.name()} (dim {upper.dim})"
                     f" -> {lower.name()} (dim {lower.dim})")
    for selector, element in spec.class_assignment:
        where = selector if isinstance(selector, str) else \
            f"base {list(selector[0])} fiber {selector[1]}"
        lines.append(f"class assignment: {element} on {where}")
    return "\n".join(lines) + "\n"
