"""Document formats: property specs, excitation plans, datasets, scenarios.

Documents are YAML.  Matrices appear as literal strings in the format
"rows ; separated, entries , separated" with exact rational entries
("p/q", integers, or decimal strings such as "0.5").  Bare YAML integers
are exact; bare YAML floats are re-read from their shortest decimal
representation, so write non-integer values as strings when in doubt.
A property document is validated once, into the `Problem` that
`load_problem` returns; a scenario's property is validated by its `Scenario`.
"""

from __future__ import annotations

import re
from fractions import Fraction
from pathlib import Path
from typing import Tuple, Union

import yaml

from .errors import SpecValidationError
from .properties import (
    BoundedSet,
    Dims,
    LinearConstraint,
    LinearStructure,
    Mode,
    Problem,
    PropertySpec,
    Sparsity,
    SystemPair,
    chain_expr,
    format_expr,
    parse_expr,
)
from .ratmat import MAX_LITERAL_LENGTH, as_rational, format_matrix, format_rational, parse_matrix
from .richness import Dataset, InputSection
from .harness import Scenario


def parse_scalar(value) -> Fraction:
    """Exact rational from a YAML scalar (int, float, or string)."""
    if isinstance(value, bool):
        raise SpecValidationError(f"expected a number, got {value!r}")
    if isinstance(value, (int, str)):
        return as_rational(value)
    if isinstance(value, float):
        return as_rational(str(value))
    raise SpecValidationError(f"cannot read {value!r} as a rational number")


def _parse_vector(value) -> tuple:
    if isinstance(value, str):
        return tuple(as_rational(v) for v in value.split(","))
    if isinstance(value, (list, tuple)):
        return tuple(parse_scalar(v) for v in value)
    raise SpecValidationError(f"cannot read {value!r} as a vector")


def _parse_set(value) -> BoundedSet:
    if not isinstance(value, (list, tuple)) or not value:
        raise SpecValidationError("a value set is a non-empty list of [lo, hi] pairs")
    pairs = []
    for piece in value:
        if isinstance(piece, (list, tuple)) and len(piece) == 2:
            pairs.append((parse_scalar(piece[0]), parse_scalar(piece[1])))
        else:
            # a bare scalar denotes a single point
            v = parse_scalar(piece)
            pairs.append((v, v))
    return BoundedSet.from_pairs(pairs)


_REQUIRED = object()

# Largest n + m a property or scenario document may declare: a design is a dense
# (n+m)-square matrix built from the counts alone, which past it exhausts memory.
MAX_DIMENSION = 1000


def _as(kind, value, name: str):
    """`value` read as `kind` (int, str or Mode); SpecValidationError naming `name` if it is not one.
    An int must be integral: 2, 2.0 and "2" read as 2; 2.5 and true are rejected, not truncated."""
    try:
        if kind is int and (isinstance(value, bool) or isinstance(value, float) and not value.is_integer()):
            raise ValueError(f"{value!r} is not integral")
        return kind(value)
    except (TypeError, ValueError) as exc:
        raise SpecValidationError(f"{name}: {value!r} is not a valid {kind.__name__}") from exc


def _field(doc, key, kind, where: str, default=_REQUIRED):
    """doc[key] read through `_as`, or as it is when `kind` is None.

    A null value counts as missing.  A document that is not a mapping and a
    missing field without a default raise SpecValidationError naming the field.
    """
    if not isinstance(doc, dict):
        raise SpecValidationError(f"{where} must be a mapping, got {doc!r}")
    if doc.get(key) is None:
        if default is _REQUIRED:
            raise SpecValidationError(f"{where} is missing field {key!r}")
        return default
    return doc[key] if kind is None else _as(kind, doc[key], f"{where} field {key!r}")


def _dims(doc: dict, where: str) -> Dims:
    dims = Dims(_field(doc, "n", int, where), _field(doc, "m", int, where, 0))
    if dims.total > MAX_DIMENSION:
        raise SpecValidationError(f"{where}: n + m = {dims.total} exceeds {MAX_DIMENSION}")
    return dims


def _load_doc(source: Union[str, Path, dict]) -> dict:
    if isinstance(source, dict):
        return source
    text = Path(source).read_text()
    try:
        doc = yaml.safe_load(text)
    except RecursionError as exc:  # the composer recurses once per level of nesting
        raise SpecValidationError(f"{source}: nested too deeply") from exc
    except ValueError as exc:  # a scalar Python refuses, such as an int past 3.11's 4300 digits
        digits = re.search(r"value has (\d+) digits", str(exc))
        what = f"an integer of {digits[1]} digits exceeds {MAX_LITERAL_LENGTH}" if digits else exc
        raise SpecValidationError(f"{source}: {what}") from exc
    if not isinstance(doc, dict):
        raise SpecValidationError(f"{source}: expected a mapping at the top level")
    return doc


def _index_pairs(value, what: str) -> frozenset:
    pairs = set()
    if not isinstance(value or [], (list, tuple)):
        raise SpecValidationError(f"{what} is a list of [row, col] pairs, got {value!r}")
    for item in value or []:
        if not (isinstance(item, (list, tuple)) and len(item) == 2):
            raise SpecValidationError(f"{what} entries are [row, col] pairs, got {item!r}")
        pairs.add((_as(int, item[0], what), _as(int, item[1], what)))
    return frozenset(pairs)


def _read_sparsity(doc: dict) -> Sparsity:
    return Sparsity(*(_index_pairs(doc.get(key), key) for key in ("zeros_A", "zeros_B")))


def _write_sparsity(prop: Sparsity) -> dict:
    return {"zeros_A": sorted(map(list, prop.zeros_a)), "zeros_B": sorted(map(list, prop.zeros_b))}


def _read_structure(doc: dict) -> LinearStructure:
    where = "property document"
    raw = doc.get("constraints")
    if not raw or not isinstance(raw, list):
        raise SpecValidationError("a linear structure needs a constraints list")
    constraints = tuple(
        LinearConstraint(
            _parse_vector(_field(c, "h", None, f"constraint {i}")),
            _parse_set(_field(c, "set", None, f"constraint {i}")),
        )
        for i, c in enumerate(raw, start=1)
    )
    expr_text = doc.get("expr")
    if expr_text is None:
        expr = chain_expr(len(constraints))
        mode = _field(doc, "mode", Mode, where, Mode.INTERSECTION)
    else:
        expr = parse_expr(str(expr_text))
        mode = _field(doc, "mode", Mode, where, Mode.EXPRESSION)
    return LinearStructure(constraints, expr, mode)


def _write_structure(prop: LinearStructure) -> dict:
    return {
        "constraints": [
            {
                "h": ", ".join(format_rational(v) for v in c.h),
                "set": [[format_rational(lo), format_rational(hi)] for lo, hi in c.values.pieces],
            }
            for c in prop.constraints
        ],
        "expr": format_expr(prop.expr),
        "mode": prop.mode.value,
    }


# each document `type` name and the catalog class it reads as
_KINDS = {name: cls for cls in PropertySpec.__subclasses__() for name in (cls.type_name, *cls.aliases)}
# (reader, writer) of the fields of the kinds that have fields beyond type, n and m
_FIELDS = {
    Sparsity: (_read_sparsity, _write_sparsity),
    LinearStructure: (_read_structure, _write_structure),
}


def _read_property(source: Union[str, Path, dict]) -> Tuple[PropertySpec, Dims]:
    """The spec and dimensions of a property document, not yet validated together."""
    doc = _load_doc(source)
    where = "property document"
    kind = _field(doc, "type", str, where).lower()
    dims = _dims(doc, where)
    if kind not in _KINDS:
        raise SpecValidationError(f"unknown property type {kind!r}")
    cls = _KINDS[kind]
    return _FIELDS[cls][0](doc) if cls in _FIELDS else cls(), dims


def load_problem(source: Union[str, Path, dict]) -> Problem:
    """Read a property document and validate it, once, into a `Problem`."""
    return Problem.of(*_read_property(source))


def load_property(source: Union[str, Path, dict]) -> Tuple[PropertySpec, Dims]:
    """Read and validate a property document; returns the spec and its dimensions."""
    problem = load_problem(source)
    return problem.prop, problem.dims


def _property_doc(prop: PropertySpec, dims: Dims) -> dict:
    doc: dict = {"n": dims.n, "m": dims.m, "type": prop.type_name}
    if type(prop) in _FIELDS:
        doc.update(_FIELDS[type(prop)][1](prop))
    return doc


def dump_property(prop: PropertySpec, dims: Dims) -> str:
    return yaml.safe_dump(_property_doc(prop, dims), sort_keys=False, default_flow_style=None)


def load_input_section(source: Union[str, Path, dict]) -> InputSection:
    doc = _load_doc(source)
    where = "plan document"
    n, m, k = _field(doc, "n", int, where), _field(doc, "m", int, where, 0), _field(doc, "k", int, where)
    x = parse_matrix(str(doc.get("X", "")), rows=n, cols=k)
    u = parse_matrix(str(doc.get("U", "")), rows=m, cols=k)
    return InputSection(x, u)


def _section_doc(section: InputSection) -> dict:
    x, u = format_matrix(section.x_minus), format_matrix(section.u_minus)
    return {"n": section.n, "m": section.m, "k": section.k, "X": x, "U": u}


def dump_input_section(section: InputSection) -> str:
    return yaml.safe_dump(_section_doc(section), sort_keys=False, default_flow_style=None)


def load_dataset(source: Union[str, Path, dict]) -> Dataset:
    doc = _load_doc(source)
    section = load_input_section(doc)
    if "Xp" not in doc:
        raise SpecValidationError("a dataset document needs the feedback block Xp")
    x_plus = parse_matrix(str(doc["Xp"]), rows=section.n, cols=section.k)
    return Dataset(section, x_plus)


def dump_dataset(d: Dataset) -> str:
    doc = {**_section_doc(d.section), "Xp": format_matrix(d.x_plus)}
    return yaml.safe_dump(doc, sort_keys=False, default_flow_style=None)


def load_scenario(source: Union[str, Path, dict]) -> Scenario:
    """A scenario from a file or a mapping; a relative `property:` path is read
    from the scenario file's directory, or from the working directory for a mapping."""
    doc = _load_doc(source)
    dims = _dims(doc, "scenario")
    hidden_doc = doc.get("hidden")
    if not isinstance(hidden_doc, dict):
        raise SpecValidationError("scenario needs hidden: {A: ..., B: ...}")
    a = parse_matrix(_field(hidden_doc, "A", str, "scenario hidden system"), rows=dims.n, cols=dims.n)
    b = parse_matrix(str(hidden_doc.get("B", "")), rows=dims.n, cols=dims.m)
    hidden = SystemPair(a, b)
    prop_doc = doc.get("property")
    if isinstance(prop_doc, str):
        prop, prop_dims = _read_property((Path() if isinstance(source, dict) else Path(source).parent) / prop_doc)
    elif isinstance(prop_doc, dict):
        merged = dict(prop_doc)
        merged.setdefault("n", dims.n)
        merged.setdefault("m", dims.m)
        prop, prop_dims = _read_property(merged)
    else:
        raise SpecValidationError("scenario needs a property mapping or path")
    if prop_dims != dims:
        raise SpecValidationError("property dimensions disagree with the scenario")
    plan_doc = doc.get("plan", "designed")
    if isinstance(plan_doc, str) and plan_doc.lower() == "designed":
        plan = None
    elif isinstance(plan_doc, dict):
        x_text = str(plan_doc.get("X", ""))
        u_text = str(plan_doc.get("U", ""))
        x = parse_matrix(x_text, rows=dims.n)
        u = parse_matrix(u_text, rows=dims.m, cols=x.cols)
        plan = InputSection(x, u)
    else:
        raise SpecValidationError("plan must be 'designed' or {X: ..., U: ...}")
    seed = _field(doc, "seed", int, "scenario", 0)
    return Scenario(dims, hidden, prop, plan, seed)


def dump_scenario(sc: Scenario) -> str:
    doc: dict = {
        "n": sc.dims.n,
        "m": sc.dims.m,
        "hidden": {"A": format_matrix(sc.hidden.a), "B": format_matrix(sc.hidden.b)},
        "property": _property_doc(sc.prop, sc.dims),
        "plan": "designed"
        if sc.plan is None
        else {"X": format_matrix(sc.plan.x_minus), "U": format_matrix(sc.plan.u_minus)},
        "seed": sc.seed,
    }
    return yaml.safe_dump(doc, sort_keys=False, default_flow_style=None)
