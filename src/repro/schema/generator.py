"""Generate the scenario-pack JSON Schema from the field declarations.

Every pack field is declared once, as a dataclass field whose ``metadata``
(built by :func:`repro.schema.fields.schema_field`) carries its description,
bounds, enum or plugin family, quantity kind and literal fragment; each
section lists its cross-field rules once, in a ``SCHEMA_RULES`` class
attribute whose ``$comment`` entries are the rules' error messages.  The
generator is a walker over those declarations (:func:`dataclass_schema`):
one ``$defs`` entry per section dataclass (:func:`pack_definitions`), nested
sections referenced by ``$ref``, plugin-name enums pulled live from
:func:`repro.plugins.registry.available_plugins`.

The rendered document is committed at ``docs/schema/scenario-pack.schema.json``
and kept in sync by ``repro schema check`` in CI.  It is the contract
:mod:`repro.schema.validator` enforces for every loading path --
:meth:`ScenarioPack.from_dict <repro.scenarios.ScenarioPack.from_dict>`, the
section ``from_dict`` methods, execution files, ``repro schema validate``
and the session service -- so the published schema and the loader cannot
disagree.  Only checks a schema cannot express stay eager-only (model
constructors, plugin resolution, referenced files, sweep-axis dry-runs).
"""

from __future__ import annotations

import copy
import dataclasses
import functools
import inspect
import json
import typing
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

__all__ = [
    "SCHEMA_VERSION",
    "SCHEMA_ID",
    "build_schema",
    "current_schema",
    "schema_json",
    "schema_path",
    "dataclass_schema",
    "pack_definitions",
    "quantity_schema",
]

#: Version of the scenario-pack schema document.  Bump the major part for
#: breaking changes to the pack format, the minor part for additive ones.
SCHEMA_VERSION = "1.0"

#: Canonical ``$id`` of the published schema document.
SCHEMA_ID = "https://example.invalid/cgsim-repro/schema/scenario-pack.schema.json"

#: Registered-plugin ``"module.path:ClassName"`` reference syntax.
PLUGIN_SPEC_PATTERN = r"^[A-Za-z_][A-Za-z0-9_]*(\.[A-Za-z_][A-Za-z0-9_]*)*:[A-Za-z_][A-Za-z0-9_]*$"

#: Quantity strings accepted by :func:`repro.utils.units.parse_duration` /
#: :func:`~repro.utils.units.parse_bytes`: a number plus an optional unit.
QUANTITY_PATTERN = r"^\s*[+]?[0-9]*\.?[0-9]+([eE][-+]?[0-9]+)?\s*[A-Za-z/]*\s*$"


def schema_path(repo_root: Optional[Path] = None) -> Path:
    """Location of the committed schema document inside the repository.

    ``docs/schema/scenario-pack.schema.json`` relative to ``repo_root``
    (defaulting to the repository this package was imported from); the CLI's
    ``repro schema check``/``emit`` default to this path.
    """
    if repo_root is None:
        repo_root = Path(__file__).resolve().parents[3]
    return repo_root / "docs" / "schema" / "scenario-pack.schema.json"


def _doc(obj: Any) -> str:
    """First paragraph of ``obj``'s docstring, collapsed to one line."""
    doc = inspect.getdoc(obj) or ""
    first = doc.split("\n\n", 1)[0]
    return " ".join(first.split())


def quantity_schema(kind: str, **bounds: Any) -> Dict[str, Any]:
    """A duration/byte quantity: a bounded number or a unit string like ``"4h"``.

    ``bounds`` are JSON Schema numeric keywords (``minimum``,
    ``exclusiveMinimum``, ...) applied to the plain-number branch.
    """
    return {"anyOf": [
        {"type": "number", **bounds},
        {"type": "string", "pattern": QUANTITY_PATTERN,
         "$comment": f"unit string parsed by repro.utils.units.parse_{kind}"},
    ]}


def _plugin_ref(family: str) -> Dict[str, Any]:
    """Plugin name schema: registered names of ``family`` or ``module:Class``."""
    from repro.plugins.registry import available_plugins

    return {"anyOf": [
        {"enum": list(available_plugins(family)),
         "$comment": f"plugins registered in the {family!r} family"},
        {"type": "string", "pattern": PLUGIN_SPEC_PATTERN,
         "$comment": "dynamic module.path:ClassName plugin reference"},
    ]}


#: ``typing.get_type_hints`` evaluates string annotations on every call.
type_hints = functools.lru_cache(maxsize=None)(typing.get_type_hints)


@functools.lru_cache(maxsize=None)
def pack_definitions() -> Dict[str, type]:
    """The pack schema's ``$defs``: definition name -> declaring dataclass.

    In document order.  A field annotated with one of these classes (or
    ``Optional`` of one) becomes a ``$ref`` to its definition.
    """
    from repro.config import execution
    from repro.scenarios import schema as pack
    from repro.workload.generator import WorkloadSpec

    return {
        "grid": pack.GridSection,
        "workload": pack.WorkloadSection,
        "workload_spec": WorkloadSpec,
        "faults": pack.FaultsSection,
        "cache": pack.CacheSection,
        "data": pack.DataSection,
        "calibration": pack.CalibrationSection,
        "sweep": pack.SweepSection,
        "execution": execution.ExecutionConfig,
        "monitoring": execution.MonitoringConfig,
        "output": execution.OutputConfig,
        "stop": execution.StopConfig,
    }


def build_schema() -> Dict[str, Any]:
    """Build the scenario-pack JSON Schema document as a Python mapping.

    The document is draft 2020-12, carries :data:`SCHEMA_VERSION` in its
    ``version`` field, and is fully regenerated on every call -- plugin
    enums reflect whatever is registered at call time, which is exactly why
    CI re-runs ``repro schema check`` instead of trusting the committed
    copy.  Validation uses the per-process copy from :func:`current_schema`.
    """
    from repro.scenarios.schema import ScenarioPack

    definitions = pack_definitions()
    refs = {cls: f"#/$defs/{name}" for name, cls in definitions.items()}
    document: Dict[str, Any] = {
        "$schema": "https://json-schema.org/draft/2020-12/schema",
        "$id": SCHEMA_ID,
        "title": "CGSim reproduction scenario pack",
        "version": SCHEMA_VERSION,
        "description": _doc(ScenarioPack),
    }
    document.update(dataclass_schema(ScenarioPack, refs))
    document["$defs"] = {name: dataclass_schema(cls, refs) for name, cls in definitions.items()}
    return document


_current: Dict[str, Any] = {}


def current_schema() -> Dict[str, Any]:
    """The schema document, built once per process and shared by validation.

    Rebuilt only when the plugin registry changed since the last build (the
    plugin-name enums are the only live inputs).  Callers must not mutate
    the returned mapping.
    """
    from repro.plugins.registry import available_plugins, plugin_families

    key = tuple(tuple(available_plugins(family)) for family in plugin_families())
    if _current.get("key") != key:
        _current["schema"] = build_schema()
        _current["key"] = key
    return _current["schema"]


def schema_json() -> str:
    """The schema document rendered exactly as committed (stable formatting).

    Two-space indentation, preserved key order (generation order is
    deterministic) and a trailing newline, so ``repro schema check`` can
    compare the committed file byte-for-byte.
    """
    return json.dumps(build_schema(), indent=2) + "\n"


def dataclass_schema(cls: Any, refs: Optional[Dict[type, str]] = None) -> Dict[str, Any]:
    """Generic dataclass -> JSON Schema object translation (the walker).

    Every field becomes a property of a closed object schema
    (``additionalProperties: false``).  Its type comes from the annotation
    -- ``int``/``float``/``str``/``bool``, ``Optional`` (nullable),
    ``List``/``Dict`` containers and nested dataclasses (a ``$ref`` when
    ``refs`` maps the class to a definition, inlined otherwise) -- and its
    constraints from the ``metadata`` declared with
    :func:`repro.schema.fields.schema_field`.  Fields without defaults are
    ``required``; non-null JSON-encodable defaults are recorded; the class
    docstring's first paragraph becomes the object's ``description`` and a
    ``SCHEMA_RULES`` class attribute its ``allOf`` cross-field rules.  The
    scenario-pack schema and the service wire models both come from here.
    """
    if not dataclasses.is_dataclass(cls):
        raise TypeError(f"dataclass_schema needs a dataclass, got {cls!r}")
    hints = type_hints(cls)
    properties: Dict[str, Any] = {}
    required: List[str] = []
    for f in dataclasses.fields(cls):
        if f.metadata.get("internal"):
            continue
        properties[f.name] = _field_schema(f, hints.get(f.name, Any), refs or {})
        if f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING:
            required.append(f.name)
    document: Dict[str, Any] = {"type": "object"}
    doc = _doc(cls)
    if doc:
        document["description"] = doc
    document["additionalProperties"] = False
    if required:
        document["required"] = required
    document["properties"] = properties
    rules = getattr(cls, "SCHEMA_RULES", ())
    if rules:
        document["allOf"] = copy.deepcopy(list(rules))
    return document


def _field_schema(f: dataclasses.Field, annotation: Any,
                  refs: Dict[type, str]) -> Dict[str, Any]:
    """One property schema: annotation-derived type plus declared metadata."""
    meta = f.metadata
    nullable, annotation = _split_optional(annotation)
    bounds = meta.get("bounds", {})
    if "schema" in meta:
        schema = copy.deepcopy(meta["schema"])
    elif "plugin" in meta:
        schema = _plugin_ref(meta["plugin"])
    elif "quantity" in meta:
        schema = quantity_schema(meta["quantity"], **bounds)
    elif "enum" in meta:
        schema = {"enum": list(meta["enum"])}
    else:
        schema = {**_annotation_schema(annotation, refs), **bounds}
    if nullable:
        # Declared pack fields publish a nullable plain string as a type list.
        schema = _nullable(schema, compact="bounds" in meta)
    if "$ref" in schema:
        return schema
    if meta.get("description"):
        schema["description"] = meta["description"]
    default = _default(f)
    if default is not _NO_DEFAULT and meta.get("show_default", default is not None):
        schema["default"] = default
    return schema


def _split_optional(annotation: Any) -> Tuple[bool, Any]:
    """``(nullable, inner)`` for ``Optional[X]``; ``(False, annotation)`` otherwise."""
    args = typing.get_args(annotation)
    if typing.get_origin(annotation) is typing.Union and type(None) in args:
        rest = [arg for arg in args if arg is not type(None)]
        return True, rest[0] if len(rest) == 1 else typing.Union[tuple(rest)]
    return False, annotation


def _nullable(schema: Dict[str, Any], compact: bool = False) -> Dict[str, Any]:
    if compact and schema == {"type": "string"}:
        return {"type": ["string", "null"]}
    if list(schema) == ["anyOf"]:
        return {"anyOf": schema["anyOf"] + [{"type": "null"}]}
    return {"anyOf": [schema, {"type": "null"}]}


_NO_DEFAULT = object()


def _default(f: dataclasses.Field) -> Any:
    """The field's default when it is JSON-encodable, else ``_NO_DEFAULT``."""
    if f.default is not dataclasses.MISSING:
        value = f.default
    elif f.default_factory is not dataclasses.MISSING:
        value = f.default_factory()
    else:
        return _NO_DEFAULT
    if value is None or isinstance(value, (bool, int, float, str, list, dict)):
        return value
    return _NO_DEFAULT


def _annotation_schema(annotation: Any, refs: Dict[type, str]) -> Dict[str, Any]:
    """Schema fragment for one type annotation (the dataclass_schema walker)."""
    if annotation is Any:
        return {}
    if dataclasses.is_dataclass(annotation):
        if annotation in refs:
            return {"$ref": refs[annotation]}
        return dataclass_schema(annotation, refs)
    origin = typing.get_origin(annotation)
    args = typing.get_args(annotation)
    if origin is typing.Union:
        nullable, inner = _split_optional(annotation)
        if nullable:
            return _nullable(_annotation_schema(inner, refs))
        return {"anyOf": [_annotation_schema(arg, refs) for arg in args]}
    if origin in (list, tuple):
        items = _annotation_schema(args[0], refs) if args else {}
        return {"type": "array", "items": items} if items else {"type": "array"}
    if origin is dict:
        return {"type": "object"}
    scalar = {bool: "boolean", int: "integer", float: "number", str: "string"}
    if annotation in scalar:
        return {"type": scalar[annotation]}
    if annotation in (dict, list):
        return {"type": "object" if annotation is dict else "array"}
    # Unknown/exotic annotations stay unconstrained rather than guessed.
    return {}
