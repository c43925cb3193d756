"""Declare each scenario-pack field once; load sections through the schema.

A pack field is an ordinary dataclass field whose ``metadata`` comes from
:func:`schema_field`: its description and constraints (bounds, enum, plugin
family, quantity kind, or a literal schema fragment).  From those
declarations :mod:`repro.schema.generator` writes the published JSON Schema,
and :func:`load_section` is the single loading path every section shares:

1. validate the mapping against the section's ``$defs`` entry
   (:mod:`repro.schema.validator`), turning violations into one
   :class:`~repro.utils.errors.ConfigurationError` via
   :func:`~repro.schema.validator.configuration_error`;
2. construct the dataclass generically (:func:`build`): nested sections
   recursively, quantities parsed;
3. run the section's ``eager_checks()`` -- the checks a schema cannot
   express, such as model constructors and plugin resolution.
"""

from __future__ import annotations

import copy
import dataclasses
import functools
import typing
from typing import Any, Callable, Dict, Optional, Sequence, Tuple

from repro.schema.generator import pack_definitions, type_hints
from repro.schema.validator import (
    SchemaError,
    configuration_error,
    validate_instance,
    validate_pack_dict,
)
from repro.utils.jsonpointer import join_pointer
from repro.utils.units import parse_bytes, parse_duration

__all__ = ["schema_field", "load_section", "build", "run_check"]

_PARSERS = {"duration": parse_duration, "bytes": parse_bytes}

#: Annotations whose integer values are stored as floats.
_FLOATS = (float, Optional[float])


def schema_field(
    default: Any = dataclasses.MISSING,
    description: str = "",
    *,
    factory: Any = dataclasses.MISSING,
    minimum: Optional[float] = None,
    exclusive_minimum: Optional[float] = None,
    maximum: Optional[float] = None,
    min_length: Optional[int] = None,
    enum: Optional[Sequence[Any]] = None,
    plugin: Optional[str] = None,
    quantity: Optional[str] = None,
    schema: Optional[Dict[str, Any]] = None,
    show_default: Optional[bool] = None,
) -> Any:
    """A dataclass field carrying its scenario-pack schema declaration.

    ``default``/``factory`` are the dataclass default (omit both for a
    required field).  ``minimum``/``exclusive_minimum``/``maximum`` bound
    numbers (for a ``quantity`` field, the plain-number form); ``min_length``
    bounds strings.  ``enum`` lists the allowed values; ``plugin`` names the
    plugin family whose registered names (or a ``module:Class`` reference)
    the field accepts; ``quantity`` (``"duration"`` or ``"bytes"``) also
    admits unit strings such as ``"4h"``/``"50GB"``, parsed on load.
    ``schema`` replaces the annotation-derived type with a literal fragment
    for shapes a dataclass cannot express.  Nullability follows the
    ``Optional`` annotation.  ``show_default`` overrides whether the default
    is documented (by default: unless it is ``None``).
    """
    bounds = {"minimum": minimum, "exclusiveMinimum": exclusive_minimum,
              "maximum": maximum, "minLength": min_length}
    extras = {"enum": enum, "plugin": plugin, "quantity": quantity, "schema": schema,
              "show_default": show_default}
    metadata = {"description": description,
                "bounds": {key: value for key, value in bounds.items() if value is not None},
                **{key: value for key, value in extras.items() if value is not None}}
    if factory is not dataclasses.MISSING:
        return dataclasses.field(default_factory=factory, metadata=metadata)
    return dataclasses.field(default=default, metadata=metadata)


def load_section(cls: type, data: Any, label: str) -> Any:
    """Validate ``data`` against ``cls``'s schema definition, then :func:`build` it.

    ``label`` prefixes error messages (``"scenario pack 'p': grid"``);
    pointers in them are relative to ``data``.
    """
    name = next(name for name, section in pack_definitions().items() if section is cls)
    errors = validate_pack_dict(data, ref=f"#/$defs/{name}")
    if errors:
        raise configuration_error(errors, label)
    return build(cls, data, label)


def run_check(label: str, pointer: str, check: Callable[[], Any]) -> Any:
    """Run an eager-only ``check``; any failure becomes a pointed ConfigurationError."""
    try:
        return check()
    except Exception as exc:
        raise configuration_error([SchemaError(pointer, str(exc))], label) from exc


def build(cls: type, data: Dict[str, Any], label: str, pointer: str = "") -> Any:
    """Construct ``cls`` from an already-validated mapping, then run its eager checks.

    Nested section mappings become their dataclasses, quantities are parsed
    to floats (and re-checked against the declared bounds, which the schema
    applies to plain numbers only), integers given for ``float`` fields
    become floats, and containers are copied so the result never aliases
    ``data``.  Then every ``(pointer tokens, check)`` pair the object's
    ``eager_checks()`` yields runs through :func:`run_check`.
    """
    kwargs: Dict[str, Any] = {}
    for name, section, quantity, bounds, is_float in _plan(cls):
        if name not in data:
            continue
        value, at = data[name], pointer + join_pointer([name])
        if section is not None and isinstance(value, dict):
            value = build(section, value, label, at)
        elif quantity is not None and value is not None:
            value = run_check(label, at, functools.partial(_PARSERS[quantity], value))
            errors = validate_instance(value, bounds)
            if errors:
                raise configuration_error([dataclasses.replace(errors[0], pointer=at)], label)
        elif isinstance(value, (dict, list)):
            value = copy.deepcopy(value)
        elif is_float and isinstance(value, int) and not isinstance(value, bool):
            value = float(value)
        kwargs[name] = value
    obj = run_check(label, pointer, lambda: cls(**kwargs))
    for tokens, check in getattr(obj, "eager_checks", tuple)():
        run_check(label, pointer + join_pointer(tokens), check)
    return obj


@functools.lru_cache(maxsize=None)
def _plan(cls: type) -> Tuple[Tuple[str, Optional[type], Optional[str], Dict[str, Any], bool], ...]:
    """Per field of ``cls``: name, section dataclass, quantity kind, bounds, float-ness."""
    hints = type_hints(cls)
    sections = set(pack_definitions().values())
    plan = []
    for f in dataclasses.fields(cls):
        annotation = hints[f.name]
        section = next((c for c in (annotation, *typing.get_args(annotation)) if c in sections), None)
        bounds = {"type": "number", **f.metadata.get("bounds", {})}
        plan.append((f.name, section, f.metadata.get("quantity"), bounds, annotation in _FLOATS))
    return tuple(plan)
