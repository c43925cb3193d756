"""Dependency-free validator for the generated scenario-pack JSON Schema.

The container ships no ``jsonschema`` package, so the project validates
against its own schema with this module: a deliberate *subset* of JSON
Schema draft 2020-12 covering exactly the keywords
:func:`repro.schema.generator.build_schema` emits (``type``, ``enum``,
``const``, ``properties``/``required``/``additionalProperties``/
``propertyNames``, ``items``, numeric and string bounds, ``anyOf``/
``allOf``/``not``, ``if``/``then``/``else`` and internal ``$ref``).  An
unknown constraint keyword raises instead of being silently ignored, so the
generator cannot outgrow the validator unnoticed.

It is the only structural validator of scenario packs: ``repro schema
validate``, the session service and every ``from_dict`` loader
(:func:`repro.schema.fields.load_section`) go through it.  Every violation
is reported as a :class:`SchemaError` carrying the RFC 6901 JSON pointer of
the offending value and the violated keyword; :func:`configuration_error`
words the first one as the :class:`~repro.utils.errors.ConfigurationError`
the loaders raise, ending in the same ``(at /workload/jobs)`` pointer.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Optional

from repro.utils.errors import ConfigurationError
from repro.utils.jsonpointer import escape_token, split_pointer

__all__ = ["SchemaError", "validate_instance", "validate_pack_dict", "configuration_error"]

#: Constraint keywords this validator understands.  ``$ref`` resolution and
#: annotation keywords (title/description/default/...) are handled separately.
_SUPPORTED = {
    "type", "enum", "const", "pattern", "minLength", "maxLength",
    "minimum", "maximum", "exclusiveMinimum", "exclusiveMaximum",
    "multipleOf", "properties", "required", "additionalProperties",
    "patternProperties", "propertyNames", "minProperties", "maxProperties",
    "dependentRequired", "items", "minItems", "maxItems", "uniqueItems",
    "anyOf", "allOf", "oneOf", "not", "if", "then", "else",
}

#: Annotation-only keywords (ignored for validation).
_ANNOTATIONS = {
    "$schema", "$id", "$defs", "$comment", "title", "description",
    "default", "version", "examples", "deprecated",
}

_KNOWN = frozenset(_SUPPORTED | _ANNOTATIONS | {"$ref"})


@dataclass(frozen=True)
class SchemaError:
    """One schema violation: a JSON pointer plus a human-readable message.

    ``pointer`` addresses the offending value inside the validated instance
    (RFC 6901, ``""`` for the document root); ``message`` explains the
    violated constraint.  ``str()`` renders the canonical ``message (at
    /pointer)`` form.  The remaining fields feed :func:`configuration_error`:
    the violated ``keyword``, the offending ``value``, the schema node that
    declared the keyword and, for violations of a cross-field rule or a
    commented constraint, the ``rule`` message (its ``$comment``).
    """

    pointer: str
    message: str
    keyword: str = field(default="", compare=False)
    value: Any = field(default=None, compare=False, repr=False)
    schema: Any = field(default=None, compare=False, repr=False)
    rule: str = field(default="", compare=False)

    def __str__(self) -> str:
        return f"{self.message} (at {self.pointer or '/'})"


def _type_name(value: Any) -> str:
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "boolean"
    if isinstance(value, int):
        return "integer"
    if isinstance(value, float):
        return "number"
    if isinstance(value, str):
        return "string"
    if isinstance(value, list):
        return "array"
    if isinstance(value, dict):
        return "object"
    return type(value).__name__


def _matches_type(value: Any, expected: str) -> bool:
    if expected == "number":
        return isinstance(value, (int, float)) and not isinstance(value, bool)
    if expected == "integer":
        return isinstance(value, int) and not isinstance(value, bool)
    return _type_name(value) == expected


def _resolve_ref(ref: str, root: Dict[str, Any]) -> Dict[str, Any]:
    if not ref.startswith("#/"):
        raise ConfigurationError(f"unsupported external $ref {ref!r}")
    node: Any = root
    for token in ref[2:].split("/"):
        token = token.replace("~1", "/").replace("~0", "~")
        if not isinstance(node, dict) or token not in node:
            raise ConfigurationError(f"unresolvable $ref {ref!r}")
        node = node[token]
    return node


def _comment(schema: Dict[str, Any], fallback: str) -> str:
    """Prefer the schema's ``$comment`` as the violation message when present."""
    return schema.get("$comment", fallback)


def _validate(value: Any, schema: Any, root: Dict[str, Any], pointer: str,
              errors: List[SchemaError]) -> None:
    if schema is True or schema == {}:
        return
    if schema is False:
        errors.append(SchemaError(pointer, "value is not allowed here", "false", value, schema))
        return
    if not isinstance(schema, dict):
        raise ConfigurationError(f"invalid schema node at {pointer or '/'}: {schema!r}")

    if not _KNOWN.issuperset(schema):
        raise ConfigurationError(
            f"schema uses unsupported keywords {sorted(set(schema) - _KNOWN)} "
            f"(at {pointer or '/'})"
        )

    def fail(keyword: str, message: str, rule: str = "") -> None:
        errors.append(SchemaError(pointer, message, keyword, value, schema, rule))

    if "$ref" in schema:
        _validate(value, _resolve_ref(schema["$ref"], root), root, pointer, errors)

    if "type" in schema:
        expected = schema["type"]
        options = expected if isinstance(expected, list) else [expected]
        if not any(_matches_type(value, option) for option in options):
            fail("type", f"expected {' or '.join(options)}, got {_type_name(value)}")
            return  # further constraints assume the right type
    if "enum" in schema and value not in schema["enum"]:
        fail("enum", f"{value!r} is not one of {schema['enum']}")
    if "const" in schema and value != schema["const"]:
        fail("const", f"expected {schema['const']!r}, got {value!r}")

    if isinstance(value, str):
        if "pattern" in schema and not re.search(schema["pattern"], value):
            fail("pattern", _comment(schema, f"{value!r} does not match {schema['pattern']!r}"),
                 schema.get("$comment", ""))
        if "minLength" in schema and len(value) < schema["minLength"]:
            fail("minLength", f"string shorter than {schema['minLength']} characters")
        if "maxLength" in schema and len(value) > schema["maxLength"]:
            fail("maxLength", f"string longer than {schema['maxLength']} characters")

    if isinstance(value, (int, float)) and not isinstance(value, bool):
        if "minimum" in schema and value < schema["minimum"]:
            fail("minimum", f"{value!r} is less than minimum {schema['minimum']}")
        if "maximum" in schema and value > schema["maximum"]:
            fail("maximum", f"{value!r} is greater than maximum {schema['maximum']}")
        if "exclusiveMinimum" in schema and value <= schema["exclusiveMinimum"]:
            fail("exclusiveMinimum", f"{value!r} must be greater than {schema['exclusiveMinimum']}")
        if "exclusiveMaximum" in schema and value >= schema["exclusiveMaximum"]:
            fail("exclusiveMaximum", f"{value!r} must be less than {schema['exclusiveMaximum']}")
        if "multipleOf" in schema and value % schema["multipleOf"] != 0:
            fail("multipleOf", f"{value!r} is not a multiple of {schema['multipleOf']}")

    if isinstance(value, dict):
        _validate_object(value, schema, root, pointer, errors)
    if isinstance(value, list):
        _validate_array(value, schema, root, pointer, errors)

    for keyword in ("anyOf", "oneOf"):
        if keyword in schema:
            matches, branch_errors = 0, []
            for branch in schema[keyword]:
                candidate: List[SchemaError] = []
                _validate(value, branch, root, pointer, candidate)
                if not candidate:
                    matches += 1
                    if keyword == "anyOf":
                        break
                else:
                    branch_errors.append(candidate)
            if matches == 0:
                errors.extend(_best_branch(pointer, branch_errors, value, schema))
            elif keyword == "oneOf" and matches > 1:
                fail("oneOf", f"matches {matches} oneOf branches, expected 1")
    if "allOf" in schema:
        for branch in schema["allOf"]:
            _validate(value, branch, root, pointer, errors)
    if "not" in schema:
        candidate = []
        _validate(value, schema["not"], root, pointer, candidate)
        if not candidate:
            message = _comment(schema, _comment(schema["not"], "matches a forbidden form"))
            fail("not", message, message)
    if "if" in schema:
        candidate = []
        _validate(value, schema["if"], root, pointer, candidate)
        branch = schema.get("then") if not candidate else schema.get("else")
        if branch is not None:
            before = len(errors)
            _validate(value, branch, root, pointer, errors)
            comment = _comment(branch, "") if isinstance(branch, dict) else ""
            if comment and len(errors) > before:
                errors[before:] = [
                    replace(err, message=f"{err.message} ({comment})", rule=comment)
                    for err in errors[before:]
                ]


def _validate_object(value: Dict[str, Any], schema: Dict[str, Any], root: Dict[str, Any],
                     pointer: str, errors: List[SchemaError]) -> None:
    properties = schema.get("properties", {})
    pattern_properties = schema.get("patternProperties", {})
    for name in schema.get("required", []):
        if name not in value:
            errors.append(SchemaError(
                pointer + "/" + escape_token(name), f"required field {name!r} is missing",
                "required", value, schema))
    for name, required in schema.get("dependentRequired", {}).items():
        if name in value:
            for other in required:
                if other not in value:
                    errors.append(SchemaError(
                        pointer + "/" + escape_token(other),
                        f"field {other!r} is required when {name!r} is present",
                        "dependentRequired", value, schema))
    if "minProperties" in schema and len(value) < schema["minProperties"]:
        errors.append(SchemaError(
            pointer, _comment(schema, f"object needs at least {schema['minProperties']} entries"),
            "minProperties", value, schema, schema.get("$comment", "")))
    if "maxProperties" in schema and len(value) > schema["maxProperties"]:
        errors.append(SchemaError(
            pointer, f"object allows at most {schema['maxProperties']} entries",
            "maxProperties", value, schema))
    # Rule subschemas (if/then/not) name a few properties: skip the others.
    generic = "propertyNames" in schema or pattern_properties or (
        schema.get("additionalProperties", True) is not True)
    for name, item in value.items():
        if not generic and name not in properties:
            continue
        child = pointer + "/" + escape_token(name)
        if "propertyNames" in schema:
            name_errors: List[SchemaError] = []
            _validate(name, schema["propertyNames"], root, child, name_errors)
            if name_errors:
                names = schema["propertyNames"]
                errors.append(SchemaError(
                    child, _comment(names, f"invalid property name {name!r}"),
                    "propertyNames", name, names, names.get("$comment", "")))
        matched = False
        if name in properties:
            matched = True
            _validate(item, properties[name], root, child, errors)
        for pattern, subschema in pattern_properties.items():
            if re.search(pattern, name):
                matched = True
                _validate(item, subschema, root, child, errors)
        if not matched:
            additional = schema.get("additionalProperties", True)
            if additional is False:
                known = sorted(properties)
                errors.append(SchemaError(
                    child, f"unknown field {name!r}; known fields: {known}",
                    "additionalProperties", item, schema))
            elif additional is not True:
                _validate(item, additional, root, child, errors)


def _validate_array(value: List[Any], schema: Dict[str, Any], root: Dict[str, Any],
                    pointer: str, errors: List[SchemaError]) -> None:
    def fail(keyword: str, message: str) -> None:
        errors.append(SchemaError(pointer, message, keyword, value, schema))

    if "minItems" in schema and len(value) < schema["minItems"]:
        fail("minItems", f"array needs at least {schema['minItems']} items")
    if "maxItems" in schema and len(value) > schema["maxItems"]:
        fail("maxItems", f"array allows at most {schema['maxItems']} items")
    if schema.get("uniqueItems") and any(
        value[i] == value[j] for i in range(len(value)) for j in range(i + 1, len(value))
    ):
        fail("uniqueItems", "array items must be unique")
    if "items" in schema:
        for index, item in enumerate(value):
            _validate(item, schema["items"], root, f"{pointer}/{index}", errors)


def _best_branch(pointer: str, branch_errors: List[List[SchemaError]], value: Any,
                 schema: Dict[str, Any]) -> List[SchemaError]:
    """Errors of the anyOf branch that matched deepest (fewest, then deepest).

    Reporting every branch's failures for a simple type mismatch buries the
    signal; the branch whose errors sit deepest in the instance is the one
    the author most plausibly intended.
    """
    if not branch_errors:
        return [SchemaError(pointer, "matches no allowed form", "anyOf", value, schema)]
    def depth(errs: List[SchemaError]) -> int:
        return max(err.pointer.count("/") for err in errs)
    best = max(branch_errors, key=lambda errs: (depth(errs), -len(errs)))
    if len(branch_errors) > 1 and depth(best) == pointer.count("/"):
        # No branch got past the top level: summarise instead of listing
        # one arbitrary branch's type complaint.
        summaries = sorted({err.message for errs in branch_errors for err in errs})
        return [SchemaError(pointer, "matches no allowed form: " + "; ".join(summaries),
                            "anyOf", value, schema)]
    return best


def validate_instance(instance: Any, schema: Dict[str, Any]) -> List[SchemaError]:
    """Validate ``instance`` against ``schema``; return every violation found.

    Returns an empty list when the instance conforms.  Violations carry
    JSON-pointer paths into the instance; the list is ordered
    document-first.  Raises :class:`~repro.utils.errors.ConfigurationError`
    if the schema itself uses a keyword outside the supported subset.
    """
    errors: List[SchemaError] = []
    _validate(instance, schema, schema, "", errors)
    return errors


def validate_pack_dict(data: Any, schema: Optional[Dict[str, Any]] = None,
                       ref: str = "#") -> List[SchemaError]:
    """Validate a parsed scenario-pack mapping against the generated schema.

    ``schema`` defaults to the per-process
    :func:`~repro.schema.generator.current_schema`; ``ref`` selects the node
    to validate against (``"#/$defs/cache"`` checks a bare cache section).
    Returns the :class:`SchemaError` list, empty when ``data`` conforms.
    """
    if schema is None:
        from repro.schema.generator import current_schema

        schema = current_schema()
    errors: List[SchemaError] = []
    _validate(data, {"$ref": ref} if ref != "#" else schema, schema, "", errors)
    return errors


#: Noun phrases of the JSON types, for "must be ..." messages.
_NOUNS = {
    "object": "an object", "array": "an array", "string": "a string",
    "integer": "an integer", "number": "a number", "boolean": "a boolean", "null": "null",
}

#: Numeric bound keywords and the comparison they demand.
_BOUNDS = {"minimum": ">=", "exclusiveMinimum": ">", "maximum": "<=", "exclusiveMaximum": "<"}


def _describe(schema: Dict[str, Any]) -> str:
    """What ``schema`` accepts, as a noun phrase (``an integer >= 1 or null``)."""
    if "anyOf" in schema:
        return " or ".join(_describe(branch) for branch in schema["anyOf"])
    if "enum" in schema:
        phrase = "one of " + "|".join(str(option) for option in schema["enum"])
    elif "$ref" in schema:
        phrase = "an object"
    else:
        types = schema.get("type", [])
        phrase = " or ".join(_NOUNS.get(t, t) for t in (types if isinstance(types, list) else [types]))
        phrase += "".join(f" {op} {schema[kw]}" for kw, op in _BOUNDS.items() if kw in schema)
    comment = schema.get("$comment")
    return f"{phrase} ({comment})" if comment else phrase


def _subject(label: str, tokens: List[str]) -> str:
    """``label: field: sub[0]`` -- the human path of a pointer under ``label``."""
    return label + "".join(f"[{t}]" if t.isdigit() else f": {t}" for t in tokens)


def configuration_error(errors: List[SchemaError], label: str) -> ConfigurationError:
    """Word the first violation as one :class:`ConfigurationError`.

    The message names ``label`` and the offending field, is keyed on the
    violated keyword (``jobs must be >= 1, got 0``, ``unknown fields [...]``,
    ``outage_model requires 'horizon'``; a cross-field rule's own message
    when one was violated) and ends with the schema's ``(at /json/pointer)``.
    """
    error = errors[0]
    tokens = split_pointer(error.pointer)
    subject = _subject(label, tokens)
    if error.rule:
        text = f"{subject}: {error.rule}"
    elif error.keyword == "required":
        text = f"{_subject(label, tokens[:-1])} requires {tokens[-1]!r}"
    elif error.keyword == "additionalProperties":
        parent = error.pointer.rsplit("/", 1)[0]
        unknown = sorted(
            split_pointer(e.pointer)[-1] for e in errors
            if e.keyword == "additionalProperties" and e.pointer.rsplit("/", 1)[0] == parent
        )
        known = sorted(error.schema.get("properties", {}))
        text = f"{_subject(label, tokens[:-1])}: unknown fields {unknown}; known fields: {known}"
    elif error.keyword in _BOUNDS:
        bound = f"{_BOUNDS[error.keyword]} {error.schema[error.keyword]}"
        text = f"{subject} must be {bound}, got {error.value!r}"
    elif error.keyword in ("type", "enum", "anyOf"):
        node = {"type": error.schema["type"]} if error.keyword == "type" else error.schema
        text = f"{subject} must be {_describe(node)}, got {error.value!r}"
    else:
        text = f"{subject}: {error.message}"
    return ConfigurationError(f"{text} (at {error.pointer or '/'})")
