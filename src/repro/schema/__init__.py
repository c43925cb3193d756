"""Published scenario-pack interface: generated JSON Schema + validation.

The scenario-pack format (:mod:`repro.scenarios.schema`) and the plugin
registry (:mod:`repro.plugins.registry`) are the project's public surface.
This package pins that surface as a machine-readable contract and is the
one place it is enforced:

* every pack field is declared once with :func:`schema_field` metadata;
  :func:`build_schema` generates the versioned JSON Schema (draft 2020-12)
  from those declarations, with plugin-name enums pulled live from the
  registry, so the schema can never silently drift from the implementation;
* the document is committed at ``docs/schema/scenario-pack.schema.json``;
  ``repro schema check`` (run in CI) regenerates and diffs it;
* :func:`validate_instance` is a dependency-free validator for the subset
  of JSON Schema the generator emits, reporting every violation with an
  RFC 6901 JSON-pointer path; every loader validates through it
  (:func:`load_section`) and words the first violation with
  :func:`configuration_error`;
* :func:`sample_pack` draws random schema-conforming packs (used by the
  Hypothesis round-trip property tests).
"""

from repro.schema.fields import load_section, schema_field
from repro.schema.generator import (
    SCHEMA_VERSION,
    build_schema,
    current_schema,
    dataclass_schema,
    schema_json,
    schema_path,
)
from repro.schema.sampler import sample_pack
from repro.schema.validator import (
    SchemaError,
    configuration_error,
    validate_instance,
    validate_pack_dict,
)

__all__ = [
    "SCHEMA_VERSION",
    "build_schema",
    "current_schema",
    "schema_json",
    "schema_path",
    "dataclass_schema",
    "SchemaError",
    "validate_instance",
    "validate_pack_dict",
    "configuration_error",
    "schema_field",
    "load_section",
    "sample_pack",
]
