#!/usr/bin/env python
"""Generate the scenario docs from the bundled packs and the pack schema.

Two pages are *data-derived documentation*:

* docs/scenarios/cookbook.md -- each bundled pack renders as a section with
  its prose, its shape (grid/workload/mode), how to run it, and its
  canonical JSON definition;
* docs/scenarios/schema.md -- a hand-written page whose per-section field
  tables (type, default, meaning) are rendered from the generated JSON
  Schema, between BEGIN/END generated-section markers, so the reference
  cannot drift from the field declarations.

The committed pages must always match; ``--check`` mode (used by CI and
tests/test_docs.py) exits non-zero with a regeneration hint when they do
not.

Usage::

    python scripts/gen_scenario_docs.py          # rewrite the pages
    python scripts/gen_scenario_docs.py --check  # verify they are in sync
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

OUTPUT = REPO_ROOT / "docs" / "scenarios" / "cookbook.md"
SCHEMA_PAGE = REPO_ROOT / "docs" / "scenarios" / "schema.md"

#: Schema definition -> the schema page heading documenting it ("pack" is
#: the document root).
TABLES = {
    "pack": "Top level",
    "grid": "grid",
    "workload": "workload",
    "workload_spec": "workload.spec",
    "execution": "execution",
    "monitoring": "execution.monitoring",
    "output": "execution.output",
    "stop": "execution.stop",
    "faults": "faults",
    "data": "data",
    "cache": "data.cache",
    "calibration": "calibration",
    "sweep": "sweep",
}

_TYPE_NAMES = {"object": "mapping", "array": "list", "integer": "int", "boolean": "bool"}
_BOUND_SIGNS = {"minimum": "≥", "exclusiveMinimum": ">", "maximum": "≤"}

HEADER = """\
# Scenario cookbook

<!-- GENERATED FILE - do not edit by hand.
     Regenerate with: python scripts/gen_scenario_docs.py -->

Every pack below ships with the package and reproduces one of the paper's
studies. Run any of them as-is, shrink it with `--set` overrides, or copy its
JSON as the starting point for your own study (the
[schema reference](schema.md) documents every field).

```bash
repro scenario list                 # the catalogue below, as a table
repro scenario show <name>          # a pack's canonical JSON
repro scenario run <name>           # run it (parallel when it sweeps)
```
"""


def _describe_workload(pack) -> str:
    workload = pack.workload
    if workload.trace is not None:
        return f"trace replay of `{workload.trace}`"
    if workload.per_site_jobs is not None:
        shape = f"{workload.per_site_jobs} jobs per site"
    else:
        shape = f"{workload.jobs} jobs"
    return f"{workload.generator}, {shape} (seed {workload.seed})"


def _describe_grid(pack) -> str:
    grid = pack.grid
    if grid.kind == "files":
        return f"from files `{grid.infrastructure}` + `{grid.topology}`"
    if grid.kind == "wlcg":
        return f"WLCG catalogue, {grid.sites} sites"
    return f"synthetic, {grid.sites} sites ({grid.layout} layout, seed {grid.seed})"


def _describe_mode(pack) -> str:
    if pack.calibration is not None:
        cal = pack.calibration
        return (
            f"calibration study ({cal.optimizer} optimizer, "
            f"budget {cal.budget}/site, {cal.mode} mode)"
        )
    if pack.sweep is not None:
        sweep = pack.sweep
        runs = len(sweep.combinations()) * sweep.replications
        return (
            f"sweep: {runs} runs "
            f"({len(sweep.combinations())} combinations x "
            f"{sweep.replications} replication(s))"
        )
    return "single simulation run"


def render_cookbook() -> str:
    """The full cookbook page as a string (deterministic for the pack set)."""
    from repro.scenarios.registry import ScenarioRegistry

    registry = ScenarioRegistry(entry_points=False, search_env=False)
    sections = [HEADER]
    for pack in registry.packs():
        lines = [f"## {pack.name}", ""]
        if pack.title:
            lines += [f"**{pack.title}**", ""]
        if pack.description:
            lines += [pack.description, ""]
        lines += [
            f"- **mode:** {_describe_mode(pack)}",
            f"- **grid:** {_describe_grid(pack)}",
            f"- **workload:** {_describe_workload(pack)}",
        ]
        if pack.faults is not None:
            parts = []
            if pack.faults.job_failures is not None:
                parts.append("job failures")
            if pack.faults.outages:
                parts.append(f"{len(pack.faults.outages)} explicit outage window(s)")
            if pack.faults.outage_model is not None:
                parts.append("MTBF/MTTR outage schedule")
            lines.append(f"- **faults:** {', '.join(parts)}")
        if pack.data is not None:
            data = pack.data
            detail = (
                f"{data.datasets} datasets x "
                f"{data.dataset_size / 1e9:.0f} GB, "
                f"{data.replication_factor} replicas"
            )
            if data.assignment != "round_robin":
                detail += f", {data.assignment} assignment (s={data.zipf_exponent:g})"
            lines.append(f"- **data:** {detail}")
            if data.cache is not None:
                cache = data.cache
                capacity = (
                    "unbounded"
                    if cache.capacity is None
                    else f"{cache.capacity / 1e9:.0f} GB/site"
                )
                warm = ", prewarmed" if cache.prewarm else ""
                lines.append(
                    f"- **cache:** {capacity}, {cache.policy} eviction, "
                    f"{cache.replication} replica placement{warm}"
                )
        if pack.sweep is not None:
            for path, values in pack.sweep.axes.items():
                rendered = ", ".join(str(v) for v in values)
                lines.append(f"- **axis** `{path}`: {rendered}")
            lines.append(f"- **reported metrics:** {', '.join(pack.sweep.metrics)}")
        if pack.tags:
            lines.append(f"- **tags:** {', '.join(pack.tags)}")
        lines += [
            "",
            "```bash",
            f"repro scenario run {pack.name}",
            "```",
            "",
            "<details><summary>Definition (canonical JSON)</summary>",
            "",
            "```json",
            pack.to_json(),
            "```",
            "",
            "</details>",
            "",
        ]
        sections.append("\n".join(lines))
    return "\n".join(sections)


def _begin(name: str) -> str:
    return (
        f"<!-- BEGIN GENERATED FILE SECTION: fields-{name} - do not edit\n"
        "     by hand. Regenerate with: python scripts/gen_scenario_docs.py -->"
    )


def _end(name: str) -> str:
    return f"<!-- END GENERATED FILE SECTION: fields-{name} -->"


def _link(ref: str) -> str:
    heading = TABLES[ref.rsplit("/", 1)[-1]]
    return f"[{heading}](#{heading.replace('.', '')})"


def _type_text(prop: dict) -> str:
    """Compact Markdown rendering of what a property schema accepts."""
    if "anyOf" in prop:
        return " \\| ".join(_type_text(branch) for branch in prop["anyOf"])
    if "$ref" in prop:
        return f"mapping ({_link(prop['$ref'])})"
    if "enum" in prop:
        return " \\| ".join(f"`{value}`" for value in prop["enum"])
    if "pattern" in prop:
        comment = prop.get("$comment", "")
        if "parse_duration" in comment:
            return "duration string"
        if "parse_bytes" in comment:
            return "byte-size string"
        return "`module:Class`"
    types = prop.get("type", "any")
    text = " \\| ".join(_TYPE_NAMES.get(t, t) for t in (types if isinstance(types, list) else [types]))
    if text == "list" and "items" in prop:
        text += f" of {_type_text(prop['items'])}s"
    bounds = ", ".join(f"{sign} {prop[key]:g}" for key, sign in _BOUND_SIGNS.items() if key in prop)
    return f"{text} {bounds}" if bounds else text


def _meaning(prop: dict, defs: dict) -> str:
    """The property description, else that of the object it refers to."""
    for node in (prop, *prop.get("anyOf", ())):
        if "$ref" in node:
            node = defs[node["$ref"].rsplit("/", 1)[-1]]
        if node.get("description"):
            return node["description"].replace("|", "\\|")
    return ""


def _field_table(schema: dict, defs: dict, prefix: str) -> list:
    """A field table for ``schema``, then one per inline sub-object."""
    required = set(schema.get("required", ()))
    lines = ["| field | type | default | meaning |", "|---|---|---|---|"]
    nested = []
    for name, prop in schema["properties"].items():
        if name in required:
            default = "*(required)*"
        elif "default" in prop:
            default = f"`{json.dumps(prop['default'])}`"
        else:
            default = "—"
        lines.append(f"| `{name}` | {_type_text(prop)} | {default} | {_meaning(prop, defs)} |")
        for node in (prop, *prop.get("anyOf", ())):
            if "properties" in node:
                nested.append((f"Fields of `{prefix}{name}`:", f"{prefix}{name}.", node))
        if "properties" in prop.get("items", {}):
            nested.append((f"Fields of each `{prefix}{name}` entry:", f"{prefix}{name}[].",
                           prop["items"]))
    for title, path, node in nested:
        lines += ["", title, ""] + _field_table(node, defs, path)
    return lines


def render_schema_page(current: str) -> str:
    """``current`` with every field-table block regenerated from the schema."""
    from repro.schema import build_schema

    schema = build_schema()
    defs = schema["$defs"]
    for name, heading in TABLES.items():
        begin, end = current.find(_begin(name)), current.find(_end(name))
        if begin == -1 or end == -1 or end < begin:
            raise SystemExit(
                f"{SCHEMA_PAGE} is missing the fields-{name} markers; restore the "
                "BEGIN/END GENERATED FILE SECTION comments"
            )
        node = schema if name == "pack" else defs[name]
        prefix = "" if name == "pack" else f"{heading}."
        table = "\n".join(_field_table(node, defs, prefix))
        current = current[:begin] + _begin(name) + "\n\n" + table + "\n\n" + current[end:]
    return current


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--check", action="store_true",
                        help="exit 1 if the committed page is out of sync")
    args = parser.parse_args(argv)

    pages = [(OUTPUT, render_cookbook())]
    if SCHEMA_PAGE.exists():
        current = SCHEMA_PAGE.read_text(encoding="utf-8")
        pages.append((SCHEMA_PAGE, render_schema_page(current)))
    stale = []
    for path, rendered in pages:
        current = path.read_text(encoding="utf-8") if path.exists() else ""
        if current == rendered:
            continue
        stale.append(path)
        if not args.check:
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(rendered, encoding="utf-8")
            print(f"wrote {path} ({len(rendered.splitlines())} lines)")
    if args.check:
        for path in stale:
            print(
                f"{path} is out of sync with the bundled packs and the pack "
                "schema; regenerate with: python scripts/gen_scenario_docs.py",
                file=sys.stderr,
            )
        if stale:
            return 1
        for path, rendered in pages:
            print(f"{path} is in sync ({len(rendered.splitlines())} lines)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
