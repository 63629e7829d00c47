"""One CLI for the whole evaluation: ``python -m repro.experiments``.

* ``list`` — every registered experiment (id, tags, one-line summary).
* ``describe <id>`` — the typed parameter schema: kind, default, bounds,
  choices, whether the experiment accepts a manifest ``engine`` block.
* ``run <manifest.json> [--out DIR]`` — validate, expand and execute a
  manifest; print each reproduced table and, with ``--out``, write JSON +
  CSV artifacts plus a ``summary.json`` index.

Invalid manifests fail with an actionable message and exit code 2 — the
schema lives in ``repro/experiments/spec.py`` and the manifest format in
``repro/experiments/runner.py``.
"""

from __future__ import annotations

import argparse
import sys

from .runner import ENGINE_FIELDS, ManifestError, load_manifest, manifest_hash, run_manifest
from .spec import SpecValidationError, get_spec, list_specs


def _cmd_list() -> int:
    specs = list_specs()
    width = max(len(spec.experiment_id) for spec in specs)
    tag_width = max(len(",".join(spec.tags)) for spec in specs)
    for spec in specs:
        tags = ",".join(spec.tags)
        print(f"{spec.experiment_id:<{width}}  {tags:<{tag_width}}  {spec.summary}")
    return 0


def _cmd_describe(experiment_id: str) -> int:
    try:
        spec = get_spec(experiment_id)
    except KeyError as error:
        print(error.args[0], file=sys.stderr)
        return 2
    print(f"{spec.experiment_id} — {spec.summary}")
    if spec.tags:
        print(f"  tags: {', '.join(spec.tags)}")
    doc = (spec.fn.__doc__ or "").strip()
    if doc:
        print(f"  {doc.splitlines()[0]}")
    print("  parameters:")
    for param in spec.params:
        default = "null" if param.default is None else param.default
        line = f"    {param.name}: {param.describe()} (default {default})"
        if param.doc:
            line += f" — {param.doc}"
        print(line)
    if spec.engine_param is not None:
        reserved = ", ".join(spec.engine_reserved) or "none"
        # What is left once the experiment's own fields and the ones its
        # parameters shadow (the manifest loader rejects both) are taken out.
        owned = {*spec.engine_reserved, *spec.param_names()}
        settable = ", ".join(name for name in ENGINE_FIELDS if name not in owned) or "none"
        print(
            "  engine block: accepted (a partial EngineConfig JSON object; "
            f"settable fields: {settable}; reserved fields: {reserved})"
        )
    return 0


def _cmd_run(manifest_path: str, out_dir: str | None) -> int:
    try:
        manifest = load_manifest(manifest_path)
    except (ManifestError, SpecValidationError) as error:
        print(f"invalid manifest: {error}", file=sys.stderr)
        return 2
    try:
        runs = run_manifest(manifest, out_dir=out_dir, echo=lambda line: print(line, flush=True))
    except ValueError as error:
        # Constraints only an experiment can check (e.g. an engine block's
        # session_length contradicting the generated dataset) surface here.
        print(f"manifest run failed: {error}", file=sys.stderr)
        return 2
    for run in runs:
        print()
        print(run.result.format_table())
        if run.result.paper_reference:
            print(f"  {run.result.paper_reference}")
        print(
            f"  run: {run.planned.run_name}  seed: {run.provenance['seed']}  "
            f"wall-time: {run.provenance['wall_time_seconds']}s"
        )
        if run.planned.sweep_point:
            print(f"  sweep point: {run.provenance['sweep_point']}")
    print(f"\nmanifest hash: {manifest_hash(manifest)}")
    if out_dir is not None:
        print(f"artifacts written to {out_dir}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="List, describe and run the registered experiments from JSON manifests.",
    )
    commands = parser.add_subparsers(dest="command", required=True)
    commands.add_parser("list", help="list every registered experiment")
    describe = commands.add_parser("describe", help="show an experiment's typed parameter schema")
    describe.add_argument("experiment_id")
    run = commands.add_parser("run", help="validate and execute a manifest")
    run.add_argument("manifest", help="path to a manifest JSON file (see manifests/)")
    run.add_argument("--out", default=None, metavar="DIR", help="write JSON+CSV artifacts here")
    args = parser.parse_args(argv)
    try:
        if args.command == "list":
            return _cmd_list()
        if args.command == "describe":
            return _cmd_describe(args.experiment_id)
        return _cmd_run(args.manifest, args.out)
    except BrokenPipeError:
        # Downstream pager/head closed the pipe; hand interpreter shutdown a
        # writable stdout so it does not raise a second time.
        import os

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


if __name__ == "__main__":
    sys.exit(main())
