"""Command-line surface: analyses, claim verification, reports.

Every command builds one report document with the same top-level shape,

    {"tool_version", "input", "profile", "claims", "timings"}

and renders it as JSON or markdown. The JSON renderer is canonical
(sorted keys, two-space indent), so parsing a report and re-serializing
it reproduces the bytes exactly.

Exit codes: 0 on success, 1 when a verification or claim fails, 2 on
usage errors (unknown names, unparseable input, empty claim filter, a
group whose irreducible dimensions counting cannot pin down).
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
import time

from . import __version__, catalog, claims
from .brackets import BracketTable, TABLE_NAMES, find_component_match, verify_bracket_table
from .exact import COUNTERS, ParseError
from .groups import DEFAULT_CAP, MatrixGroup
from .reps import AmbiguousCensus


class UsageError(Exception):
    """Input that cannot be resolved: unknown name, bad file, bad signature."""


def render_json(doc: dict) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _markdown_value(value) -> str:
    if isinstance(value, str):
        return value
    return json.dumps(value, sort_keys=True)


def _markdown_table(rows: list[dict]) -> list[str]:
    columns = sorted({key for row in rows for key in row})
    lines = ["| " + " | ".join(columns) + " |"]
    lines.append("| " + " | ".join("---" for _ in columns) + " |")
    for row in rows:
        cells = [_markdown_value(row.get(col, "")) for col in columns]
        lines.append("| " + " | ".join(cells) + " |")
    return lines


def render_markdown(doc: dict) -> str:
    lines = [f"# gammagroups {doc['input']['command']} report", ""]
    lines.append(f"- tool_version: {doc['tool_version']}")
    for key in sorted(doc["input"]):
        if key != "command":
            lines.append(f"- {key}: {_markdown_value(doc['input'][key])}")
    lines.append("")
    profile = doc.get("profile")
    if profile:
        lines.append("## profile")
        bullets = []
        tables = []
        for key in sorted(profile):
            value = profile[key]
            if isinstance(value, list) and value and all(isinstance(v, dict) for v in value):
                tables.append((key, value))
            else:
                bullets.append(f"- {key}: {_markdown_value(value)}")
        if bullets:
            lines.append("")
            lines.extend(bullets)
        for key, rows in tables:
            lines.append("")
            lines.append(f"### {key}")
            lines.append("")
            lines.extend(_markdown_table(rows))
        lines.append("")
    if doc.get("claims"):
        lines.append("## claims")
        lines.append("")
        lines.append("| status | claim | expected | computed |")
        lines.append("| --- | --- | --- | --- |")
        for claim in doc["claims"]:
            lines.append(
                "| {status} | {claim_id} | {expected} | {computed} |".format(
                    status=claim["status"],
                    claim_id=claim["claim_id"],
                    expected=_markdown_value(claim["expected"]),
                    computed=_markdown_value(claim["computed"]),
                )
            )
        lines.append("")
    lines.append(f"- total_ms: {doc['timings']['total_ms']}")
    return "\n".join(lines) + "\n"


def _document(
    command: str, started: float, *, profile=None, claim_results=None, timings=None,
    **input_args,
) -> dict:
    return {
        "tool_version": __version__,
        "input": {"command": command, **input_args},
        "profile": profile,
        "claims": [r.to_dict() for r in (claim_results or [])],
        "timings": {"total_ms": int((time.perf_counter() - started) * 1000), **(timings or {})},
    }


def _resolve_target(target: str, cap: int) -> tuple[str, MatrixGroup, object]:
    """Catalog name or generator-file path -> (name, group, entry or None)."""
    if target in catalog.catalog_names():
        return target, catalog.catalog_group(target), catalog.catalog_entry(target)
    try:
        name, group = catalog.load_generator_file(target, cap=cap)
    except OSError as err:  # missing, a directory, unreadable
        raise UsageError(f"{target!r} is neither a catalog entry nor a readable file") from err
    except (ValueError, ParseError, json.JSONDecodeError) as err:
        raise UsageError(f"cannot load generator file {target!r}: {err}") from err
    return name, group, None


def _analyze_profile(name: str, group: MatrixGroup, entry) -> dict:
    profile = catalog.catalog_profile(name) if entry is not None else catalog.compute_profile(group)
    return {"name": name, "dimension": group.elements[0].dim, **profile.to_dict()}


def _cmd_catalog(args, started: float) -> tuple[dict, int]:
    # The rows are stored fields: no matrix is parsed and no group is built.
    # An extracted entry stores no dimension; it has its parent's.
    payloads = {name: catalog._load_payload(name) for name in catalog.catalog_names()}
    entries = []
    for payload in payloads.values():
        sized = payloads[payload["extract"]["parent"]] if "extract" in payload else payload
        entries.append({
            "name": payload["name"],
            "dimension": sized["dimension"],
            "order": payload["expected"]["order"],
            "summary": payload["summary"],
        })
    doc = _document("catalog", started, profile={"entries": entries}, action="list")
    return doc, 0


def _cmd_analyze(args, started: float) -> tuple[dict, int]:
    name, group, entry = _resolve_target(args.target, args.cap)
    try:
        profile = _analyze_profile(name, group, entry)
    except AmbiguousCensus as err:
        raise UsageError(f"cannot analyze {args.target!r}: {err}") from err
    doc = _document("analyze", started, profile=profile, target=args.target)
    return doc, 0


def _cmd_verify(args, started: float) -> tuple[dict, int]:
    claims_ms: dict[str, int] = {}
    try:
        results = claims.run_claims(args.filter, timings=claims_ms)
    except claims.UnknownClaimFilter as err:
        raise UsageError(str(err)) from err
    failed = sum(1 for r in results if r.status != "PASS")
    summary = {"total": len(results), "passed": len(results) - failed, "failed": failed}
    doc = _document(
        "verify", started, profile=summary, claim_results=results,
        timings={"claims_ms": claims_ms}, filter=args.filter,
    )
    return doc, 0 if failed == 0 else 1


def _cmd_subgroups(args, started: float) -> tuple[dict, int]:
    name, group, _ = _resolve_target(args.name, args.cap)
    if group.order % args.order != 0:
        raise UsageError(f"order {args.order} does not divide the group order {group.order}")
    rows = []
    for position, sub in enumerate(group.subgroups_of_order(args.order)):
        row = {"position": position, "order": args.order}
        if args.classify and args.order == 16:
            match = find_component_match(sub.as_group())
            row["component"] = match.table if match else None
        rows.append(row)
    profile = {"name": name, "order": args.order, "count": len(rows), "subgroups": rows}
    doc = _document(
        "subgroups", started, profile=profile,
        name=args.name, order=args.order, classify=args.classify,
    )
    return doc, 0


def _cmd_brackets(args, started: float) -> tuple[dict, int]:
    from .words import table_roles

    name, group, entry = _resolve_target(args.name, args.cap)
    table = BracketTable.load(args.table)
    try:
        assignment = table_roles(group, entry, table)
    except ValueError as err:
        raise UsageError(str(err)) from err
    if assignment is None:
        profile = {
            "name": name, "table": args.table, "passed": False,
            "detail": f"no realization of table {args.table} found in {name}",
            "checks": [],
        }
        doc = _document("brackets", started, profile=profile, name=args.name, table=args.table)
        return doc, 1
    report = verify_bracket_table(table, assignment)
    profile = {
        "name": name, "table": args.table, "passed": report.passed,
        "checks": [c.to_dict() for c in report.checks],
    }
    doc = _document("brackets", started, profile=profile, name=args.name, table=args.table)
    return doc, 0 if report.passed else 1


def _cmd_search(args, started: float) -> tuple[dict, int]:
    try:
        hits = catalog.find_gamma_models(args.signature, args.pool)
    except (ValueError, KeyError) as err:
        raise UsageError(str(err)) from err
    profile = {
        "signature": args.signature,
        "pool": args.pool,
        "hits": [
            {
                "order": h.order,
                "identified": h.identified,
                "generator_indices": list(h.generator_indices),
            }
            for h in hits
        ],
    }
    doc = _document(
        "search", started, profile=profile, signature=args.signature, pool=args.pool,
    )
    return doc, 0


def _cmd_extensions(args, started: float) -> tuple[dict, int]:
    square = 1 if args.square == "plus" else -1
    if args.base not in catalog.catalog_names():
        raise UsageError(f"unknown catalog entry {args.base!r}")
    result = catalog.enumerate_extensions(args.base, square)
    profile = {
        "base": result.base,
        "square": square,
        "found": result.found,
    }
    if result.found:
        profile.update({
            "phase": result.phase,
            "order": result.order,
            "identified": result.identified,
            "relations_passed": bool(result.report and result.report.passed),
        })
    else:
        profile["reason"] = result.reason
    doc = _document(
        "extensions", started, profile=profile, base=args.base, square=args.square,
    )
    return doc, 0


_GLOBAL_DEFAULTS = {"format": "markdown", "cap": DEFAULT_CAP}


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    # The shared options use SUPPRESS so a subcommand parse does not
    # overwrite a value given before the subcommand; parse_args fills
    # the real defaults in afterwards.
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("json", "markdown"),
                        default=argparse.SUPPRESS,
                        help="report rendering (default: markdown)")
    common.add_argument("--cap", type=_positive_int, default=argparse.SUPPRESS,
                        help="closure size cap for generator files")

    parser = argparse.ArgumentParser(
        prog="gammagroups",
        description="Exact analysis of finite gamma-matrix groups.",
        parents=[common],
    )
    commands = parser.add_subparsers(dest="command", required=True)

    sub = commands.add_parser("catalog", help="catalog operations", parents=[common])
    sub.add_argument("action", choices=("list",))

    sub = commands.add_parser("analyze", parents=[common],
                              help="profile a catalog entry or generator file")
    sub.add_argument("target")

    sub = commands.add_parser("verify", help="run the claim registry", parents=[common])
    sub.add_argument("--filter", default=None, help="claim-id glob, e.g. 'pauli.*'")

    sub = commands.add_parser("subgroups", parents=[common],
                              help="enumerate subgroups of one order")
    sub.add_argument("name")
    sub.add_argument("--order", type=_positive_int, required=True)
    sub.add_argument("--classify", action="store_true",
                     help="classify order-16 subgroups by bracket table")

    sub = commands.add_parser("brackets", parents=[common],
                              help="verify a bracket table on an entry")
    sub.add_argument("name")
    sub.add_argument("--table", choices=TABLE_NAMES, required=True)

    sub = commands.add_parser("search", parents=[common],
                              help="find generator tuples matching a signature")
    sub.add_argument("--signature", required=True,
                     help="e.g. '+++-'; write --signature='---|+' for leading dashes")
    sub.add_argument("--pool", choices=catalog.POOL_NAMES, default="dirac4")

    sub = commands.add_parser("extensions", parents=[common],
                              help="extend a base by a fifth generator")
    sub.add_argument("--base", required=True)
    sub.add_argument("--square", choices=("plus", "minus"), required=True)

    return parser


_HANDLERS = {
    "catalog": _cmd_catalog,
    "analyze": _cmd_analyze,
    "verify": _cmd_verify,
    "subgroups": _cmd_subgroups,
    "brackets": _cmd_brackets,
    "search": _cmd_search,
    "extensions": _cmd_extensions,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    for name, default in _GLOBAL_DEFAULTS.items():
        if not hasattr(args, name):
            setattr(args, name, default)
    started = time.perf_counter()
    before = dict(COUNTERS)
    try:
        doc, code = _HANDLERS[args.command](args, started)
    except UsageError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    doc["timings"]["counters"] = {name: COUNTERS[name] - before[name] for name in before}
    text = render_json(doc) if args.format == "json" else render_markdown(doc)
    sys.stdout.write(text)
    return code


def run() -> int:
    """Process entry: `main` on `sys.argv`, then freeze the heap for exit.

    Interpreter shutdown still collects garbage, GC enabled or not, and
    walks every tracked object to do it; `gc.freeze()` moves them all into
    the permanent generation, which no later collection visits. The
    streams are still flushed at exit. `main` itself never freezes, so
    in-process callers keep their collector as it was.
    """
    code = main()
    gc.freeze()
    return code


if __name__ == "__main__":
    sys.exit(run())
