"""Write the golden reports that `tests/test_golden.py` compares byte for byte.

Run it as `python tests/golden/regenerate.py`, from any directory: it
imports the package from this checkout's `src/`, runs each command below
in-process through `cli.main`, inside this directory, and writes its report
next to this file, without the timings that differ from run to run. A
command that exits non-zero or writes to stderr has its exit code and
stderr recorded after the report. A change that alters a report commits
what this writes and says why.
"""

from __future__ import annotations

import contextlib
import io
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent

# The generator files the cases below read, by path relative to this
# directory, so each report's `input` reads the same on every machine.
INPUTS = ("two_t.json", "s3.json", "d8_perm.json", "s5.json")

# Golden file name -> the command line whose report it holds.
CASES = {
    "verify.json": ["verify", "--format", "json"],
    "verify.md": ["verify", "--format", "markdown"],
}
CASES.update({
    f"catalog_list.{suffix}": ["catalog", "list", "--format", fmt]
    for suffix, fmt in (("json", "json"), ("md", "markdown"))
})
# Every catalog entry's profile.
CASES.update({
    f"analyze_{name}.{suffix}": ["analyze", name, "--format", fmt]
    for name in (
        "pauli", "pauli_f", "q8", "d4", "gamma_minus", "gamma_plus", "pauli_c2",
        "q8_v4", "d4_v4", "q8_c2", "d4_c2", "gamma64_minus", "gamma64_plus", "gamma64_null",
    )
    for suffix, fmt in (("json", "json"), ("md", "markdown"))
})
# Each stored bracket table, checked on the entry that realizes it.
CASES.update({
    f"brackets_{name}_{table}.{suffix}": ["brackets", name, "--table", table, "--format", fmt]
    for name, table in (("pauli", "d"), ("d4", "q2"), ("pauli_f", "f"), ("q8_c2", "b"), ("d4_c2", "c"))
    for suffix, fmt in (("json", "json"), ("md", "markdown"))
})
# Both fifth-generator squares over every stable base.
CASES.update({
    f"extensions_{base}_{square}.{suffix}": [
        "extensions", "--base", base, "--square", square, "--format", fmt,
    ]
    for base in ("gamma_minus", "gamma_plus", "pauli_c2", "q8_v4", "d4_v4")
    for square in ("plus", "minus")
    for suffix, fmt in (("json", "json"), ("md", "markdown"))
})
# Two penta8 signatures, one with a commuting fourth, and a classified subgroup list.
CASES.update({
    f"{stem}.{suffix}": [*argv, "--format", fmt]
    for stem, argv in (
        ("search_twisted_penta8", ["search", "--signature=---|+", "--pool", "penta8"]),
        ("search_mixed_penta8", ["search", "--signature=++--", "--pool", "penta8"]),
        ("subgroups_gamma_minus_16", ["subgroups", "gamma_minus", "--order", "16", "--classify"]),
    )
    for suffix, fmt in (("json", "json"), ("md", "markdown"))
})
# Groups outside the catalog: the dense 2T, whose abelianization is C3; S3;
# the order-8 dihedral group as permutation matrices, without -1 and so
# outside F, whose index-two subgroups are classed by isomorphism; and the
# subgroup walk on S5, whose order is not a power of two.
CASES.update({
    f"{stem}.{suffix}": [*argv, "--format", fmt]
    for stem, argv in (
        ("analyze_two_t", ["analyze", "two_t.json"]),
        ("analyze_s3", ["analyze", "s3.json"]),
        ("analyze_d8_perm", ["analyze", "d8_perm.json"]),
        ("subgroups_s5_12", ["subgroups", "s5.json", "--order", "12"]),
    )
    for suffix, fmt in (("json", "json"), ("md", "markdown"))
})
# Reports that exit 1: tables pauli does not realize, and q2 on q8, whose
# products of anticommuting pairs all close with the quaternion signs.
CASES.update({
    f"brackets_{name}_{table}.{suffix}": ["brackets", name, "--table", table, "--format", fmt]
    for name, table in (("pauli", "b"), ("pauli", "c"), ("q8", "q2"))
    for suffix, fmt in (("json", "json"), ("md", "markdown"))
})
# Tables an entry realizes besides its own: the roles come from the scan,
# or, for q2, which has no boosts, from the first pair that starts a
# realization, on a group of any order.
CASES.update({
    f"brackets_{name}_{table}.{suffix}": ["brackets", name, "--table", table, "--format", fmt]
    for name, table in (("pauli", "f"), ("pauli", "q2"), ("gamma_minus", "q2"))
    for suffix, fmt in (("json", "json"), ("md", "markdown"))
})
# Usage errors, which exit 2 and write to stderr only.
CASES.update({
    f"{stem}.{suffix}": [*argv, "--format", fmt]
    for stem, argv in (
        ("error_analyze_nonexistent", ["analyze", "nonexistent"]),
        ("error_verify_filter", ["verify", "--filter", "nonexistent.*"]),
        ("error_search_short_signature", ["search", "--signature=+-", "--pool", "penta8"]),
        ("error_search_five_signs", ["search", "--signature=+++++"]),
        ("error_subgroups_q8_3", ["subgroups", "q8", "--order", "3"]),
    )
    for suffix, fmt in (("json", "json"), ("md", "markdown"))
})


def without_timings(text: str) -> str:
    """A report without its timings: the JSON `timings` object, or the
    markdown's closing `- total_ms:` line. A run that wrote no report
    stays empty."""
    lines = text.splitlines(keepends=True)
    if not lines:
        return text
    if lines[0] == "{\n":
        start = lines.index('  "timings": {\n')
        end = next(k for k in range(start, len(lines)) if lines[k].startswith("  }"))
        del lines[start:end + 1]
    else:
        assert lines[-1].startswith("- total_ms: "), lines[-1]
        del lines[-1]
    return "".join(lines)


def run(argv: list[str]) -> str:
    """What one in-process call's golden file holds: the report without
    timings and, when the call exits non-zero or writes to stderr, an
    `exit` line and the stderr after it. The call runs inside this
    directory, where the input files are."""
    from gammagroups import cli

    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(HERE)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    finally:
        os.chdir(cwd)
    text = without_timings(out.getvalue())
    if (code, err.getvalue()) == (0, ""):
        return text
    return f"{text}--- exit {code}, stderr:\n{err.getvalue()}"


def main() -> int:
    for name, argv in CASES.items():
        (HERE / name).write_text(run(argv))
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(HERE.parents[1] / "src"))
    sys.exit(main())
