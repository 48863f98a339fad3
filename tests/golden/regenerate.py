"""Write the golden reports that `tests/test_golden.py` compares byte for byte.

Run it as `python tests/golden/regenerate.py`, from any directory: it
imports the package from this checkout's `src/`, runs each command below
in-process through `cli.main` and writes its report next to this file,
without the timings that differ from run to run. A change that alters a
report commits what this writes and says why.
"""

from __future__ import annotations

import contextlib
import io
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent

# Golden file name -> the command line whose report it holds. Each exits 0
# and writes nothing to stderr.
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


def without_timings(text: str) -> str:
    """A report without its timings: the JSON `timings` object, or the
    markdown's closing `- total_ms:` line."""
    lines = text.splitlines(keepends=True)
    if lines[0] == "{\n":
        start = lines.index('  "timings": {\n')
        end = next(k for k in range(start, len(lines)) if lines[k].startswith("  }"))
        del lines[start:end + 1]
    else:
        assert lines[-1].startswith("- total_ms: "), lines[-1]
        del lines[-1]
    return "".join(lines)


def run(argv: list[str]) -> tuple[int, str, str]:
    """(exit code, report without timings, stderr) of one in-process call."""
    from gammagroups import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, without_timings(out.getvalue()), err.getvalue()


def main() -> int:
    for name, argv in CASES.items():
        code, text, err = run(argv)
        if (code, err) != (0, ""):
            print(f"{name}: exit {code}, stderr {err!r}", file=sys.stderr)
            return 1
        (HERE / name).write_text(text)
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(HERE.parents[1] / "src"))
    sys.exit(main())
