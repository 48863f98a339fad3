"""Reports against the golden files under `tests/golden/`, byte for byte.

Each golden file holds one command's report without its timings, and the
exit code and stderr of a command that fails, as
`tests/golden/regenerate.py` writes it; that script reruns the commands
when a change alters a report on purpose.
"""

import importlib.util
from pathlib import Path

import pytest

GOLDEN = Path(__file__).parent / "golden"
_spec = importlib.util.spec_from_file_location("regenerate", GOLDEN / "regenerate.py")
regenerate = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(regenerate)


@pytest.mark.parametrize("name", sorted(regenerate.CASES))
def test_report_matches_its_golden_file(name):
    assert regenerate.run(regenerate.CASES[name]) == (GOLDEN / name).read_text()


def test_the_directory_holds_the_cases_the_script_and_its_inputs():
    # A dropped case must not leave a stale golden file behind.
    files = {path.name for path in GOLDEN.iterdir() if path.name != "__pycache__"}
    assert files == {*regenerate.CASES, *regenerate.INPUTS, "regenerate.py"}


def test_only_the_timings_are_dropped():
    json_report = '{\n  "a": 1,\n  "timings": {\n    "c": {\n      "d": 2\n    }\n  },\n  "z": 3\n}\n'
    assert regenerate.without_timings(json_report) == '{\n  "a": 1,\n  "z": 3\n}\n'
    markdown = "# report\n\n- x: 1\n\n- total_ms: 12\n"
    assert regenerate.without_timings(markdown) == "# report\n\n- x: 1\n\n"
    assert regenerate.without_timings("") == ""
