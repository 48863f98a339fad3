"""The package's JSON data: bracket tables, relation sets and catalog entries."""

import json
import os


def load_json(subdir: str, filename: str):
    """Parse data/<subdir>/<filename>, read from beside this module."""
    with open(os.path.join(os.path.dirname(__file__), subdir, filename), encoding="utf-8") as f:
        return json.load(f)
