"""docs/sweeps.md prints the one knob table; hold it to ``Settings``."""

import dataclasses
import pathlib

from repro.settings import Settings

DOC = pathlib.Path(__file__).parent.parent.parent / "docs" / "sweeps.md"


def test_knob_table_matches_the_settings_fields():
    expected = [
        f"| `{field.metadata['env']}` | `{field.name}` | "
        f"`{field.default}` | {field.metadata['doc']} |"
        for field in dataclasses.fields(Settings)
    ]
    rows = [
        line for line in DOC.read_text(encoding="utf-8").splitlines()
        if line.startswith("| `REPRO_")
    ]
    assert rows == expected
