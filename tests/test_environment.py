"""Every ``REPRO_*`` environment variable the library reads is named and documented.

The set is closed: a new knob fails this test until it is added here and to
the environment list in ``docs/ARCHITECTURE.md``.
"""

from __future__ import annotations

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
NAME = re.compile(r"REPRO_[A-Z_]+")

#: The fault-injection plan.
ENVIRONMENT = {"REPRO_FAULTS"}


def test_every_repro_variable_is_known_and_documented():
    used = {name for path in (ROOT / "src").rglob("*.py") for name in NAME.findall(path.read_text(encoding="utf-8"))}
    assert used == ENVIRONMENT
    text = (ROOT / "docs" / "ARCHITECTURE.md").read_text(encoding="utf-8")
    # the bullet list under the "Environment variables" line, up to its first blank line
    listing = text[text.index("\nEnvironment variables") :].split("\n\n", 2)[1]
    assert set(re.findall(r"^\* `(REPRO_[A-Z_]+)`", listing, re.MULTILINE)) == ENVIRONMENT
