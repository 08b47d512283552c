"""Correctness gate: every answer is compared with a frozen value.

``expected.json`` holds, per instance, the published acceptance values where
the paper gives them and otherwise values computed once at the commit it
names (see ``freeze.py``).  Besides the frozen comparison every certificate
must pass ``verify_certificate`` and every exact value must reach the
closed-form bound.
"""

from __future__ import annotations

import json
from pathlib import Path

EXPECTED_PATH = Path(__file__).with_name("expected.json")


def instance_key(family: str, params, t: int) -> str:
    return f"{family}:{','.join(map(str, params))}:{t}"


def load_expected() -> dict:
    with open(EXPECTED_PATH) as fh:
        return json.load(fh)["instances"]


class Checker:
    """Collects the problems of the operation in progress.

    With ``inject_fault`` the first frozen comparison sees its answer off by
    one: the negative control that shows a wrong answer is counted.
    """

    def __init__(self, expected: dict, inject_fault: bool = False):
        self.expected = expected
        self.inject_fault = inject_fault
        self.problems: list[str] = []

    def same(self, family, params, t, field: str, got):
        """``got`` equals the frozen value of ``field``, where there is one."""
        if self.inject_fault:
            self.inject_fault = False
            got = got + 1
        key = instance_key(family, params, t)
        entry = self.expected.get(key)
        if entry is None:
            self.fail(f"{key}: no frozen value")
        elif entry.get(field) is not None and got != entry[field]:
            self.fail(f"{key}: {field} {got} != frozen {entry[field]}")

    def holds(self, ok: bool, what: str):
        if not ok:
            self.fail(what)

    def fail(self, what: str):
        self.problems.append(what)

    def take(self) -> list[str]:
        """The problems since the last call, clearing them."""
        out, self.problems = self.problems, []
        return out
