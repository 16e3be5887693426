"""The lifecycle (typestate) rules DET014 and DET016 stay in the catalogue.

DET014 guards a span's enter/exit pair and DET016 the publish order
(temp, fsync, rename); both are one syntactic check each in the code
engine, and their positives and negatives live in test_lint_code.py.
"""

from __future__ import annotations

from repro.lint.registry import RULES


class TestRegistry:
    def test_typestate_rules_registered(self) -> None:
        for rule_id, slug in (("DET014", "span-lifecycle"),
                              ("DET016", "atomic-protocol")):
            assert RULES[rule_id].engine == "code"
            assert RULES[rule_id].slug == slug
