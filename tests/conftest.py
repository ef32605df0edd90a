"""Suite-wide fixtures."""

import pytest

from repro.lexpress import CompiledRule, execute


@pytest.fixture
def verify_mode(monkeypatch):
    """Check every rule evaluation against the reference interpreter.

    Wraps :meth:`CompiledRule.evaluate`, the single rule-evaluation entry
    point, so each call also runs :func:`execute` on the same input and
    asserts both engines agree on the value *and its type*.  Yields the
    list of evaluated rules so a test can assert the check ran."""
    evaluate = CompiledRule.evaluate
    checked: list[CompiledRule] = []

    def checked_evaluate(rule, attrs, value=None):
        result = evaluate(rule, attrs, value)
        reference = execute(rule.code, attrs, value, canonical=True)
        assert result == reference and type(result) is type(reference), (
            f"divergence in rule {rule.code.name!r} (source {rule.span}): "
            f"interpreter produced {reference!r}, engine produced {result!r}"
        )
        checked.append(rule)
        return result

    monkeypatch.setattr(CompiledRule, "evaluate", checked_evaluate)
    return checked
