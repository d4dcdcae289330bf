"""SIS hint file format and service tests."""

import pytest

from repro.errors import SISError
from repro.scope.optimizer.rules.base import RuleCategory, RuleFlip, default_registry
from repro.sis.hints import HintEntry, parse_hint_file, render_hint_file, validate_entries
from repro.sis.service import SISService


@pytest.fixture(scope="module")
def registry():
    return default_registry()


def _valid_flip(registry):
    rule_id = registry.ids_in_category(RuleCategory.OFF_BY_DEFAULT)[0]
    return RuleFlip(rule_id, turn_on=True)


def test_render_parse_roundtrip(registry):
    entries = [HintEntry("T0001", _valid_flip(registry))]
    content = render_hint_file(entries, day=3)
    parsed = parse_hint_file(content)
    assert parsed == entries


def test_parse_skips_comments_and_blanks():
    assert parse_hint_file("# header\n\n") == []


def test_parse_rejects_malformed_lines():
    with pytest.raises(SISError):
        parse_hint_file("T0001\t5")
    with pytest.raises(SISError):
        parse_hint_file("T0001\tfive\ton")
    with pytest.raises(SISError):
        parse_hint_file("T0001\t5\tmaybe")


def test_validate_rejects_required_rules(registry):
    required = registry.ids_in_category(RuleCategory.REQUIRED)[0]
    with pytest.raises(SISError, match="required"):
        validate_entries([HintEntry("T1", RuleFlip(required, False))], registry)


def test_validate_rejects_duplicates(registry):
    flip = _valid_flip(registry)
    with pytest.raises(SISError, match="duplicate"):
        validate_entries([HintEntry("T1", flip), HintEntry("T1", flip)], registry)


def test_validate_rejects_noop_hints(registry):
    rule_id = registry.ids_in_category(RuleCategory.OFF_BY_DEFAULT)[0]
    with pytest.raises(SISError, match="does not change"):
        validate_entries([HintEntry("T1", RuleFlip(rule_id, turn_on=False))], registry)


def test_validate_rejects_unknown_rule(registry):
    with pytest.raises(SISError, match="unknown rule"):
        validate_entries([HintEntry("T1", RuleFlip(9999, True))], registry)


def test_service_upload_and_lookup(registry):
    sis = SISService(registry)
    flip = _valid_flip(registry)
    version = sis.upload([HintEntry("T0007", flip)], day=1)
    assert version.version == 1
    assert sis.lookup("T0007") == flip
    assert sis.lookup("T9999") is None


def test_service_upload_replaces_active_set(registry):
    sis = SISService(registry)
    flip = _valid_flip(registry)
    sis.upload([HintEntry("A", flip)], day=1)
    sis.upload([HintEntry("B", flip)], day=2)
    assert sis.lookup("A") is None
    assert sis.lookup("B") == flip
    assert sis.current_version == 2


def test_service_attach_wires_engine(registry, tiny_engine):
    sis = SISService(registry)
    sis.attach(tiny_engine)
    assert tiny_engine.hint_provider is not None
    tiny_engine.hint_provider = None  # restore for other tests
