"""Structure and determinism of the built-in verification catalogue."""

import json

import pytest

from conftest import count_calls
from neartoep import catalogue, runner
from neartoep.catalogue import (
    MIN_CATALOGUE_TRUNCATION,
    catalogue_ids,
    run_catalogue,
)
from neartoep.errors import InputError

EXPECTED_ROW_COUNT = 28


def test_row_ids_are_unique_and_stable():
    ids = catalogue_ids()
    assert len(ids) == EXPECTED_ROW_COUNT
    assert len(set(ids)) == len(ids)
    # the families the catalogue must cover
    for prefix in ("defect-annihilator", "defect-inner", "defect-invertible",
                   "defect-conj-inner", "rep-annihilator", "rep-inner",
                   "rep-invertible", "rep-conj-inner", "rep-split-monomial",
                   "remark-projection"):
        assert any(i.startswith(prefix) for i in ids), prefix


def test_truncation_floor_guard():
    with pytest.raises(InputError):
        run_catalogue(MIN_CATALOGUE_TRUNCATION - 1)


def test_catalogue_passes_and_serializes():
    rows = run_catalogue()
    failing = [r.row_id for r in rows if not r.passed]
    assert failing == []
    assert [r.row_id for r in rows] == list(catalogue_ids())
    for row in rows:
        payload = row.to_json_dict()
        # reports must be plain JSON data
        json.dumps(payload)
        assert payload["row_id"] == row.row_id
        assert isinstance(payload["details"], dict)
    gap_rows = [r for r in rows if "known-gap" in r.row_id]
    assert len(gap_rows) == 1
    assert gap_rows[0].details["gap_reproduced"] is True
    assert gap_rows[0].notes


def test_catalogue_is_deterministic():
    first = [r.to_json_dict() for r in run_catalogue()]
    second = [r.to_json_dict() for r in run_catalogue()]
    assert json.dumps(first, sort_keys=True) == json.dumps(second, sort_keys=True)


def test_each_row_runs_at_most_one_stability_audit(monkeypatch):
    # A row that reads both a representation and a defect check shares one
    # 2N audit between them.
    audits = count_calls(monkeypatch, runner, "stability_summary")
    for row_id, _, fn in catalogue._ROWS:
        before = len(audits)
        fn(MIN_CATALOGUE_TRUNCATION)
        assert len(audits) - before <= 1, row_id
