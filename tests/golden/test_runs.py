"""Tier-1 runs the golden table's ``tier1`` rows (see ``runs.py``)."""

import os
from concurrent.futures import ThreadPoolExecutor

import pytest

from .runs import broken_relations, load_table, run_row

ROWS = load_table()
TIER1 = [row for row in ROWS if row["tier"] == "tier1"]


def test_the_table_keeps_its_relations():
    assert broken_relations(ROWS) == []


@pytest.fixture(scope="module")
def derived(request):
    """The digests of every selected row, a few rows at a time: a row
    runs in child interpreters, so its thread only waits on them."""
    selected = {
        item.callspec.params["row"]["id"]
        for item in request.session.items
        if getattr(item, "originalname", None) == "test_row_is_unchanged"
    }
    with ThreadPoolExecutor(min(4, os.cpu_count() or 1)) as pool:
        futures = {
            row["id"]: pool.submit(run_row, row)
            for row in TIER1
            if row["id"] in selected
        }
        yield futures
        for future in futures.values():
            future.cancel()


@pytest.mark.slow
@pytest.mark.parametrize("row", TIER1, ids=[row["id"] for row in TIER1])
def test_row_is_unchanged(row, derived):
    assert derived[row["id"]].result() == row["digests"]
