"""The one switch for slow tests: a test marked slow is skipped unless
RINGINV_SLOW is set (RINGINV_SLOW=1 python -m pytest -m slow)."""

import os

import pytest


def pytest_collection_modifyitems(config, items):
    if os.environ.get("RINGINV_SLOW"):
        return
    skip = pytest.mark.skip(reason="set RINGINV_SLOW=1 to run")
    for item in items:
        if "slow" in item.keywords:
            item.add_marker(skip)
