"""Settings shared by the test modules in this directory."""

from pathlib import Path

import pytest

_HERE = Path(__file__).parent


def pytest_collection_modifyitems(items):
    # a warning raised by a test here is an error; the mark goes on this
    # directory's items only, so a suite collected in the same session
    # (perfbench/tests) keeps its own warning rules
    for item in items:
        if Path(item.path).is_relative_to(_HERE):
            item.add_marker(pytest.mark.filterwarnings("error"))
