import pytest


def pytest_collection_modifyitems(config, items):
    """Skip the ``sweep`` tests unless ``-m`` selects them."""
    if "sweep" in config.getoption("markexpr", ""):
        return
    skip = pytest.mark.skip(reason="seed sweep; run with -m sweep")
    for item in items:
        if "sweep" in item.keywords:
            item.add_marker(skip)
