import pytest

# Opt-in markers: their tests run only when ``-m`` names them.
OPT_IN = ("sweep", "agree")


def pytest_collection_modifyitems(config, items):
    """Skip the ``sweep`` and ``agree`` tests unless ``-m`` selects them."""
    markexpr = config.getoption("markexpr", "")
    for mark in OPT_IN:
        if mark in markexpr:
            continue
        skip = pytest.mark.skip(reason="opt-in; run with -m %s" % mark)
        for item in items:
            if mark in item.keywords:
                item.add_marker(skip)
