"""The names the perfbench layer map indexes must be defined by qclone.

`perfbench/layermetrics.py` looks functions up by name in a traced run, so a
renamed or deleted function raises KeyError there only under `--trace 1`.
This test builds the tracer (it installs nothing) and checks the names.
"""

import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_traced_names_are_defined(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    layertrace = importlib.import_module("layertrace")
    layermetrics = importlib.import_module("layermetrics")
    tracer = layertrace.LayerTrace()
    used = {*layermetrics.SELF_S, *layermetrics.CALLS, *layermetrics.BUSY_S,
            *layermetrics.CACHES, *layertrace.ARG_COUNTS}
    assert sorted(used - set(tracer.names)) == []
    for name in layermetrics.CACHES:
        assert hasattr(tracer.original(name), "cache_info"), name
