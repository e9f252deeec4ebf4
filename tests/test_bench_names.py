"""The per-layer call counters of ``BENCHMARK.json`` name functions that the
traced benchmark wraps.  A rename or an inlining that would fail a traced
run fails here first."""
import importlib
import inspect
import json
from pathlib import Path

BENCHMARK = Path(__file__).parent.parent / "BENCHMARK.json"


def test_benchmark_call_counters_name_layer_functions():
    metrics = [m["name"] for m in json.loads(BENCHMARK.read_text())["per_layer"]]
    named = []
    for metric in metrics:
        layer, *path, last = metric.split(".")
        # <layer>.calls totals a layer; smallmat.eig_nN counts solver inputs
        if last != "calls" or not path or path[0].startswith("eig_n"):
            continue
        obj = importlib.import_module(f"kzsim.{layer}")
        for part in path:
            obj = getattr(obj, part, None)
        # the tracer wraps the plain functions and methods a layer defines
        # itself (inspect.isfunction, or a classmethod's __func__), so a
        # functools.cache or other wrapper around a listed name fails here
        func = getattr(obj, "__func__", obj)
        assert inspect.isfunction(func) and func.__module__ == f"kzsim.{layer}", metric
        named.append(metric)
    assert named
