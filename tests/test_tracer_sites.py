"""The benchmark tracer (bench/tracer.py) patches functions by name where
ebsparse's modules look them up; a renamed or moved function would only
surface as a KeyError in a traced benchmark run. These checks read the
tracer's site list and change nothing.
"""

import importlib
import importlib.util
from pathlib import Path

from ebsparse import cli

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def tracer_sites():
    spec = importlib.util.spec_from_file_location("ebsparse_bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.SITES


def test_every_site_is_a_callable_where_it_is_looked_up():
    missing = [
        f"{module}.{attr}"
        for module, attr, _ in tracer_sites()
        if not callable(vars(importlib.import_module(module)).get(attr))
    ]
    assert missing == []


def test_every_dispatched_command_has_its_cmd_function():
    for command, fn in cli.DISPATCH.items():
        assert vars(cli).get(f"cmd_{command}") is fn
