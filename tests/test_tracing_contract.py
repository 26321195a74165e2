"""The benchmark tracer's contract with koblab's names.

``perfbench/tracing.py`` wraps functions by module and name, and oracle
methods found in each class's own ``__dict__``; a refactor that moves one
of them breaks every traced benchmark run.  The module is loaded by path: it
imports only the standard library.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

from koblab import domains

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_each_certifier_defines_its_own_method(tracing):
    for name in tracing.CERTIFIERS:
        assert "certify_affine_disc" in vars(getattr(domains, name)), name


def test_sublevel_domain_defines_the_traced_methods(tracing):
    for attr in tracing.SUBLEVEL_METHODS:
        assert attr in vars(domains.SublevelDomain), attr


def test_each_traced_function_exists(tracing):
    for module, attr in tracing.FUNCTIONS:
        assert callable(getattr(importlib.import_module(module), attr, None)), (module, attr)
