"""Fixtures shared by several test files."""

import importlib.util
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent


@pytest.fixture(scope="session")
def report_digest():
    """``scripts/report_digest.py`` as a module.  Loading it puts ``src/`` and
    ``bench/`` on ``sys.path``; its ``workloads`` is the benchmark's input
    generator."""
    spec = importlib.util.spec_from_file_location("report_digest", ROOT / "scripts" / "report_digest.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module
