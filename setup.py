"""Setup shim for environments without the `wheel` package (offline installs).

All metadata lives in pyproject.toml (the version is read from
``repro.__version__``); this file keeps `pip install -e .` working under
legacy setuptools builds.
"""

from setuptools import setup

setup()
