"""Setuptools configuration.

The execution environment has no network access and no ``wheel`` package, so
PEP 517 editable installs (which build a wheel) fail.  This ``setup.py``
enables the legacy editable-install path::

    pip install -e . --no-use-pep517 --no-build-isolation

The ``[dev]`` extra pins the test stack CI runs against.
"""

import re
from pathlib import Path

from setuptools import find_packages, setup

# Single source of truth for the version: src/repro/__init__.py.
_version = re.search(
    r'^__version__ = "([^"]+)"',
    Path(__file__).with_name("src").joinpath("repro", "__init__.py").read_text(),
    re.MULTILINE,
).group(1)

setup(
    name="repro-precompute-rnn",
    version=_version,
    description=(
        "Reproduction of an RNN hidden-state precompute/prefetch serving system "
        "(MLSys 2020), with a batched, sharded serving engine"
    ),
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.10",
    install_requires=["numpy>=1.24"],
    extras_require={
        "dev": [
            "pytest>=7.4,<9",
            "pytest-benchmark>=4.0,<6",
            "hypothesis>=6",
        ],
    },
)
