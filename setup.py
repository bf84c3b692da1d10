"""Package metadata, in ``setup.py`` so the package installs in fully offline
environments.

The environment has no ``wheel`` package, which PEP 517 / PEP 660 installs
require; ``pip install -e . --no-use-pep517 --no-build-isolation`` (or
``python setup.py develop``) works with setuptools alone.  The version is
read from ``src/repro/__init__.py`` so it is stated once.
"""

import re
from pathlib import Path

from setuptools import find_packages, setup

_INIT = Path(__file__).parent / "src" / "repro" / "__init__.py"

setup(
    name="repro",
    version=re.search(r'^__version__ = "([^"]+)"', _INIT.read_text(), re.M).group(1),
    description="Self-organizing structured RDF: an emergent-schema RDF store",
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.10",
    install_requires=["numpy"],
)
