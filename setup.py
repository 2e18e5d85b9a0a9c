"""Package metadata and install script for ``repro`` (the LineageX reproduction).

The project has no ``pyproject.toml``: this classic ``setup.py`` holds all
of its metadata.  It also keeps offline installs working where the
``wheel`` package is missing (PEP 517 editable installs build a wheel):
``pip install -e . --no-build-isolation --no-use-pep517`` and plain
``python setup.py develop`` both work without network access.
"""

import re
from pathlib import Path

from setuptools import find_packages, setup


def _version():
    # read, not imported: importing the package would need its
    # dependencies installed before setup runs
    text = (Path(__file__).parent / "src" / "repro" / "__init__.py").read_text(
        encoding="utf-8"
    )
    return re.search(r'^__version__ = "([^"]+)"', text, re.MULTILINE).group(1)


setup(
    name="repro",
    version=_version(),
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.10",
)
