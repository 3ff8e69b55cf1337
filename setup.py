"""Setuptools entry point — the repository's only packaging metadata.

A plain ``setup.py`` so that editable installs work in offline environments
whose setuptools lacks the ``wheel`` package the PEP 660 editable-wheel path
needs (``pip install -e .`` falls back to the legacy ``setup.py develop``
route).
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    description=(
        "Reproduction of 'A Storage Advisor for Hybrid-Store Databases' "
        "(Roesch et al., VLDB 2012)"
    ),
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.9",
    install_requires=["numpy"],
    extras_require={"dev": ["pytest", "pytest-benchmark", "hypothesis"]},
)
