"""Setuptools shim for legacy and offline installs.

The canonical metadata lives in ``pyproject.toml``.  ``pip install -e .``
builds through PEP 660 and needs the ``wheel`` package; where that is
missing and there is no network to fetch it,
``python setup.py develop --no-deps`` installs the same editable package
and the ``repro`` console script.
"""

from setuptools import setup

setup()
