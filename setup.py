"""Setup shim.

The environment for this reproduction has no ``wheel`` package and no network
access, so PEP 517 editable installs (which build a wheel) fail.  This shim
lets ``pip install -e . --no-build-isolation --no-use-pep517`` fall back to the
legacy ``setup.py develop`` path.
"""

from setuptools import find_packages, setup

setup(
    name="repro-ptucker",
    package_dir={"": "src"},
    packages=find_packages("src"),
    install_requires=["numpy"],
)
