"""Package metadata for the HyperPRAW reproduction.

Editable install from a source tree::

    pip install -e .[dev]

which also installs the ``hyperpraw-repro`` console script (the CLI the
docstring of :mod:`repro.experiments.cli` advertises; ``python -m
repro.experiments.cli`` remains equivalent without installing).
"""

from pathlib import Path

from setuptools import find_namespace_packages, setup

_here = Path(__file__).parent
_readme = _here / "README.md"

setup(
    name="hyperpraw-repro",
    version="0.8.0",
    description=(
        "Reproduction of HyperPRAW: architecture-aware hypergraph "
        "restreaming partitioning (ICPP 2019), with out-of-core streaming "
        "and an HTTP partition service (hyperpraw-repro serve)"
    ),
    long_description=_readme.read_text() if _readme.exists() else "",
    long_description_content_type="text/markdown",
    # src/repro is an implicit namespace package (no __init__.py).
    packages=find_namespace_packages("src", include=["repro", "repro.*"]),
    package_dir={"": "src"},
    python_requires=">=3.10",
    install_requires=[
        # 1.25 brought the fast unbuffered ufunc.at that the dense state's
        # block scatter (np.add.at) relies on; before it, add.at is slower
        # than the sort-and-merge it replaced.
        "numpy>=1.25",
        "scipy>=1.10",
    ],
    extras_require={
        "dev": [
            "pytest",
            "pytest-benchmark",
            "hypothesis",
        ],
        # Optional compiled pass kernel (kernel="njit"/"auto"); the
        # pure-python path is bit-identical, just interpreter speed.
        "fast": [
            "numba>=0.57",
        ],
    },
    entry_points={
        "console_scripts": [
            "hyperpraw-repro = repro.experiments.cli:main",
        ],
    },
    classifiers=[
        "Programming Language :: Python :: 3",
        "Topic :: Scientific/Engineering",
        "Operating System :: OS Independent",
    ],
)
