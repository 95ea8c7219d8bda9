from setuptools import find_packages, setup

setup(
    name="repro-brakel-gkv95",
    version="0.6.0",
    description=(
        "Delay-fault ATPG for non-scan sequential circuits "
        "(TDgen + SEMILET + TDsim), reproduced from Brakel et al., DATE'95"
    ),
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.11",
    # The core package is dependency-free.
    extras_require={
        "test": ["pytest", "hypothesis", "pytest-benchmark"],
    },
)
