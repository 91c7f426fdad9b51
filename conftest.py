"""Repo-level pytest configuration.

Adds the ``--update-goldens`` flag used by the golden suites in
``tests/obs`` (traces), ``tests/analysis`` (lint output),
``tests/resilience`` (campaign reports), ``tests/bedrock2`` (emitted
C and RISC-V digests) and ``tests/opt`` (rangeguard output): when a
change is intentional, rerun the suite with, e.g.

    PYTHONPATH=src python -m pytest tests/obs --update-goldens

to regenerate its ``goldens/`` files in place, then commit the diff
alongside the change that caused it.
"""


def pytest_addoption(parser):
    parser.addoption(
        "--update-goldens",
        action="store_true",
        default=False,
        help="rewrite the golden files under tests/*/goldens instead of comparing",
    )
