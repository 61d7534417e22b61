"""Session fixtures: CLI runs too slow to repeat in every test that reads them."""

import contextlib
import io

import pytest

from ingletonlp import cli


@pytest.fixture(scope="session")
def minimality5_run():
    """(exit code, stdout) of `check-minimality --n 5`, the n=5 drop-one scan.

    It takes a few seconds, so it runs once: the golden corpus checks its
    stdout bytes and the acceptance test re-checks every witness it prints.
    """
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["check-minimality", "--n", "5"])
    return code, out.getvalue()
