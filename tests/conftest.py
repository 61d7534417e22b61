"""Session fixtures: CLI runs too slow to repeat in every test that reads them."""

import contextlib
import io

import pytest

from ingletonlp import cli


def _main(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


@pytest.fixture(scope="session")
def minimality5_run():
    """(exit code, stdout) of `check-minimality --n 5`, the n=5 drop-one scan.

    It takes a few seconds, so it runs once: the golden corpus checks its
    stdout bytes and the acceptance test re-checks every witness it prints.
    """
    return _main(["check-minimality", "--n", "5"])


@pytest.fixture(scope="session")
def cli_run_once(tmp_path_factory):
    """run(argv) -> (exit code, stdout, run directory), each argv run once a session.

    `{tmp}` in argv stands for the run's own fresh directory.  The golden
    corpus hashes the exhaustive n=4 quad scans and test_recheck re-verifies
    the files they write; both ask for the same argv, so the scans run once.
    """
    runs = {}

    def run(argv):
        if tuple(argv) not in runs:
            tmp = tmp_path_factory.mktemp("run")
            runs[tuple(argv)] = (*_main([a.replace("{tmp}", str(tmp)) for a in argv]), tmp)
        return runs[tuple(argv)]
    return run


@pytest.fixture
def highs_models(monkeypatch):
    """(ours, scipy's): the model of each HiGHS solve as `simplex.linprog` and as
    `scipy.optimize.linprog` hand it over, recorded as they go.

    Each model is (cost, column bounds, row bounds, start, index, value), as lists.
    """
    from types import SimpleNamespace

    from scipy.optimize import _linprog_highs

    from ingletonlp import simplex

    ours, theirs = [], []
    core, options = simplex._highs()

    class Recorder(core._Highs):
        def passModel(self, lp):
            a = lp.a_matrix_
            ours.append([list(v) for v in (lp.col_cost_, lp.col_lower_, lp.col_upper_,
                                           lp.row_lower_, lp.row_upper_,
                                           a.start_, a.index_, a.value_)])
            return super().passModel(lp)

    def wrapper(c, start, index, value, row_lower, row_upper, col_lower, col_upper, *rest):
        theirs.append([list(v) for v in (c, col_lower, col_upper, row_lower, row_upper,
                                         start, index, value)])
        return real(c, start, index, value, row_lower, row_upper, col_lower, col_upper, *rest)

    real = _linprog_highs._highs_wrapper
    monkeypatch.setattr(_linprog_highs, "_highs_wrapper", wrapper)
    monkeypatch.setattr(simplex, "_highs",
                        lambda: (SimpleNamespace(**{**vars(core), "_Highs": Recorder}), options))
    return ours, theirs
