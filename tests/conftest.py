"""Session fixtures: CLI runs too slow to repeat in every test that reads them.

`replace` is the tests' one way to change a field of a record: the
package's records are plain classes, not dataclasses.
"""

import contextlib
import io
import math

import pytest

from ingletonlp import cli


def replace(record, **changes):
    """A copy of record, rebuilt from its fields, with the named fields changed."""
    return type(record)(**{**{f: getattr(record, f) for f in record._fields}, **changes})


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
def fresh_subset_text():
    """clear(): empties the process's one subset-text memo and its text tables,
    so the format_subset calls that follow can be counted; called once up front."""
    from ingletonlp import entspace

    def clear():
        entspace.SUBSET_TEXT.clear()
        entspace.text_tables.cache_clear()
    clear()
    return clear


@pytest.fixture
def highs_models(monkeypatch):
    """(ours, scipy's): the model of each HiGHS solve as HiGHS holds it when
    `simplex.linprog` runs it and as `scipy.optimize.linprog` hands it over,
    recorded as they go.

    Each model is (cost, column bounds, row bounds, start, index, value), as
    lists; each cost is paired with its sign, so a -0.0 cost must stay -0.0.
    """
    from types import SimpleNamespace

    from scipy.optimize import _linprog_highs

    from ingletonlp import simplex

    ours, theirs = [], []
    core, options = simplex._highs()

    def signed(costs):
        return [(x, math.copysign(1.0, x)) for x in costs]

    class Recorder(core._Highs):
        def run(self):  # the costs arrive after passModel, so record the model at run
            lp = self.getLp()
            a = lp.a_matrix_
            ours.append([signed(lp.col_cost_)] + [list(v) for v in (
                lp.col_lower_, lp.col_upper_, lp.row_lower_, lp.row_upper_,
                a.start_, a.index_, a.value_)])
            return super().run()

    def wrapper(c, start, index, value, row_lower, row_upper, col_lower, col_upper, *rest):
        theirs.append([signed(c)] + [list(v) for v in (col_lower, col_upper, row_lower,
                                                       row_upper, start, index, value)])
        return real(c, start, index, value, row_lower, row_upper, col_lower, col_upper, *rest)

    real = _linprog_highs._highs_wrapper
    monkeypatch.setattr(_linprog_highs, "_highs_wrapper", wrapper)
    monkeypatch.setattr(simplex, "_highs",
                        lambda: (SimpleNamespace(**{**vars(core), "_Highs": Recorder}), options))
    return ours, theirs
