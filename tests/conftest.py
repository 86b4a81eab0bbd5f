import contextlib
import io
import types

import pytest

from crossroads import noncrossing_partitions
from crossroads.cli import main


@pytest.fixture(scope="session")
def nc_lists():
    """Memoized lists of noncrossing partitions, shared across test modules."""
    cache = {}

    def get(n):
        if n not in cache:
            cache[n] = list(noncrossing_partitions(n))
        return cache[n]

    return get


@pytest.fixture(scope="session")
def invoke():
    """``invoke(argv)`` runs ``crossroads.cli.main(argv)`` in this process with stdout and stderr captured.

    The result has ``exit_code``, ``stdout``, ``stderr``, ``output`` (stdout
    then stderr: the CLI writes to stderr only as it exits) and
    ``exception``. A SystemExit gives its code, and is kept as the exception
    when that code is not 0; any other exception is kept and gives exit code 1.
    """

    def run(argv) -> types.SimpleNamespace:
        out, err = io.StringIO(), io.StringIO()
        exit_code, exception = 0, None
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                main(argv)
            except SystemExit as exc:
                exit_code = 0 if exc.code is None else exc.code
                exception = exc if exit_code else None
            except Exception as exc:
                exit_code, exception = 1, exc
        stdout, stderr = out.getvalue(), err.getvalue()
        return types.SimpleNamespace(exit_code=exit_code, stdout=stdout, stderr=stderr, output=stdout + stderr,
                                     exception=exception)

    return run
