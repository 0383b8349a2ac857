import os
import sys

import pytest


@pytest.fixture
def body_runs():
    """body_runs(fn, call) -> how many times call() ran the body of the
    @cached function fn; it is 0 when every call was a cache hit."""

    def count(fn, call):
        code = fn.__wrapped__.__code__
        runs = 0

        def profile(frame, event, arg):
            nonlocal runs
            if event == "call" and frame.f_code is code:
                runs += 1

        sys.setprofile(profile)
        try:
            call()
        finally:
            sys.setprofile(None)
        return runs

    return count


@pytest.fixture
def no_child_left():
    """no_child_left() fails if this process has a child it has not reaped,
    such as a pool worker that outlived its run: with none, waitpid raises."""

    def check():
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    return check
