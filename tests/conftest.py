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
