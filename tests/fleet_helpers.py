"""Module-level cell runners for the fleet and store tests.

These live in their own importable module (not inside a test file)
because fleet workers resolve the campaign runner from its
``module:qualname`` import path: the ``repro fleet worker`` subprocess
a test spawns must import the *same* runner under the *same* module
name as the in-process test did, or the content-addressed cell keys
would disagree and the fleet would never converge.  Subprocess workers
are launched with the repo root on ``sys.path`` (it is the CWD) so
``tests.fleet_helpers`` resolves identically everywhere.

Every runner is a pure function of its cell (the store/queue
determinism contract); the "tracked" variants additionally append one
line per *execution* to a log file named by the cell, which is how the
tests distinguish "served from the store / adopted from a poison
record" from "silently re-executed".
"""

import os
import time


def _touch_execution(log_dir, tag):
    """Append one line per runner start: the execution audit trail."""
    with open(os.path.join(log_dir, f"exec-{tag}.log"), "a") as fh:
        fh.write(f"{os.getpid()}\n")


def square(cell):
    """``("sq", value)`` -> deterministic arithmetic result."""
    _, value = cell
    return {"value": value, "square": value * value}


def tracked_square(cell):
    """``("tracked", value, log_dir)``: square, with an execution log."""
    _, value, log_dir = cell
    _touch_execution(log_dir, value)
    return {"value": value, "square": value * value}


def sleep_square(cell):
    """``("sleep", value, seconds)``: square after a fixed sleep."""
    _, value, seconds = cell
    time.sleep(seconds)
    return {"value": value, "square": value * value}


def fail_negative(cell):
    """``("failneg", value, log_dir)``: raises for negative values.

    The raised ``ValueError`` classifies as ``retryable``, so a cell
    that always fails exhausts its retry budget and gets poisoned.
    """
    _, value, log_dir = cell
    _touch_execution(log_dir, value)
    if value < 0:
        raise ValueError(f"cell {value} is marked to fail")
    return {"value": value, "square": value * value}


def block_while_file_exists(cell):
    """``("block", value, block_path)``: stall while the file exists.

    Lets a test park a worker *inside* a cell (holding its lease) for
    as long as the sentinel file is present — the setup for killing a
    worker mid-lease.  The 120s ceiling keeps a leaked worker from
    outliving the test run.
    """
    _, value, block_path = cell
    deadline = time.time() + 120.0
    while os.path.exists(block_path) and time.time() < deadline:
        time.sleep(0.05)
    return {"value": value, "square": value * value}
