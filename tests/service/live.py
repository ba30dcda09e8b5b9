"""Start and tear down a live ``repro-mut serve`` subprocess for tests.

The server runs in its own session, so teardown can SIGKILL the whole
process group: the server *and* any worker processes it forked.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator, Tuple

from repro.service.client import ServiceClient

REPO_ROOT = Path(__file__).resolve().parent.parent.parent


@contextmanager
def serve_subprocess(
    *args: str,
) -> Iterator[Tuple[subprocess.Popen, ServiceClient]]:
    """``repro-mut serve --port 0 *args``; yields (process, client)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve", "--port", "0", *args],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
        text=True,
        start_new_session=True,
    )
    try:
        ready = proc.stdout.readline()
        assert "listening on" in ready, f"server never came up: {ready!r}"
        url = ready.strip().split()[-1]
        yield proc, ServiceClient(url, timeout=60.0)
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass  # the server and all its workers already exited
        proc.wait(timeout=10)
        proc.stdout.close()
        proc.stderr.close()


def process_running(pid: int) -> bool:
    """Whether ``pid`` is a live (not exited, not zombie) process."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            # The state letter follows the parenthesised command name.
            state = handle.read().rsplit(")", 1)[1].split()[0]
    except FileNotFoundError:
        return False
    except OSError:
        try:
            os.kill(pid, 0)
        except ProcessLookupError:
            return False
        return True
    return state not in ("Z", "X")
