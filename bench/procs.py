"""The harness owns every process the benchmark starts.

Each child runs in a session of its own, so the child and whatever it
spawns (shard workers, pool workers) can be found and stopped as one
group even after the child itself died.  ``ChildSet.close`` runs on
every exit path and reports the processes that outlived a polite stop;
the harness counts each as a failure.
"""

from __future__ import annotations

import os
import signal
import subprocess
import time
from pathlib import Path

PROC = Path("/proc")


def _stat(pid: int) -> tuple[str, int, int] | None:
    """(state, ppid, session) of a process, None once it is gone."""
    try:
        text = (PROC / str(pid) / "stat").read_text()
    except OSError:
        return None
    # the command name sits in parentheses and may itself contain spaces
    fields = text[text.rindex(")") + 2 :].split()
    return fields[0], int(fields[1]), int(fields[3])


def _live_pids() -> dict[int, tuple[str, int, int]]:
    out = {}
    for entry in PROC.iterdir() if PROC.is_dir() else ():
        if entry.name.isdigit():
            stat = _stat(int(entry.name))
            if stat is not None and stat[0] != "Z":
                out[int(entry.name)] = stat
    return out


def descendants(root: int) -> list[int]:
    """Live processes below ``root`` in the process tree."""
    live = _live_pids()
    found: list[int] = []
    frontier = [root]
    while frontier:
        parent = frontier.pop()
        kids = [pid for pid, (_s, ppid, _sid) in live.items() if ppid == parent]
        found.extend(kids)
        frontier.extend(kids)
    return found


def session_members(session: int) -> list[int]:
    return [pid for pid, (_s, _p, sid) in _live_pids().items() if sid == session]


def peak_rss_mb(pids) -> float:
    """Sum of the peak resident set sizes (VmHWM) of live processes."""
    total_kb = 0
    for pid in pids:
        try:
            status = (PROC / str(pid) / "status").read_text()
        except OSError:
            continue
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                total_kb += int(line.split()[1])
    return total_kb / 1024.0


class ChildSet:
    """Spawn, stop and account for the harness's child processes."""

    def __init__(self, env: dict[str, str]):
        self.env = env
        self._children: list[subprocess.Popen] = []
        self.leaked: list[int] = []

    def spawn(self, argv: list[str], **popen_kwargs) -> subprocess.Popen:
        proc = subprocess.Popen(
            argv, env=self.env, start_new_session=True, **popen_kwargs
        )
        self._children.append(proc)
        return proc

    def stop(self, proc: subprocess.Popen, timeout: float = 15.0) -> None:
        """SIGTERM, wait, then kill whatever is left of the session."""
        if proc.poll() is None:
            proc.send_signal(signal.SIGTERM)
            try:
                proc.wait(timeout=timeout)
            except subprocess.TimeoutExpired:
                pass
        self.reap(proc)

    def reap(self, proc: subprocess.Popen) -> None:
        """Account for a child that should be gone, with all it started."""
        deadline = time.monotonic() + 2.0
        while (left := session_members(proc.pid)) and time.monotonic() < deadline:
            time.sleep(0.02)
        if left:
            self.leaked.extend(left)
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except OSError:
                pass
        proc.wait()
        if proc in self._children:
            self._children.remove(proc)

    def close(self) -> list[int]:
        """Stop every child; returns the pids that had to be killed."""
        for proc in list(self._children):
            self.stop(proc, timeout=5.0)
        # in-process engines spawn shard workers as direct children
        strays = descendants(os.getpid())
        for pid in strays:
            try:
                os.kill(pid, signal.SIGKILL)
            except OSError:
                pass
        self.leaked.extend(strays)
        return self.leaked
