"""Leak checks run after every pool or service shutdown, and the host
metadata recorded with every run."""

from __future__ import annotations

import hashlib
import os
import platform
import re
from dataclasses import dataclass, field
from pathlib import Path

#: ``NodeStore._write_atomic`` names its temp file
#: ``<name>.<pid>-<thread id>.tmp``; the pid says which worker wrote it
_TMP_PID = re.compile(r"\.(\d+)-\d+\.tmp$")


@dataclass
class Leaks:
    """What one shutdown left behind."""

    live_pids: list[int] = field(default_factory=list)
    tmp_files: list[str] = field(default_factory=list)
    #: ``.tmp`` files written by a worker the workload SIGKILLed on
    #: purpose: the documented ``_write_atomic`` crash window, counted
    #: but not a failure
    crash_window_tmp: int = 0
    shm_segments: list[str] = field(default_factory=list)
    fd_delta: int = 0

    @property
    def clean(self) -> bool:
        return not (self.live_pids or self.tmp_files or self.shm_segments
                    or self.fd_delta > 0)

    def describe(self) -> str:
        parts = []
        if self.live_pids:
            parts.append(f"live worker pids {self.live_pids}")
        if self.tmp_files:
            parts.append(f"{len(self.tmp_files)} stray .tmp files "
                         f"(first {self.tmp_files[0]})")
        if self.shm_segments:
            parts.append(f"shm segments {self.shm_segments[:3]}")
        if self.fd_delta > 0:
            parts.append(f"{self.fd_delta} fds above baseline")
        return "; ".join(parts) or "clean"


def open_fds() -> int:
    """Open file descriptors of this process."""
    return len(os.listdir("/proc/self/fd"))


def pid_alive(pid: int) -> bool:
    """True while ``pid`` exists and is not a zombie."""
    try:
        with open(f"/proc/{pid}/stat", "rb") as fh:
            stat = fh.read()
    except OSError:
        return False
    # the state letter follows the parenthesised command name
    return stat[stat.rfind(b")") + 2:][:1] != b"Z"


def check_leaks(workdir: Path, pids, killed_pids=(), fd_baseline: int = 0,
                shm_dir: Path = Path("/dev/shm"),
                shm_prefix: str | None = None,
                fds_now: int | None = None) -> Leaks:
    """Inspect what a shut-down pool left behind.

    ``pids`` are every worker pid the pool ran; ``killed_pids`` those the
    workload SIGKILLed (their ``.tmp`` files fall in the crash window).
    ``shm_prefix`` names this run's shared-memory segments."""
    leaks = Leaks()
    leaks.live_pids = sorted(p for p in set(pids) if p and pid_alive(p))
    killed = {int(p) for p in killed_pids}
    workdir = Path(workdir)
    if workdir.is_dir():
        for path in sorted(workdir.rglob("*.tmp")):
            match = _TMP_PID.search(path.name)
            if match and int(match.group(1)) in killed:
                leaks.crash_window_tmp += 1
            else:
                leaks.tmp_files.append(str(path.relative_to(workdir)))
    if shm_prefix and shm_dir.is_dir():
        leaks.shm_segments = sorted(n for n in os.listdir(shm_dir)
                                    if n.startswith(shm_prefix))
    now = open_fds() if fds_now is None else fds_now
    leaks.fd_delta = now - fd_baseline
    return leaks


def read_hwm_kib(pid: int) -> int:
    """High-water resident set (``VmHWM``) of ``pid`` in KiB, 0 if gone."""
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def source_digest(root: Path) -> str:
    """SHA-1 over ``src/`` (paths and bytes): identifies the code measured
    when the checkout carries no git metadata."""
    h = hashlib.sha1()
    for path in sorted((root / "src").rglob("*.py")):
        h.update(str(path.relative_to(root)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:12]


def git_commit(root: Path) -> str | None:
    """The checked-out commit, read from ``.git`` without running git."""
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (root / ".git" / ref[5:]).read_text().strip()[:12]
        return ref[:12]
    except OSError:
        return None


def host_metadata(root: Path) -> dict:
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:  # pragma: no cover - numpy is a hard dependency
        numpy_version = None
    try:
        affinity = sorted(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        affinity = None
    return {
        "cpu_count": os.cpu_count(),
        "affinity": affinity,
        "loadavg": [round(x, 2) for x in os.getloadavg()],
        "python": platform.python_version(),
        "numpy": numpy_version,
        "commit": git_commit(root),
        "src_digest": source_digest(root),
    }
