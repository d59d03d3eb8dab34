"""Definition 1 against exact counts, and the environment every result records."""

from __future__ import annotations

import importlib.util
import os
import platform
from typing import Any, Dict, List, Mapping

import numpy as np


def definition1_violations(report: Mapping[int, float], counts: np.ndarray,
                           epsilon: float, phi: float) -> List[str]:
    """Every way ``report`` breaks the (epsilon, phi) guarantee on a stream with ``counts``.

    Every item with f > phi*m must be reported, no reported item may have
    f <= (phi - epsilon)*m, and every reported estimate must be within epsilon*m.
    """
    m = int(counts.sum())
    violations = []
    for item in np.flatnonzero(counts > phi * m).tolist():
        if item not in report:
            violations.append(f"heavy item {item} (f={int(counts[item])}) not reported")
    for item, estimate in sorted(report.items()):
        if not 0 <= item < counts.size:
            violations.append(f"reported item {item} is outside the universe")
            continue
        frequency = int(counts[item])
        if frequency <= (phi - epsilon) * m:
            violations.append(f"light item {item} (f={frequency}) reported")
        if abs(estimate - frequency) > epsilon * m:
            violations.append(f"item {item}: estimate {estimate} is off f={frequency} "
                              f"by more than eps*m={epsilon * m}")
    return violations


def filesystem_of(path: str) -> str:
    """The type of the filesystem holding ``path`` (longest matching mount point)."""
    path = os.path.realpath(path)
    best, kind = "", "unknown"
    with open("/proc/mounts", encoding="utf-8") as handle:
        for line in handle:
            fields = line.split()
            if len(fields) < 3:
                continue
            mount = fields[1]
            inside = path == mount or path.startswith(mount.rstrip("/") + "/")
            if inside and len(mount) > len(best):
                best, kind = mount, fields[2]
    return kind


def git_commit(root: str) -> str:
    """The checkout's commit read from ``.git`` directly, or ``unknown`` outside a repo."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        try:
            with open(os.path.join(git, ref), encoding="utf-8") as handle:
                return handle.read().strip()
        except FileNotFoundError:
            with open(os.path.join(git, "packed-refs"), encoding="utf-8") as handle:
                for line in handle:
                    if line.rstrip().endswith(" " + ref):
                        return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(root: str, work: str, seed: int) -> Dict[str, Any]:
    return {
        "cpu_count": os.cpu_count(),
        "sched_affinity": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "wal_checksum": "crc32c" if importlib.util.find_spec("crc32c") else "zlib",
        "wal_filesystem": filesystem_of(work),
        "git_commit": git_commit(root),
        "seed": seed,
    }
