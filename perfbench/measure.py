"""Output checks, end-to-end metrics and memory sampling for one run.

Everything here is pure bookkeeping over :class:`workloads.Iteration`
records, so the self-tests can drive it with hand-made iterations.
"""

from __future__ import annotations

import os
import re
import statistics
from pathlib import Path
from typing import Dict, Iterable, List, Sequence, Tuple

#: ``(name, unit)`` of the end-to-end metrics ``BENCHMARK.json`` gates
#: on, in its order.  Host time unless the name starts with ``sim_``.
END_TO_END = (
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("txn_per_s", "1/s"),
    ("pkt_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)
#: Host-speed metrics withheld from a run whose outputs are wrong.
SPEEDS = ("wall_s", "txn_per_s", "pkt_per_s")
#: Reported for reading, not gated: they are 0 or bit-identical on every
#: run, so a share-of-median bound means nothing for them.  The digests
#: already pin every simulated value.
REPORTED = (
    ("failed_ratio", "ratio"),
    ("sim_p99_us", "us"),
    ("sim_burst_us", "us"),
    ("sim_mlc_wb_per_rx", "ratio"),
    ("paper_exe_ratio_err", "ratio"),
)

def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """``(p25, median, p75)``; one sample is its own quartiles."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


# ----------------------------------------------------------------------
# output checks
# ----------------------------------------------------------------------


def check(
    iterations: Iterable, expected: Dict[str, str], expected_cache=None
) -> Tuple[int, int, List[str]]:
    """``(attempted, failed, problems)`` over a run's iterations.

    An experiment fails when its digest differs from the recorded one
    (a failed or timed-out cell has no digest, so it fails too).  An
    iteration whose cache traffic differs from ``expected_cache`` fails
    as a whole: its timings measured the wrong path.
    """
    attempted = failed = 0
    problems: List[str] = []
    for number, it in enumerate(iterations):
        bad = set()
        for key, want in expected.items():
            got = it.digests.get(key, "")
            if got != want:
                bad.add(key)
                problems.append(
                    f"iteration {number}: {key} digest {got[:12] or '<none>'} "
                    f"!= recorded {want[:12]}"
                )
        for key in sorted(set(it.digests) - set(expected)):
            bad.add(key)
            problems.append(f"iteration {number}: unexpected experiment {key}")
        if expected_cache is not None and it.cache != expected_cache:
            bad.update(expected)
            problems.append(
                f"iteration {number}: cache traffic {it.cache} != {expected_cache}"
            )
        attempted += max(len(expected), len(it.digests))
        failed += len(bad)
    return attempted, failed, problems


def result(
    metrics: Dict[str, Tuple[float, str]],
    gated: Sequence[str],
    attempted: int,
    failed: int,
    problems: Sequence[str],
) -> Tuple[Dict[str, Tuple[float, str]], Dict]:
    """``(metrics to print, the JSON result line)``.

    A run with any problem is not correct and reports no speed: a
    faster simulator must leave every simulated statistic identical.
    """
    correct = not problems and not failed
    shown = {k: v for k, v in metrics.items() if correct or k not in SPEEDS}
    line = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in shown.items()
            if name in gated
        },
    }
    return shown, line


# ----------------------------------------------------------------------
# end-to-end metrics
# ----------------------------------------------------------------------


def end_to_end(iterations: Sequence, setup_s: float, peak_rss_mb: float) -> Dict:
    """Every end-to-end and reported metric: ``{name: (value, unit)}``."""
    walls = [it.wall_s for it in iterations]
    _, wall, _ = quartiles(walls)
    _, txn_rate, _ = quartiles([it.txn / it.wall_s for it in iterations])
    _, pkt_rate, _ = quartiles([it.packets / it.wall_s for it in iterations])
    values = {
        "wall_s": wall,
        "setup_s": setup_s,
        "txn_per_s": txn_rate,
        "pkt_per_s": pkt_rate,
        "peak_rss_mb": peak_rss_mb,
    }
    values.update(iterations[0].sim)
    units = dict(END_TO_END + REPORTED)
    return {name: (value, units[name]) for name, value in values.items()}


# ----------------------------------------------------------------------
# memory
# ----------------------------------------------------------------------


def _hwm_kb(pid) -> int:
    """Peak resident set (``VmHWM``) of a live process, in KiB."""
    try:
        text = Path(f"/proc/{pid}/status").read_text()
    except OSError:
        return 0
    match = re.search(r"^VmHWM:\s+(\d+)\s+kB", text, re.M)
    return int(match.group(1)) if match else 0


def _children() -> List[int]:
    pids: List[int] = []
    for task in Path("/proc/self/task").iterdir():
        try:
            pids += [int(p) for p in (task / "children").read_text().split()]
        except OSError:
            continue
    return pids


class RssTracker:
    """Peak resident memory of this process plus its pool workers.

    Workers are sampled by :meth:`sample_children` before each pool
    shutdown; the peak is the largest sum seen, added to this process's
    own high-water mark.
    """

    def __init__(self) -> None:
        self.children_kb = 0

    def sample_children(self) -> None:
        total = sum(_hwm_kb(pid) for pid in _children() if pid != os.getpid())
        self.children_kb = max(self.children_kb, total)

    def peak_mb(self) -> float:
        return (_hwm_kb("self") + self.children_kb) / 1024.0
