"""Wall-clock watchdog for evaluation cells (the paper's TO entries).

The paper uses 30 h (CPU) / 8 h (GPU) timeouts; runs here are ~1000x
smaller so benchmark cells use tens of seconds. The watchdog runs the
engine call in a separate thread under a Spark job group and cancels the
group (interrupting running tasks) if the deadline passes — a real
timeout, not an estimate.
"""
from __future__ import annotations

import threading
import uuid
from dataclasses import dataclass
from typing import Any, Callable

from pyspark.sql import SparkSession


class TimeoutError_(RuntimeError):
    """Raised (returned as a status) when a cell exceeds its budget."""


@dataclass
class CellResult:
    """Outcome of one evaluation cell: a value, or a TO/OoM marker, plus
    the cell ledger's peak and the structure that tripped an OoM."""

    status: str  # "ok" | "TO" | "OoM"
    value: Any = None
    seconds: float = 0.0
    detail: str = ""
    peak_bytes: int = 0
    oom_what: str = ""


def run_with_timeout(
    spark: SparkSession, fn: Callable[[], Any], timeout_s: float
) -> Any:
    """Run ``fn`` (which may launch Spark jobs) with a hard deadline.

    Raises ``TimeoutError_`` on expiry after cancelling the job group.
    """
    sc = spark.sparkContext
    group = f"repro-cell-{uuid.uuid4().hex[:8]}"
    out: dict[str, Any] = {}

    def body():
        sc.setJobGroup(group, "evaluation cell", interruptOnCancel=True)
        try:
            out["value"] = fn()
        except BaseException as e:  # noqa: BLE001 - must cross the thread
            out["error"] = e
        finally:
            sc.setJobGroup("", "")

    # InheritableThread propagates the job group to Spark jobs in Spark 4.
    from pyspark import InheritableThread

    t = InheritableThread(target=body)
    t.daemon = True
    t.start()
    t.join(timeout_s)
    if t.is_alive():
        sc.cancelJobGroup(group)
        t.join(5.0)
        raise TimeoutError_(f"cell exceeded {timeout_s}s")
    if "error" in out:
        raise out["error"]
    return out["value"]
