"""The SparkSession settings and driver-JVM probes that the jobs and the
test suite share.

``get_spark`` applies the settings a session honours after its JVM has
started, so job runs and test runs execute the same query plans. Master
and driver memory are read only at JVM launch: they come from the
launch command (``spark-submit``, or ``PYSPARK_SUBMIT_ARGS``), and
without one Spark's ``local[*]`` default applies.
``recorded_process_starts`` lists the processes the driver JVM starts.
"""
from __future__ import annotations

import json
import os
import subprocess
from contextlib import contextmanager
from typing import Iterator

from pyspark import SparkContext
from pyspark.sql import SparkSession

__all__ = ["get_spark", "recorded_process_starts"]


def get_spark(app: str) -> SparkSession:
    """The SparkSession named ``app`` (or the active one), with
    ``SPARK_SHUFFLE_PARTITIONS`` shuffle partitions (64 when unset),
    Arrow transfers on, broadcast joins off and only errors logged."""
    spark = (
        SparkSession.builder.appName(app)
        .config(
            "spark.sql.shuffle.partitions",
            os.environ.get("SPARK_SHUFFLE_PARTITIONS", "64"),
        )
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .getOrCreate()
    )
    spark.sparkContext.setLogLevel("ERROR")
    return spark


@contextmanager
def recorded_process_starts(dump: str) -> Iterator[list]:
    """Records the processes that the driver JVM starts while the block
    runs, with Java Flight Recorder (the JDK's ``jcmd`` and ``jfr``),
    into the file ``dump``. The JVM is the one this Python process
    launched. On exit the yielded list gets one ``(thread name, command
    name)`` pair per ``jdk.ProcessStart`` event, in recorded order."""
    pid, name = str(SparkContext._gateway.proc.pid), os.path.basename(dump)
    subprocess.run(
        ["jcmd", pid, "JFR.start", f"name={name}", "settings=default"],
        check=True, capture_output=True, timeout=60,
    )
    starts: list = []
    try:
        yield starts
    finally:
        subprocess.run(
            ["jcmd", pid, "JFR.stop", f"name={name}", f"filename={dump}"],
            check=True, capture_output=True, timeout=60,
        )
    printed = subprocess.run(
        ["jfr", "print", "--json", "--events", "jdk.ProcessStart", dump],
        check=True, capture_output=True, text=True, timeout=120,
    ).stdout
    starts += [
        (e["values"]["eventThread"]["javaName"],
         os.path.basename(e["values"]["command"].split()[0]))
        for e in json.loads(printed)["recording"]["events"]
    ]
