"""The SparkSession settings that the jobs and the test suite share.

``get_spark`` applies the settings a session honours after its JVM has
started, so job runs and test runs execute the same query plans. Master
and driver memory are read only at JVM launch: they come from the
launch command (``spark-submit``, or ``PYSPARK_SUBMIT_ARGS``), and
without one Spark's ``local[*]`` default applies.
"""
from __future__ import annotations

import os

from pyspark.sql import SparkSession

__all__ = ["get_spark"]


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
