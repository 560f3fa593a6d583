"""EMD Globalizer, a PySpark reproduction.

Importing the package installs ``repro._zipcache``: Spark tasks import
it when they unpickle their closures, and from then on the worker's
per-task ``importlib.invalidate_caches()`` stops re-reading unchanged
zip archives such as ``pyspark.zip``.
"""
from repro import _zipcache

_zipcache.install()
