"""Tests for ``repro._zipcache``: ``importlib.invalidate_caches()`` re-reads
a zip archive on ``sys.path`` only when the archive changed."""
import importlib
import os
import sys
import zipfile
import zipimport

import pandas as pd
import pytest

from repro import _zipcache  # importing repro installs it, as in every Spark task


def _write_package(path, value: str) -> None:
    with zipfile.ZipFile(path, "w") as z:
        z.writestr("zipcache_pkg/__init__.py", "")
        z.writestr("zipcache_pkg/mod.py", f"VALUE = {value!r}\n")


@pytest.fixture
def zipped_package(tmp_path, monkeypatch):
    """An archive on ``sys.path`` holding ``zipcache_pkg.mod``, imported
    once, and a list of the archives ``zipimport._read_directory`` reads
    from then on."""
    archive = str(tmp_path / "pkg.zip")
    _write_package(archive, "old")
    monkeypatch.syspath_prepend(archive)
    assert importlib.import_module("zipcache_pkg.mod").VALUE == "old"
    reads = []
    read = zipimport._read_directory

    def counting(path):
        reads.append(path)
        return read(path)

    monkeypatch.setattr(zipimport, "_read_directory", counting)
    yield archive, reads
    for name in ("zipcache_pkg.mod", "zipcache_pkg"):
        sys.modules.pop(name, None)
    for path in [p for p in sys.path_importer_cache if p.startswith(archive)]:
        del sys.path_importer_cache[path]
    zipimport._zip_directory_cache.pop(archive, None)
    _zipcache._stamped.pop(archive, None)


def test_unchanged_archive_is_not_read_again(zipped_package):
    archive, reads = zipped_package
    importlib.invalidate_caches()
    assert reads.count(archive) <= 1  # stamps the archive, once for all its importers
    reads.clear()
    importlib.invalidate_caches()
    importlib.invalidate_caches()
    assert reads.count(archive) == 0


def test_rewritten_archive_is_read_again(zipped_package):
    archive, reads = zipped_package
    importlib.invalidate_caches()
    st = os.stat(archive)
    _write_package(archive, "rewritten")
    os.utime(archive, ns=(st.st_atime_ns, st.st_mtime_ns + 1_000_000_000))
    reads.clear()
    importlib.invalidate_caches()
    assert reads.count(archive) >= 1
    del sys.modules["zipcache_pkg.mod"]
    assert importlib.import_module("zipcache_pkg.mod").VALUE == "rewritten"


def test_spark_task_reads_no_unchanged_archive(spark):
    """In a Python worker, once the fix has seen each archive, a task's
    ``importlib.invalidate_caches()`` reads none of them."""

    def count_reads(batches):
        import importlib
        import zipimport

        import repro  # noqa: F401

        for _ in batches:
            pass
        importlib.invalidate_caches()  # stamps what the worker read unpatched
        n_importers = sum(
            isinstance(f, zipimport.zipimporter) for f in sys.path_importer_cache.values()
        )
        reads = []
        read = zipimport._read_directory

        def counting(path):
            reads.append(path)
            return read(path)

        zipimport._read_directory = counting
        try:
            importlib.invalidate_caches()
        finally:
            zipimport._read_directory = read
        yield pd.DataFrame({"zip_importers": [n_importers], "reads": [len(reads)]})

    out = (
        spark.range(1).coalesce(1)
        .mapInPandas(count_reads, schema="zip_importers long, reads long")
        .toPandas()
    )
    if out["zip_importers"].iat[0] == 0:
        pytest.skip("the Python workers import nothing from a zip archive")
    assert out["reads"].iat[0] == 0
