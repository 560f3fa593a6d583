"""Re-read a zip archive's directory on ``importlib.invalidate_caches()``
only when the archive changed.

CPython's ``zipimport.zipimporter.invalidate_caches`` re-reads the whole
central directory of its archive on every call, and every package path
inside an archive on ``sys.path`` has an importer of its own. A PySpark
worker calls ``importlib.invalidate_caches()`` at the start of every
task, so each task re-reads ``pyspark.zip`` (about 1,300 entries) once
per importer cached for it: 130–230 ms per task on a 4-vCPU host.

``install`` replaces that method, once per process, with one that
re-reads an archive only when its ``(st_mtime_ns, st_size)`` differs from
the one stamped at its last read here, or when ``zipimport``'s shared
directory cache no longer holds that read. Otherwise the importer takes
the cached directory. An archive that changes, or cannot be read, is
handled as before. ``repro/__init__.py`` installs it, so a Spark task
has it once it unpickles its closure, which imports ``repro``.
"""
from __future__ import annotations

import os
import zipimport

__all__ = ["install"]

_reread = zipimport.zipimporter.invalidate_caches

# archive path -> ((st_mtime_ns, st_size) before its last read, the
# directory that read put in ``zipimport._zip_directory_cache``)
_stamped: dict = {}


def _stamp(archive: str):
    """``(st_mtime_ns, st_size)`` of ``archive``; ``None`` if it is gone."""
    try:
        st = os.stat(archive)
    except OSError:
        return None
    return st.st_mtime_ns, st.st_size


def _invalidate_caches(self) -> None:
    """Take the cached directory of an unchanged archive; re-read it
    otherwise."""
    stamp = _stamp(self.archive)
    cached = zipimport._zip_directory_cache.get(self.archive)
    last = _stamped.get(self.archive)
    if last is not None and last[0] == stamp and last[1] is cached:
        self._files = cached
        return
    _reread(self)
    cached = zipimport._zip_directory_cache.get(self.archive)
    if stamp is None or cached is None:
        _stamped.pop(self.archive, None)
    else:
        _stamped[self.archive] = (stamp, cached)


def install() -> None:
    """Make ``zipimporter.invalidate_caches`` skip unchanged archives;
    calling it again changes nothing."""
    zipimport.zipimporter.invalidate_caches = _invalidate_caches
