"""Digests of the package's own source, for cache keys.

Two caches key their entries by the code that produced them: the result
store by the whole ``repro`` package, and the disk trace cache by the
subpackages trace bytes depend on (``repro.trace`` and
``repro.workloads``).  Both walk the source the same way, here, so the
two keys can never disagree about what counts as "the source".  The
module imports nothing from the package, so every layer can use it.
"""

from __future__ import annotations

import functools
import hashlib
import os

#: The installed ``repro`` package directory.
_PACKAGE_DIR = os.path.dirname(os.path.abspath(__file__))


@functools.lru_cache(maxsize=None)
def source_digest(*subpackages: str) -> str:
    """SHA-256 of the ``.py`` files under ``repro`` (memoized per process).

    With no arguments the whole package is digested; otherwise only the
    named subpackages (``source_digest("trace", "workloads")``), in the
    order given.  Every file contributes its path relative to the
    package and its bytes, in sorted walk order, so the digest is stable
    across processes and checkouts of the same code.
    """
    digest = hashlib.sha256()
    roots = [os.path.join(_PACKAGE_DIR, name) for name in subpackages]
    for top in roots or [_PACKAGE_DIR]:
        for root, directories, files in sorted(os.walk(top)):
            directories.sort()
            for name in sorted(files):
                if not name.endswith(".py"):
                    continue
                path = os.path.join(root, name)
                digest.update(os.path.relpath(path, _PACKAGE_DIR).encode("utf-8"))
                with open(path, "rb") as stream:
                    digest.update(stream.read())
    return digest.hexdigest()
