"""Packed (mmap-able) columnar database snapshots.

:mod:`repro.store.packdb` is ``repro store pack-db`` output: a columnar
on-disk :class:`~repro.bio.database.SequenceDatabase` snapshot whose
residue/id/description columns are opened with
``np.load(..., mmap_mode="r")``, so N replica processes share the page
cache instead of materializing N private heaps (see docs/storage.md).
"""

from repro.store.packdb import (
    PackedDatabase,
    PackedDatabaseError,
    PackedDatabaseRef,
    open_packed,
    pack_database,
)

__all__ = [
    "PackedDatabase",
    "PackedDatabaseError",
    "PackedDatabaseRef",
    "open_packed",
    "pack_database",
]
