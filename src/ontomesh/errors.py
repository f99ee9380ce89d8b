"""Exception hierarchy shared by all ontomesh modules."""

from __future__ import annotations


class OntomeshError(Exception):
    """Base class for all operational errors raised by this package."""


class CorpusError(OntomeshError):
    """Corpus tree cannot be ingested (unreadable root, no domains, ...)."""


class SchemaParseError(OntomeshError):
    """A schema file is not valid JSON or violates structural expectations.

    ``offset`` is the byte/character offset at which decoding failed, when
    known.
    """

    def __init__(self, message: str, offset: int | None = None):
        super().__init__(message)
        self.offset = offset


class SnapshotInvariantError(OntomeshError):
    """A snapshot violates one of the corpus invariants."""


class FetchError(OntomeshError):
    """Remote archive could not be fetched; carries the HTTP status if any."""

    def __init__(self, message: str, status: int | None = None):
        super().__init__(message)
        self.status = status


class IntegrityError(OntomeshError):
    """Downloaded or stored bytes do not match their expected digest."""


class StoreError(OntomeshError):
    """Base class for artifact-store failures."""


class NameConflictError(StoreError):
    """An artifact name is already taken and overwrite was not requested."""


class NotFoundError(StoreError):
    """A named artifact (or domain, graph, ...) does not exist."""


class CorruptionError(StoreError):
    """Stored bytes fail hash verification."""


class ProvenanceError(OntomeshError):
    """Two artifacts that must share provenance do not."""
