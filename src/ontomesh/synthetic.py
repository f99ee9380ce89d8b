"""Deterministic synthetic corpora for scale testing.

Builds in-memory snapshots with exact headline counts (domains, models,
types, distinct attributes) by combining a shared hub-attribute pool with
per-type unique attributes. Hub slots are assigned by a fixed stride over
the pool, so every hub name is used and output needs no RNG.
"""

from __future__ import annotations

import hashlib

from ontomesh.canonical import canonical_json_line
from ontomesh.corpus import (
    METADATA_KEYS,
    CorpusSnapshot,
    DomainColumns,
    ModelColumns,
    OccurrenceColumns,
    TypeColumns,
    _append,
    _ColumnBuilder,
)


def synthetic_snapshot(
    n_domains: int = 13,
    n_models: int = 59,
    n_types: int = 62,
    hub_pool: int = 86,
    hubs_per_type: int = 30,
    unique_per_type: int = 55,
    shared_model_every: int = 7,
) -> CorpusSnapshot:
    """Snapshot with exactly ``n_types * unique_per_type + hub_pool``
    distinct attributes (defaults give the 13/59/62/3496 magnitude).

    Type ``t`` belongs to model ``t % n_models``, and model ``m`` to domain
    ``m % n_domains``. Every ``shared_model_every``-th model (none when 0)
    also belongs to the next domain, so overlap matrices have non-zero
    cells. Arguments that cannot give such a snapshot raise
    :class:`ValueError` naming the argument.

    The content hash is sha256 over the snapshot's records (see
    :func:`_records_hash`), since no tree of files lies behind it.
    """
    _check_arguments(
        n_domains=n_domains, n_models=n_models, n_types=n_types, hub_pool=hub_pool,
        hubs_per_type=hubs_per_type, unique_per_type=unique_per_type,
        shared_model_every=shared_model_every,
    )
    columns = _ColumnBuilder()
    for d in range(n_domains):
        _append(columns.domains, f"domain{d:02d}", f"domain{d:02d}")
    for m in range(n_models):
        domains = {m % n_domains}
        if shared_model_every and m % shared_model_every == 0:
            domains.add((m + 1) % n_domains)
        _append(columns.models, f"model{m:02d}", f"model{m:02d}", sorted(domains))
    for t in range(n_types):
        m = t % n_models
        names = [f"hub{(t * hubs_per_type + k) % hub_pool:03d}" for k in range(hubs_per_type)]
        names += [f"attr{t:03d}_{k:03d}" for k in range(unique_per_type)]
        attributes = list(map(columns.attribute, names))
        row = _append(columns.types, f"model{m:02d}/Type{t:03d}", f"Type{t:03d}", m, attributes)
        for d in columns.models.domains[m]:
            for a in attributes:
                _append(columns.occurrences, a, row, d, None, None)
    fields = columns.sorted_fields()
    content_hash = _records_hash(
        fields["domains"], fields["models"], fields["types"], fields["vocabulary"],
        fields["occurrences"],
    )
    return CorpusSnapshot(content_hash=content_hash, **fields)


def _check_arguments(**counts: int) -> None:
    for name in ("n_domains", "n_models"):
        if counts[name] < 1:
            raise ValueError(f"{name} must be at least 1, not {counts[name]}")
    for name, value in counts.items():
        if value < 0:
            raise ValueError(f"{name} cannot be negative, not {value}")
    if counts["n_types"] < counts["n_models"]:
        raise ValueError("n_types cannot be less than n_models: each model needs a type")
    if counts["hubs_per_type"] > counts["hub_pool"]:
        raise ValueError("hubs_per_type cannot exceed hub_pool")
    if counts["hubs_per_type"] + counts["unique_per_type"] < 1:
        raise ValueError(
            "hubs_per_type and unique_per_type cannot both be 0: each type needs an attribute"
        )
    if counts["n_types"] * counts["hubs_per_type"] < counts["hub_pool"]:
        raise ValueError("hub_pool cannot exceed n_types * hubs_per_type: every hub is used")


def _records_hash(
    d: DomainColumns, m: ModelColumns, t: TypeColumns, vocabulary: tuple[str, ...],
    o: OccurrenceColumns,
) -> str:
    """sha256 over the canonical JSON line of every record, each followed by
    a newline: domains, models, types and occurrences, in record-key order,
    which is the order of the sorted columns."""
    docs = [
        {"kind": "domain", "domain_id": domain_id, "display_name": name}
        for domain_id, name in zip(*d)
    ]
    docs += [
        {"kind": "model", "model_id": model_id, "display_name": name,
         "domain_ids": [d.id[i] for i in ds]}
        for model_id, name, ds in zip(*m)
    ]
    docs += [
        {"kind": "type", "type_id": type_id, "display_name": name,
         "model_id": m.id[model], "attribute_names": [vocabulary[a] for a in attributes]}
        for type_id, name, model, attributes in zip(*t)
    ]
    docs += [
        {"kind": "occurrence", "attribute_name": vocabulary[a], "type_id": t.id[ti],
         "model_id": m.id[t.model[ti]], "domain_id": d.id[di],
         "metadata": {key: value for key, value in zip(METADATA_KEYS, metadata)
                      if value is not None}}
        for a, ti, di, *metadata in zip(*o)
    ]
    digest = hashlib.sha256()
    for doc in docs:
        digest.update(canonical_json_line(doc).encode("utf-8"))
        digest.update(b"\n")
    return digest.hexdigest()
