"""Deterministic synthetic corpora for scale testing.

Builds in-memory snapshots with exact headline counts (domains, models,
types, distinct attributes) by combining a shared hub-attribute pool with
per-type unique attributes. Hub slots are assigned by a fixed stride over
the pool, so every hub name is used and output needs no RNG.
"""

from __future__ import annotations

from ontomesh.corpus import (
    AttributeOccurrence,
    CorpusSnapshot,
    DataModelRecord,
    DomainRecord,
    TypeRecord,
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

    Every ``shared_model_every``-th model belongs to two domains so overlap
    matrices have non-zero cells.
    """
    if hubs_per_type > hub_pool:
        raise ValueError("hubs_per_type cannot exceed hub_pool")
    if n_types < n_models:
        raise ValueError("need at least one type per model")

    domains = [
        DomainRecord(domain_id=f"domain{i:02d}", display_name=f"domain{i:02d}")
        for i in range(n_domains)
    ]
    model_domains: list[frozenset[str]] = []
    models = []
    for m in range(n_models):
        ids = {f"domain{m % n_domains:02d}"}
        if shared_model_every and m % shared_model_every == 0:
            ids.add(f"domain{(m + 1) % n_domains:02d}")
        model_domains.append(frozenset(ids))
        models.append(
            DataModelRecord(
                model_id=f"model{m:02d}",
                display_name=f"model{m:02d}",
                domain_ids=frozenset(ids),
            )
        )

    hubs = [f"hub{i:03d}" for i in range(hub_pool)]
    types = []
    occurrences = []
    for t in range(n_types):
        model_idx = t % n_models
        model_id = f"model{model_idx:02d}"
        start = (t * hubs_per_type) % hub_pool
        attrs = [hubs[(start + k) % hub_pool] for k in range(hubs_per_type)]
        attrs += [f"attr{t:03d}_{k:03d}" for k in range(unique_per_type)]
        type_id = f"{model_id}/Type{t:03d}"
        types.append(
            TypeRecord(
                type_id=type_id,
                display_name=f"Type{t:03d}",
                model_id=model_id,
                attribute_names=tuple(attrs),
            )
        )
        for domain_id in sorted(model_domains[model_idx]):
            for name in attrs:
                occurrences.append(
                    AttributeOccurrence(
                        attribute_name=name,
                        type_id=type_id,
                        model_id=model_id,
                        domain_id=domain_id,
                    )
                )

    snapshot = CorpusSnapshot.assemble(
        domains=domains,
        models=models,
        types=types,
        occurrences=occurrences,
    )
    expected = n_types * unique_per_type + hub_pool
    if snapshot.counts.attributes != expected:
        raise AssertionError(
            f"generator drift: {snapshot.counts.attributes} attributes, expected {expected}"
        )
    return snapshot
