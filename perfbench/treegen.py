"""Seeded schema trees for the benchmark, independent of ``ontomesh``.

A tree is ``<root>/<domain>/<model>/<Type>.json``, one file per type under
every domain its model belongs to. Each type draws its attributes from a
global hub pool, a pool private to its model's home domain, attributes of its
own, and (as an ``allOf`` block) a small base pool shared by everything. The
generator returns the records it wrote, so that checks compare the program's
outputs against what is on disk rather than against the program itself.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

_VALUE_TYPES = ("string", "number", "integer", "boolean", "array", "object")
_WORDS = (
    "observed", "value", "of", "the", "measured", "sensor", "reading", "at",
    "station", "reference", "to", "an", "entity", "date", "when", "record",
    "was", "created", "modified", "unit", "code", "name", "identifier",
    "location", "status", "level", "rate", "count", "owner", "source",
)


@dataclass(frozen=True)
class Shape:
    """Make-up of a tree. Pools are drawn from without repetition inside a
    type, so every type has exactly ``hubs + local + unique + base``
    attributes."""

    domains: int
    models: int
    types: int
    hub_pool: int
    hubs: int
    local_pool: int = 0
    local: int = 0
    unique: int = 0
    base_pool: int = 0
    base: int = 0
    shared_models: int = 0
    metadata: bool = False


SHAPES = {
    # 13/59/62/3496: the paper's corpus size; 85 attributes per type make a
    # dense co-occurrence graph (about 207k edges on 3630 nodes).
    "paper": Shape(domains=13, models=59, types=62, hub_pool=86, hubs=30,
                   unique=55, shared_models=8),
    # Many types with few attributes: a sparse graph (about 6.3k nodes, 58k
    # edges) where betweenness dominates.
    "sparse": Shape(domains=13, models=280, types=1200, hub_pool=400, hubs=3,
                    local_pool=170, local=4, unique=2, shared_models=14),
    # Thousands of small schema files with descriptions, value types and an
    # allOf base block, as real data-model corpora have.
    "many": Shape(domains=13, models=600, types=7000, hub_pool=120, hubs=1,
                  local_pool=300, local=3, unique=2, base_pool=12, base=3,
                  shared_models=55, metadata=True),
}


@dataclass
class Tree:
    """What the generator wrote: ``models`` maps a model to its domains,
    ``types`` maps a type id (``model/Type``) to its attributes in the order
    a parser reading the file meets them."""

    root: Path
    domains: list[str]
    models: dict[str, list[str]]
    types: dict[str, tuple[str, ...]]
    files: int

    def type_model(self, type_id: str) -> str:
        return type_id.split("/", 1)[0]

    def vocabularies(self) -> dict[str, set[str]]:
        """Each domain's attribute names."""
        vocab: dict[str, set[str]] = {d: set() for d in self.domains}
        for type_id, attrs in self.types.items():
            for domain in self.models[self.type_model(type_id)]:
                vocab[domain].update(attrs)
        return vocab

    def counts(self) -> dict[str, int]:
        attributes = set()
        for attrs in self.types.values():
            attributes.update(attrs)
        return {
            "domains": len(self.domains),
            "models": len(self.models),
            "types": len(self.types),
            "attributes": len(attributes),
        }


def _names(rng: random.Random, prefix: str, n: int, taken: set[str]) -> list[str]:
    out = []
    while len(out) < n:
        name = prefix + "".join(rng.choice("abcdefghijklmnopqrstuvwxyz") for _ in range(7))
        if name not in taken:
            taken.add(name)
            out.append(name)
    return out


def _declaration(rng: random.Random, metadata: bool) -> dict:
    if not metadata:
        return {}
    words = rng.sample(_WORDS, rng.randint(3, 8))
    return {"type": rng.choice(_VALUE_TYPES), "description": " ".join(words).capitalize()}


def generate(shape: Shape, seed: int, root: Path | str) -> Tree:
    """Write the tree for ``shape`` under ``root`` (which must not exist)
    and return its records. The same shape and seed write the same bytes."""
    if shape.types < shape.models:
        raise ValueError("need at least one type per model")
    if shape.shared_models > shape.models or (shape.shared_models and shape.domains < 2):
        raise ValueError("cannot share that many models")
    rng = random.Random(seed)
    taken: set[str] = set()
    domains = _names(rng, "d", shape.domains, taken)
    model_names = _names(rng, "m", shape.models, taken)
    hubs = _names(rng, "h", shape.hub_pool, taken)
    base = _names(rng, "b", shape.base_pool, taken)
    local = {d: _names(rng, "l", shape.local_pool, taken) for d in domains}

    # Round-robin homes over a shuffled domain order, so every domain has
    # models; some models also sit under a second domain.
    order = rng.sample(domains, len(domains))
    home = {m: order[i % len(order)] for i, m in enumerate(model_names)}
    models = {m: [home[m]] for m in model_names}
    for m in rng.sample(model_names, shape.shared_models):
        models[m].append(rng.choice([d for d in domains if d != home[m]]))
    models = {m: sorted(ds) for m, ds in models.items()}

    # Every model gets one type; the rest go to random models.
    owners = rng.sample(model_names, len(model_names))
    owners += [rng.choice(model_names) for _ in range(shape.types - len(model_names))]
    # Consecutive windows over a shuffled hub pool use every hub once the
    # windows cover it, as in the paper's corpus where all hubs occur.
    hub_order = rng.sample(hubs, len(hubs))
    types: dict[str, tuple[str, ...]] = {}
    docs: dict[str, list[tuple[str, dict]]] = {m: [] for m in model_names}
    for t, model in enumerate(owners):
        (type_name,) = _names(rng, "T", 1, taken)
        start = (t * shape.hubs) % max(len(hubs), 1)
        own = [hub_order[(start + k) % len(hubs)] for k in range(shape.hubs)]
        own += rng.sample(local[home[model]], shape.local)
        own += _names(rng, "u", shape.unique, taken)
        inherited = rng.sample(base, shape.base)
        doc: dict = {
            "title": type_name,
            "type": "object",
            "properties": {a: _declaration(rng, shape.metadata) for a in own},
        }
        if inherited:
            doc["allOf"] = [
                {"properties": {a: _declaration(rng, shape.metadata) for a in inherited}}
            ]
        types[f"{model}/{type_name}"] = tuple(own + inherited)
        docs[model].append((type_name, doc))

    root = Path(root)
    files = 0
    for model, type_docs in docs.items():
        for domain in models[model]:
            model_dir = root / domain / model
            model_dir.mkdir(parents=True)
            for type_name, doc in type_docs:
                (model_dir / f"{type_name}.json").write_text(
                    json.dumps(doc, indent=2) + "\n", encoding="utf-8"
                )
                files += 1
    return Tree(root=root, domains=sorted(domains), models=models, types=types, files=files)
