#!/usr/bin/env python3
"""Generate a synthetic corpus at a chosen scale.

Materializes the snapshot as a real directory tree of JSON schema files, so
the full ingest path can be exercised:

    python3 scripts/make_synthetic_corpus.py --tree big-corpus/
    ontomesh ingest big-corpus --name big
"""

import argparse
import json
import sys
from collections import defaultdict
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from ontomesh.synthetic import synthetic_snapshot  # noqa: E402


def write_tree(snapshot, root: Path) -> int:
    """One schema file per type, under every domain its model belongs to."""
    models = {m.model_id: m for m in snapshot.models}
    types_by_model = defaultdict(list)
    for t in snapshot.types:
        types_by_model[t.model_id].append(t)
    files = 0
    for model_id, type_records in sorted(types_by_model.items()):
        for domain_id in sorted(models[model_id].domain_ids):
            model_dir = root / domain_id / model_id
            model_dir.mkdir(parents=True, exist_ok=True)
            for t in type_records:
                doc = {
                    "title": t.display_name,
                    "type": "object",
                    "properties": {name: {} for name in t.attribute_names},
                }
                (model_dir / f"{t.display_name}.json").write_text(
                    json.dumps(doc, indent=2) + "\n", encoding="utf-8"
                )
                files += 1
    return files


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--domains", type=int, default=13)
    parser.add_argument("--models", type=int, default=59)
    parser.add_argument("--types", type=int, default=62)
    parser.add_argument("--hub-pool", type=int, default=86)
    parser.add_argument("--hubs-per-type", type=int, default=30)
    parser.add_argument("--unique-per-type", type=int, default=55)
    parser.add_argument("--tree", required=True, help="write the schema-file tree here")
    args = parser.parse_args()

    snapshot = synthetic_snapshot(
        n_domains=args.domains,
        n_models=args.models,
        n_types=args.types,
        hub_pool=args.hub_pool,
        hubs_per_type=args.hubs_per_type,
        unique_per_type=args.unique_per_type,
    )
    c = snapshot.counts
    print(f"domains={c.domains} models={c.models} types={c.types} attributes={c.attributes}")
    files = write_tree(snapshot, Path(args.tree))
    print(f"wrote {files} schema files under {args.tree}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
