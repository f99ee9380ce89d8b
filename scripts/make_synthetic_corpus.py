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
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from ontomesh.synthetic import synthetic_snapshot  # noqa: E402


def write_tree(snapshot, root: Path) -> int:
    """One schema file per type, under every domain its model belongs to."""
    domains, models, types = snapshot.domains, snapshot.models, snapshot.types
    files = 0
    for name, model, attributes in zip(types.display_name, types.model, types.attributes):
        doc = {
            "title": name,
            "type": "object",
            "properties": {snapshot.vocabulary[a]: {} for a in attributes},
        }
        text = json.dumps(doc, indent=2) + "\n"
        for domain in models.domains[model]:
            model_dir = root / domains.id[domain] / models.id[model]
            model_dir.mkdir(parents=True, exist_ok=True)
            (model_dir / f"{name}.json").write_text(text, encoding="utf-8")
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

    try:
        snapshot = synthetic_snapshot(
            n_domains=args.domains,
            n_models=args.models,
            n_types=args.types,
            hub_pool=args.hub_pool,
            hubs_per_type=args.hubs_per_type,
            unique_per_type=args.unique_per_type,
        )
    except ValueError as exc:
        parser.error(str(exc))
    c = snapshot.counts
    print(f"domains={c.domains} models={c.models} types={c.types} attributes={c.attributes}")
    files = write_tree(snapshot, Path(args.tree))
    print(f"wrote {files} schema files under {args.tree}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
