from __future__ import annotations

from pathlib import Path

import pytest

from ontomesh.corpus import CorpusSnapshot, ingest_corpus
from ontomesh.graph import build_graph

from oracles import (
    AttributeOccurrence,
    DataModelRecord,
    DomainRecord,
    TypeRecord,
    assemble_reference,
)

FIXTURES = Path(__file__).parent / "fixtures"


@pytest.fixture(scope="session")
def fix1_root() -> Path:
    return FIXTURES / "fix1"


@pytest.fixture(scope="session")
def broken_root() -> Path:
    return FIXTURES / "fix-broken"


@pytest.fixture(scope="session")
def fix1_snapshot(fix1_root):
    return ingest_corpus(fix1_root)


@pytest.fixture(scope="session")
def fix1_graph(fix1_snapshot):
    return build_graph(fix1_snapshot)


def minimal_snapshot() -> CorpusSnapshot:
    """One domain, one model, one two-attribute type (the worked example)."""
    return assemble_reference(
        domains=[DomainRecord("SmartCities", "SmartCities")],
        models=[
            DataModelRecord("UrbanMobility", "UrbanMobility", frozenset({"SmartCities"}))
        ],
        types=[
            TypeRecord(
                "UrbanMobility/ArrivalEstimation",
                "ArrivalEstimation",
                "UrbanMobility",
                ("dataProvider", "hasTrip"),
            )
        ],
        occurrences=[
            AttributeOccurrence(
                "dataProvider", "UrbanMobility/ArrivalEstimation", "UrbanMobility", "SmartCities"
            ),
            AttributeOccurrence(
                "hasTrip", "UrbanMobility/ArrivalEstimation", "UrbanMobility", "SmartCities"
            ),
        ],
    )


@pytest.fixture()
def minimal() -> CorpusSnapshot:
    return minimal_snapshot()
