"""Golden digests of the synthetic datasets: one seeded trace per generator.

``golden/dataset_digest.json`` holds one SHA-256 per generator over every
user's id, timestamps, access flags and context columns (by field name).  The
sizes are the ones the rest of the suite trains on: MobileTab at seed 0 with
60 users (the ``perf`` fixture), Timeshift with 250 users and MPU with 64
(the Table 3 benchmark scale).

The generators draw each session with scalar arithmetic and a fixed sequence
of RNG calls; a re-spelling of a session loop must make the same calls in the
same order and leave every digest unchanged.  A change that moves a dataset
on purpose regenerates the file and says what moved::

    PYTHONPATH=src python tests/test_dataset_digest.py
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.data import make_dataset

GOLDEN_PATH = Path(__file__).resolve().parent / "golden" / "dataset_digest.json"

DATASETS = {
    "mobiletab": {"seed": 0, "n_users": 60},
    "timeshift": {"seed": 0, "n_users": 250},
    "mpu": {"seed": 0, "n_users": 64},
}


def dataset_digest(name: str) -> str:
    dataset = make_dataset(name, **DATASETS[name])
    digest = hashlib.sha256()
    for user in dataset.users:
        columns = [user.timestamps, user.accesses, *(user.context[key] for key in sorted(user.context))]
        digest.update(f"{user.user_id}:{sorted(user.context)}".encode())
        for column in columns:
            array = np.asarray(column)
            digest.update(f"{array.dtype.str}{array.shape}".encode())
            digest.update(array.tobytes())
    return digest.hexdigest()


@pytest.mark.parametrize("name", sorted(DATASETS))
def test_generator_reproduces_the_captured_dataset(name):
    expected = json.loads(GOLDEN_PATH.read_text())
    assert dataset_digest(name) == expected[name]


if __name__ == "__main__":
    GOLDEN_PATH.parent.mkdir(exist_ok=True)
    GOLDEN_PATH.write_text(json.dumps({name: dataset_digest(name) for name in DATASETS}, indent=1) + "\n")
