"""PKL004 pass: persisted state is read through verified formats."""

import json

import numpy as np


def load_manifest(path):
    with open(path) as handle:
        return json.load(handle)


def load_sidecar(path):
    return np.load(path, mmap_mode="r")


def loads(payload):
    # A local function named ``loads`` is not pickle's.
    return json.loads(payload)
