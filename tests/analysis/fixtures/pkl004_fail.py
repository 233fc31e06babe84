"""PKL004 fail: a pickle payload read back from disk or bytes."""

import pickle
from pickle import loads as unpickle


def load_checkpoint(path):
    with open(path, "rb") as handle:
        return pickle.load(handle)


def load_payload(payload):
    return unpickle(payload)
