import os
from pathlib import Path

import numpy as np

import weylclifford

# pytest finds the package through pyproject's pythonpath = ["src"];
# the CLI tests start fresh interpreters, which find the same tree here
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, [str(Path(weylclifford.__file__).resolve().parents[1]),
                  os.environ.get("PYTHONPATH")])
)


def random_unitary(dim, rng):
    """Haar-ish unitary from the QR decomposition of a Ginibre matrix."""
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))
