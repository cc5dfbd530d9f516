"""The paper's two demo datasets (§3), as the shell and the service load them."""

from __future__ import annotations

from ..db import Database
from ..errors import ReproError
from .fec import FECConfig, generate_fec, walkthrough_query
from .intel import WALKTHROUGH_QUERY, IntelConfig, generate_intel

#: Bootstrap queries, as the demo "will provide several queries ... to
#: bootstrap their investigations".
BOOTSTRAP_QUERIES = {
    "fec": walkthrough_query("MCCAIN"),
    "intel": WALKTHROUGH_QUERY,
}


def load_dataset(name: str) -> Database:
    """Build the named demo database (``fec`` or ``intel``)."""
    db = Database()
    if name == "fec":
        table, __ = generate_fec(FECConfig())
    elif name == "intel":
        table, __ = generate_intel(IntelConfig(failure_onset_frac=0.7))
    else:
        raise ReproError(f"unknown dataset {name!r}; choose 'fec' or 'intel'")
    db.register(table)
    return db
