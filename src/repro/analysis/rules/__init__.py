"""Rule implementations.

Importing this package registers every rule with
:mod:`repro.analysis.registry`; the modules group related invariants:

Syntax tier (per-node):

* :mod:`~repro.analysis.rules.randomness` — RR101
* :mod:`~repro.analysis.rules.numerics` — RR102, RR103
* :mod:`~repro.analysis.rules.hygiene` — RR104, RR105, RR106
* :mod:`~repro.analysis.rules.instrumentation` — RR107
* :mod:`~repro.analysis.rules.lattices` — RR109
* :mod:`~repro.analysis.rules.caching` — RR110
* :mod:`~repro.analysis.rules.serving` — RR113
* :mod:`~repro.analysis.rules.estimators` — RR114

Dataflow tier (flow-sensitive, CFG + fixpoint):

* :mod:`~repro.analysis.rules.df_masks` — RR112
* :mod:`~repro.analysis.rules.df_determinism` — RR201
* :mod:`~repro.analysis.rules.df_aliasing` — RR202
* :mod:`~repro.analysis.rules.df_spans` — RR203
* :mod:`~repro.analysis.rules.df_domains` — RR204
"""

from __future__ import annotations

from repro.analysis.rules import (
    caching,
    df_aliasing,
    df_determinism,
    df_domains,
    df_masks,
    df_spans,
    estimators,
    hygiene,
    instrumentation,
    lattices,
    numerics,
    randomness,
    serving,
)

__all__ = [
    "caching",
    "df_aliasing",
    "df_determinism",
    "df_domains",
    "df_masks",
    "df_spans",
    "estimators",
    "hygiene",
    "instrumentation",
    "lattices",
    "numerics",
    "randomness",
    "serving",
]
