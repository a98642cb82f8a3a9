"""Experiment harnesses: one module per table/figure of the paper.

* :mod:`repro.exp.figures` — Figures 10, 12, 13, 16;
* :mod:`repro.exp.table2` — Table 2 (PyLSE vs schematic size/time);
* :mod:`repro.exp.table3` — Table 3 (PyLSE vs TA sizes, verification);
* :mod:`repro.exp.dynamic_checks` — Section 5.2 checks;
* :mod:`repro.exp.variability` — Section 5.2 robustness sweep;
* :mod:`repro.exp.registry` — the 22 evaluated designs;
* :mod:`repro.exp.measure` — the cached yield-measurement layer that
  ``repro serve`` and ``repro explore`` share.

Run everything with ``python -m repro.exp`` or an individual experiment
with ``python -m repro.exp table2``.
"""

from . import agreement, dynamic_checks, energy, figures, registry, table2, table3, variability

__all__ = [
    "agreement", "dynamic_checks", "energy", "figures", "registry", "table2",
    "table3",
    "variability",
]
