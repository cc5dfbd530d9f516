"""The DBWipes benchmark: four analyst workloads driven from outside.

Run ``python -m bench run`` from the repository root; ``bench/README.md``
explains the workloads and every metric.
"""

from pathlib import Path

#: The repository root; the program under test is imported from
#: ``ROOT / "src"``.
ROOT = Path(__file__).resolve().parent.parent
