"""Reference implementations of the production kernels: parity oracles.

Each module here keeps the straightforward shape of a kernel that
``src/repro`` now runs only in its fast form:

* ``aggregates`` — numpy recomputation per group, per mask row and
  per removed element (naive O(n²) leave-one-out);
* ``influence`` — naive leave-one-out influence and the one-row Δε;
* ``tree`` — per-threshold split finding (:class:`ExactDecisionTree`);
* ``scoring`` — the one-rule-at-a-time Ranker and Merger;
* ``learn`` — scalar MDL, the per-child CN2-SD beam, the per-point
  silhouette and the refitting k-means cleaner;
* ``expr`` — the per-row string comparison loop;
* ``protocol`` — the row-at-a-time result payload builder.

The tests and the ablation benchmarks compare the production path
against these, and plug them in from the test side only (subclasses
and patched module attributes); nothing under ``src/`` imports them.
The package is imported as ``reference``: pytest puts ``tests/`` on
``sys.path`` for the test modules, and ``benchmarks/conftest.py`` adds
it for the benchmarks.
"""
