"""AmberElide: static escape/confinement analysis (advisory only).

The pass classifies, on top of the AmberFlow object-flow model
(:mod:`repro.analyze.flow`):

* **thread-confined classes** — every instance is only ever reachable
  from the thread that created it (references never cross a
  ``Fork``/ctor-argument/shared-field boundary),
* **effectively-immutable classes** — no field writes outside
  ``__init__``, and
* **single-thread lock sites** — ``Lock``/``SpinLock``/``Monitor``
  creations whose instances only guard confined state or are only
  reachable from one thread.

The classification (:mod:`repro.analyze.elide.model`) surfaces as the
advisory AMB301-AMB304 findings
(:mod:`repro.analyze.elide.diagnostics`); nothing in the simulator
consumes it.  ``repro elide`` runs the pass plus two static
self-checks (:mod:`repro.analyze.elide.scenario`).  See
docs/ANALYSIS.md.
"""
