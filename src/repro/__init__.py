"""repro: schedulability analysis of AADL models via ACSR.

A from-scratch reproduction of *Schedulability Analysis of AADL Models*
(Sokolsky, Lee & Clarke, IPDPS 2006).  The library provides:

* :mod:`repro.aadl` -- an AADL object model, textual parser, instantiation
  and binding resolution;
* :mod:`repro.acsr` -- the ACSR real-time process algebra with prioritized
  operational semantics;
* :mod:`repro.engine` -- the unified exploration engine: pluggable
  search strategies (BFS/DFS/random walk), explicit transition caches,
  budgets and observer instrumentation (see ``docs/engine.md``);
* :mod:`repro.versa` -- the VERSA-style analysis surface over the engine:
  deadlock detection, counterexample traces, LTS export, minimization;
* :mod:`repro.translate` -- the paper's Algorithm 1 translation of AADL
  models into ACSR;
* :mod:`repro.sched` -- classical schedulability baselines (utilization
  bounds, response-time analysis, EDF demand analysis, discrete-event
  simulation);
* :mod:`repro.analysis` -- the user-facing front end: translate, explore,
  raise failing scenarios back to AADL terms.

Quickstart::

    from repro import analyze_model
    from repro.aadl import infer_root, instantiate, parse_model

    model = parse_model(open("system.aadl").read())
    result = analyze_model(instantiate(model, infer_root(model)))
    print(result.verdict, result.scenario)
"""

from repro._version import __version__

__all__ = ["__version__", "analyze_model"]


def analyze_model(*args, **kwargs):
    """Lazy wrapper for :func:`repro.analysis.schedulability.analyze_model`."""
    from repro.analysis.schedulability import analyze_model as _impl

    return _impl(*args, **kwargs)
