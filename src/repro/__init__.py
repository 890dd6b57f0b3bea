"""repro: reproduction of "AS-Level BGP Community Usage Classification" (IMC 2021).

The package is organised as the paper's system is:

* :mod:`repro.bgp` -- BGP data model (ASNs, prefixes, communities, paths,
  messages, observations),
* :mod:`repro.mrt` -- MRT wire-format encoder/decoder,
* :mod:`repro.sanitize` -- data sanitation and community source groups,
* :mod:`repro.topology` -- Internet-like AS topology, relationships,
  valley-free routing, customer cones,
* :mod:`repro.collectors` -- route collector projects and per-day archives,
* :mod:`repro.usage` -- the community usage mental model (roles, propagation,
  noise, scenarios),
* :mod:`repro.core` -- the inference algorithm (the paper's contribution),
* :mod:`repro.eval` -- metrics, ROC sweeps, stability, characterisation, and
  PEERING-style validation,
* :mod:`repro.datasets` -- synthetic dataset construction and statistics,
* :mod:`repro.experiments` -- one driver per paper table / figure,
* :mod:`repro.stream` -- incremental, windowed, checkpointable streaming
  classification over live update feeds,
* :mod:`repro.parallel` -- multi-process execution of the streaming engine,
* :mod:`repro.service` -- durable snapshot store and the JSON HTTP query
  API serving classification results.

Quickstart::

    from repro.datasets import SyntheticConfig, SyntheticInternet
    from repro.core import ColumnInference

    internet = SyntheticInternet.build(SyntheticConfig.small())
    tuples = internet.tuples_for_aggregate()
    result = ColumnInference().run(tuples)
    print(result.summary())

(``run`` takes any iterable of ``PathCommTuple``; it lowers them to numpy in
bulk and counts with the kernels the streaming engine uses.)
"""

__version__ = "1.0.0"

__all__ = ["__version__"]
