"""Workload programs used by the paper's case studies.

Every application the evaluation touches is rebuilt on the dataflow IR:

* :mod:`repro.workloads.matmul_chain` -- the Fig. 2 running example,
* :mod:`repro.workloads.bert_encoder` -- the BERT multi-head-attention loop
  nests of Sec. 6.1 / Fig. 5,
* :mod:`repro.workloads.sddmm` -- the sampled dense-dense matrix
  multiplication at the core of Vanilla Attention (Sec. 6.2 / Fig. 6),
* :mod:`repro.workloads.npbench` -- a mini NPBench-style kernel suite for the
  transformation sweep of Sec. 6.3 / Table 2,
* :mod:`repro.workloads.cloudsc` -- a synthetic cloud-microphysics scheme
  standing in for ECMWF CLOUDSC (Sec. 6.4).
"""

from typing import Callable, Dict, List, Tuple

from repro.workloads.bert_encoder import (
    BERT_LARGE,
    BERT_TINY,
    build_attention_scores,
    build_encoder_layer,
)
from repro.workloads.cloudsc import CloudscConfig, build_cloudsc
from repro.workloads.matmul_chain import build_matmul_chain, reference_matmul_chain
from repro.workloads.sddmm import build_sddmm, reference_sddmm

__all__ = [
    "build_matmul_chain",
    "reference_matmul_chain",
    "build_attention_scores",
    "build_encoder_layer",
    "BERT_LARGE",
    "BERT_TINY",
    "build_sddmm",
    "reference_sddmm",
    "build_cloudsc",
    "CloudscConfig",
    "register_workload_suite",
    "get_workload_suite",
    "get_workload",
    "build_workload",
    "list_workload_suites",
]


# ---------------------------------------------------------------------- #
# Suite registry: lookup by name so shared-nothing sweep workers can
# rebuild a workload from its (suite, name) pair instead of pickling SDFGs.
# ---------------------------------------------------------------------- #
_SUITE_LOADERS: Dict[str, Callable[[], List]] = {}
#: Programs handed out by :func:`build_workload`, one per registered
#: workload (so bounded by the registry, not by a size parameter).
_BUILT: Dict[Tuple[str, str], object] = {}


def register_workload_suite(name: str, loader: Callable[[], List]) -> None:
    """Register a workload suite under a name.

    ``loader`` returns the suite's list of :class:`KernelSpec`-like entries
    (each with ``name``, ``build()`` and ``symbols``).  Loaders are called
    lazily so registration stays import-cycle free."""
    _SUITE_LOADERS[name] = loader
    for key in [k for k in _BUILT if k[0] == name]:
        del _BUILT[key]


def list_workload_suites() -> List[str]:
    """Names of all registered workload suites."""
    return sorted(_SUITE_LOADERS)


def get_workload_suite(name: str) -> List:
    """All workload specs of a registered suite."""
    if name not in _SUITE_LOADERS:
        raise KeyError(
            f"Unknown workload suite '{name}' (available: {', '.join(list_workload_suites())})"
        )
    return list(_SUITE_LOADERS[name]())


def get_workload(suite: str, name: str):
    """Look up one workload spec of a suite by name."""
    for spec in get_workload_suite(suite):
        if spec.name == name:
            return spec
    raise KeyError(f"Unknown workload '{name}' in suite '{suite}'")


def build_workload(suite: str, name: str):
    """The program of a registered workload, built once per process.

    Every caller gets the *same* instance and must treat it as read-only:
    ``FuzzyFlowVerifier.verify`` and match enumeration only read their
    program; anything that transforms it clones first.  A sweep visits each
    workload many times, and pool members forked after task enumeration
    inherit the programs it built.
    """
    key = (suite, name)
    if key not in _BUILT:
        _BUILT[key] = get_workload(suite, name).build()
    return _BUILT[key]


def _load_npbench():
    from repro.workloads.npbench import all_kernels

    return all_kernels()


def _load_bert():
    """The Sec. 6.1 BERT workloads at the laptop-scale configuration."""
    from repro.workloads.npbench.suite import KernelSpec

    symbols = {k: BERT_TINY[k] for k in ("B", "H", "SM", "P")}
    return [
        KernelSpec("attention_scores", build_attention_scores, dict(symbols), "attention"),
        KernelSpec("encoder_layer", build_encoder_layer, dict(symbols), "attention"),
    ]


def _load_cloudsc():
    """The Sec. 6.4 synthetic cloud-microphysics scheme (default scale)."""
    from repro.workloads.npbench.suite import KernelSpec

    config = CloudscConfig()
    return [
        KernelSpec("cloudsc", lambda: build_cloudsc(config), dict(config.symbols), "climate")
    ]


register_workload_suite("npbench", _load_npbench)
register_workload_suite("bert", _load_bert)
register_workload_suite("cloudsc", _load_cloudsc)
