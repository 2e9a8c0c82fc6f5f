"""The benchmark's tracing contract, checked on one pass of each workload.

`bench/tracer.py` expects, per workload, a set of function bindings that
must be called (for instance `verify.oscillation_scan` through the name
`cli` imports); `bench/run.py --trace 1` fails when one reads zero.  This
runs input set 0 of each workload at the reference seed under the tracer
and requires full coverage and the golden bytes of `bench/golden/`.
"""

import os
import sys

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench"))

import tracer  # noqa: E402
import workloads  # noqa: E402
from lipgraph.verify import REFERENCE_SEED  # noqa: E402


@pytest.mark.parametrize("name", workloads.NAMES)
def test_traced_pass_covers_expected_bindings(name, tmp_path):
    inputs = workloads.setup(name, REFERENCE_SEED)[0]
    trace = tracer.Tracer()
    trace.install()
    try:
        trace.begin_pass(0)
        outcomes = workloads.run_pass(name, inputs, str(tmp_path))
    finally:
        trace.uninstall()
    assert tracer.check_coverage(name, trace.stats) == []
    assert workloads.failures(outcomes, workloads.load_golden(name)[0]) == []
