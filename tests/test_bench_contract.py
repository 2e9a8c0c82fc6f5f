"""The benchmark's tracing contract, checked on one pass of each workload.

`bench/tracer.py` expects, per workload, a set of function bindings that
must be called (for instance `verify.oscillation_scan` through the name
`cli` imports); `bench/run.py --trace 1` fails when one reads zero.  As
the traced cycle of `bench/run.py` reruns input sets the untraced cycle
has just run, this runs input set 0 of each workload at the reference
seed untraced and then again under the tracer, and requires full
coverage and the golden bytes of `bench/golden/` from both passes.  So a
store or cache that keeps what the first pass computed, and leaves the
traced pass no call to count, fails here.
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
    golden = workloads.load_golden(name)[0]
    assert workloads.failures(workloads.run_pass(name, inputs, str(tmp_path)), golden) == []
    trace = tracer.Tracer()
    trace.install()
    try:
        trace.begin_pass(0)
        outcomes = workloads.run_pass(name, inputs, str(tmp_path))
    finally:
        trace.uninstall()
    assert tracer.check_coverage(name, trace.stats) == []
    assert workloads.failures(outcomes, golden) == []
