import pytest

from peakfn import (HypothesisConstants, WeightEngine, derive_constants,
                    synthetic_family)
from peakfn import series as _series_api
import peakfn


REF = dict(alpha=0.5, s=1.0, t=0.75, A=0.5, C=2.0)


@pytest.fixture(scope="session")
def ref_hypothesis():
    return HypothesisConstants(**REF)


@pytest.fixture(scope="session")
def ref_constants(ref_hypothesis):
    consts, _ = derive_constants(ref_hypothesis)
    return consts


@pytest.fixture(scope="session")
def ref_report(ref_hypothesis):
    _, report = derive_constants(ref_hypothesis)
    return report


@pytest.fixture(scope="session")
def engine(ref_constants):
    return WeightEngine(ref_constants)


@pytest.fixture(scope="session")
def ref_series(ref_constants):
    fam = synthetic_family(ref_constants)
    return peakfn.build(fam, n_terms=100)


@pytest.fixture(scope="session")
def ref_config_text():
    return '{"alpha": 0.5, "s": 1.0, "t": 0.75, "A": 0.5, "C": 2.0}\n'
