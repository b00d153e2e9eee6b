"""Contract of the frozen records: construction, validation, immutability,
equality, hashing, repr and pickling.

The records are plain classes with ``__slots__`` on a shared base, not
dataclasses. The base compiles each record's constructor from its
``__slots__``; a record that validates defines its own. The repr strings
and validation messages below are literals taken from the frozen
dataclasses they replaced, so the text a user sees did not change.
"""

import copy
import inspect
import math
import pickle
import re

import numpy as np
import pytest

from zerocount.bayes import (
    GammaPosterior,
    PriorKind,
    PriorSpec,
    UpperLimitResult,
)
from zerocount.classical import CountData, MLReport
from zerocount.decision import AdmissibilityRanking, RiskOracleReport, RiskReport, ThetaMode
from zerocount.distributions import GammaDist, NBParams, PoissonParams, ZPoissonParams
from zerocount.errors import DomainError
from zerocount.marginal import MarginalComparison
from zerocount.montecarlo import CoverageResult, SimSummary
from zerocount.numerics import ToleranceConfig

BL = PriorSpec(kind=PriorKind.BL, a=1.0, b=0.0)
BL_REPR = "PriorSpec(kind=<PriorKind.BL: 'BL'>, a=1.0, b=0.0)"
RISK = RiskReport(
    prior=BL, mean_estimate=1.0, bias_mean=0.0, risk_mean=1.0, var_estimate=1.0,
    bias_var=0.0, risk_var=2.0, theta_mode=ThetaMode.PLUG_IN,
)
RISK_REPR = (
    f"RiskReport(prior={BL_REPR}, mean_estimate=1.0, bias_mean=0.0, risk_mean=1.0, "
    "var_estimate=1.0, bias_var=0.0, risk_var=2.0, theta_mode=<ThetaMode.PLUG_IN: 'PlugIn'>)"
)

# every record: (class, keyword arguments in field order, its repr)
RECORDS = [
    (PoissonParams, {"theta": 2.5}, "PoissonParams(theta=2.5)"),
    (GammaDist, {"a": 1.5, "b": 0.5}, "GammaDist(a=1.5, b=0.5)"),
    (ZPoissonParams, {"theta": 4.5, "psi": 10.89}, "ZPoissonParams(theta=4.5, psi=10.89)"),
    (NBParams, {"theta": 4.0, "a": 8.0}, "NBParams(theta=4.0, a=8.0)"),
    (CountData, {"counts": (0, 1, 2), "t": 2.0}, "CountData(counts=(0, 1, 2), t=2.0)"),
    (
        MLReport,
        {"theta_hat": 1.0, "rho_hat": 0.5, "var_counts": 1.0, "var_mean": 0.3333333333333333,
         "var_rate": 0.08333333333333333, "pathological": False},
        "MLReport(theta_hat=1.0, rho_hat=0.5, var_counts=1.0, var_mean=0.3333333333333333, "
        "var_rate=0.08333333333333333, pathological=False)",
    ),
    (
        PriorSpec, {"kind": PriorKind.ME, "a": 1.0, "b": 2.5},
        "PriorSpec(kind=<PriorKind.ME: 'ME'>, a=1.0, b=2.5)",
    ),
    (
        GammaPosterior, {"A": 4.0, "B": 3.0, "t": 1.5},
        "GammaPosterior(A=4.0, B=3.0, t=1.5)",
    ),
    (
        UpperLimitResult, {"CL": 0.95, "U_rho": 2.5, "U_theta": 3.75, "solver_residual": -1.1e-16},
        "UpperLimitResult(CL=0.95, U_rho=2.5, U_theta=3.75, solver_residual=-1.1e-16)",
    ),
    (
        ToleranceConfig, {"abs_tol": 1e-13, "quad_rel_tol": 1e-10},
        "ToleranceConfig(abs_tol=1e-13, quad_rel_tol=1e-10)",
    ),
    (
        RiskReport,
        {"prior": BL, "mean_estimate": 1.0, "bias_mean": 0.0, "risk_mean": 1.0,
         "var_estimate": 1.0, "bias_var": 0.0, "risk_var": 2.0, "theta_mode": ThetaMode.PLUG_IN},
        RISK_REPR,
    ),
    (
        AdmissibilityRanking,
        {"entries": (RISK,), "excluded": ((PriorKind.JJ, "improper"),), "verdict": "BL"},
        f"AdmissibilityRanking(entries=({RISK_REPR},), "
        "excluded=((<PriorKind.JJ: 'JJ'>, 'improper'),), verdict='BL')",
    ),
    (
        RiskOracleReport,
        {"theta": 2.0, "n": 3, "prior": BL, "mean_discrepancy": 1e-16,
         "variance_discrepancy": 0.0, "risk_discrepancy": 2e-16},
        f"RiskOracleReport(theta=2.0, n=3, prior={BL_REPR}, mean_discrepancy=1e-16, "
        "variance_discrepancy=0.0, risk_discrepancy=2e-16)",
    ),
    (
        SimSummary,
        {"sample_mean": 100.0, "sample_variance": math.nan, "dispersion": None, "n_draws": 1},
        "SimSummary(sample_mean=100.0, sample_variance=nan, dispersion=None, n_draws=1)",
    ),
    (
        CoverageResult, {"coverage": 0.95, "standard_error": 0.01, "reps": 475},
        "CoverageResult(coverage=0.95, standard_error=0.01, reps=475)",
    ),
    (
        MarginalComparison,
        {"x": 0, "theta_grid": np.array([0.0, 0.5]), "numeric_density": np.array([1.0, 0.5]),
         "claimed_density": np.array([1.0, 0.5]), "l1_distance": 0.0, "linf_distance": 0.0,
         "numeric_norm": 1.0},
        "MarginalComparison(x=0, theta_grid=array([0. , 0.5]), numeric_density=array([1. , 0.5]), "
        "claimed_density=array([1. , 0.5]), l1_distance=0.0, linf_distance=0.0, numeric_norm=1.0)",
    ),
]
IDS = [cls.__name__ for cls, _, _ in RECORDS]
# the records whose own __init__ checks or normalizes its arguments before storing them
VALIDATING = {PoissonParams, GammaDist, ZPoissonParams, NBParams, CountData, PriorSpec,
              ToleranceConfig}
# numpy arrays have no hash, and a multi-element array no truth value
HASHABLE = [case for case in RECORDS if case[0] is not MarginalComparison]


@pytest.mark.parametrize("cls, kwargs, text", RECORDS, ids=IDS)
class TestEveryRecord:
    def test_fields_are_slots_in_order(self, cls, kwargs, text):
        record = cls(**kwargs)
        assert cls.__slots__ == tuple(kwargs)
        assert not hasattr(record, "__dict__")
        for name, value in kwargs.items():
            assert getattr(record, name) is value or getattr(record, name) == value

    def test_signature_lists_the_slots_in_order(self, cls, kwargs, text):
        assert list(inspect.signature(cls).parameters) == list(cls.__slots__)

    def test_only_validating_records_define_init(self, cls, kwargs, text):
        assert (cls.__init__ is not cls._store) == (cls in VALIDATING)

    def test_positional_and_keyword_construction_agree(self, cls, kwargs, text):
        assert repr(cls(*kwargs.values())) == repr(cls(**kwargs)) == text

    def test_assignment_and_deletion_raise(self, cls, kwargs, text):
        record = cls(**kwargs)
        for name in (*kwargs, "extra"):
            with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
                setattr(record, name, 1)
            with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
                delattr(record, name)
        assert repr(record) == text

    def test_other_classes_compare_not_implemented(self, cls, kwargs, text):
        record = cls(**kwargs)
        assert record.__eq__(tuple(kwargs.values())) is NotImplemented
        assert record != tuple(kwargs.values())

    def test_pickle_and_copy_rebuild_the_record(self, cls, kwargs, text):
        record = cls(**kwargs)
        for clone in (pickle.loads(pickle.dumps(record)), copy.copy(record),
                      copy.deepcopy(record)):
            assert type(clone) is cls
            assert repr(clone) == text


@pytest.mark.parametrize("cls, kwargs, text", HASHABLE, ids=[c.__name__ for c, _, _ in HASHABLE])
def test_equality_and_hash_follow_the_field_tuple(cls, kwargs, text):
    record, twin = cls(**kwargs), cls(**kwargs)
    assert record == twin
    assert hash(record) == hash(twin) == hash(tuple(kwargs.values()))
    assert len({record, twin}) == 1


def test_a_field_that_differs_breaks_equality():
    assert GammaDist(1.5, 0.5) != GammaDist(1.5, 0.25)
    assert PriorSpec(PriorKind.BL, 1.0, 0.0) != PriorSpec(PriorKind.CUSTOM, 1.0, 0.0)
    # records of different classes with the same field values are not equal
    assert GammaDist(a=1.5, b=0.5) != NBParams(theta=1.5, a=0.5)


def test_marginal_comparison_is_unhashable_and_equal_to_itself():
    cls, kwargs, _ = RECORDS[-1]
    record = cls(**kwargs)
    assert record == cls(**kwargs)  # the same array objects
    with pytest.raises(TypeError, match="unhashable type: 'numpy.ndarray'"):
        hash(record)


def test_count_data_normalizes_its_fields():
    data = CountData([0, 1, 2], t=2)
    assert data.counts == (0, 1, 2) and type(data.t) is float
    assert repr(data) == "CountData(counts=(0, 1, 2), t=2.0)"
    assert data == CountData(counts=(0, 1, 2), t=2.0)
    assert repr(CountData([0])) == "CountData(counts=(0,), t=1.0)"


def test_tolerance_defaults():
    assert repr(ToleranceConfig()) == "ToleranceConfig(abs_tol=1e-12, quad_rel_tol=1e-09)"
    assert ToleranceConfig(quad_rel_tol=1e-10) == ToleranceConfig(1e-12, 1e-10)


@pytest.mark.parametrize(
    "cls, kwargs, message",
    [
        (PoissonParams, {"theta": -1.0}, "theta must be finite and in [0, inf), got -1.0"),
        (PoissonParams, {"theta": math.inf}, "theta must be finite and in [0, inf), got inf"),
        (GammaDist, {"a": 0.0, "b": 1.0}, "shape a must be finite and in (0, inf), got 0.0"),
        (GammaDist, {"a": 1.0, "b": -1.0}, "rate b must be finite and in (0, inf), got -1.0"),
        (ZPoissonParams, {"theta": 0.0, "psi": 2.0},
         "theta must be finite and in (0, inf), got 0.0"),
        (ZPoissonParams, {"theta": 1.0, "psi": 0.5}, "psi must be finite and in [1, inf), got 0.5"),
        (ZPoissonParams, {"theta": 1.0, "psi": 3.0},
         "psi * exp(-theta) = 1.103638323514327 exceeds 1; no such distribution exists"),
        (NBParams, {"theta": math.nan, "a": 1.0}, "theta must be finite and in (0, inf), got nan"),
        (NBParams, {"theta": 1.0, "a": 0.0}, "shape a must be finite and in (0, inf), got 0.0"),
        (CountData, {"counts": []}, "counts must contain at least one measurement"),
        (CountData, {"counts": [0, -1]}, "count must be an integer >= 0, got -1"),
        (CountData, {"counts": [0], "t": 0.0}, "t must be finite and in (0, inf), got 0.0"),
        (CountData, {"counts": [2**1100]},
         "total count S must be within the float range (about 1.8e308), got a 1101-bit integer"),
        (PriorSpec, {"kind": PriorKind.CUSTOM, "a": -1.0, "b": 0.0},
         "prior shape a must be finite and in [0, inf), got -1.0"),
        (PriorSpec, {"kind": PriorKind.CUSTOM, "a": 1.0, "b": math.inf},
         "prior rate b must be finite and in [0, inf), got inf"),
        (ToleranceConfig, {"abs_tol": 0.0}, "abs_tol must be finite and in (0, inf), got 0.0"),
        (ToleranceConfig, {"quad_rel_tol": math.nan},
         "quad_rel_tol must be finite and in (0, inf), got nan"),
        (ToleranceConfig, {"abs_tol": True}, "abs_tol must be finite and in (0, inf), got True"),
    ],
)
def test_validation_errors(cls, kwargs, message):
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        cls(**kwargs)


@pytest.mark.parametrize(
    "cls, kwargs, message",
    [
        (PoissonParams, {}, "missing 1 required positional argument: 'theta'"),
        (GammaDist, {"a": 1.0}, "missing 1 required positional argument: 'b'"),
        (PriorSpec, {"kind": PriorKind.BL, "a": 1.0, "b": 0.0, "c": 1},
         "got an unexpected keyword argument 'c'"),
        # records without an __init__ of their own: the constructor compiled from __slots__
        (GammaPosterior, {"A": 4.0, "B": 3.0}, "missing 1 required positional argument: 't'"),
        (UpperLimitResult,
         {"CL": 0.95, "U_rho": 2.5, "U_theta": 3.75, "solver_residual": 0.0, "U": 1.0},
         "got an unexpected keyword argument 'U'"),
    ],
)
def test_bad_arguments_are_type_errors(cls, kwargs, message):
    with pytest.raises(TypeError, match=re.escape(f"{cls.__name__}.__init__() {message}")):
        cls(**kwargs)
