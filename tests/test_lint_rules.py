"""Per-rule fixtures for the repro.lint invariant checker.

Each positive fixture must trigger exactly the expected codes; each
negative fixture (seeded RNG in rng.py, conversions in units.py, ...)
must stay silent.
"""

import textwrap

import pytest

from repro.errors import ConfigError
from repro.lint import Finding, all_rules, get_rule, lint_text
from repro.lint.noqa import ALL_CODES, parse_noqa


def codes_of(source, module="repro.core.fixture", **kwargs):
    return [f.code for f in lint_text(textwrap.dedent(source),
                                      module=module, **kwargs)]


# -- registry ---------------------------------------------------------------

def test_rule_catalogue_is_complete():
    assert [r.code for r in all_rules()] == [
        "RPR001", "RPR002", "RPR003", "RPR004", "RPR005", "RPR006",
        "RPR007", "RPR008", "RPR010", "RPR011"]
    assert [r.code for r in all_rules() if r.cross_file] == \
        ["RPR010", "RPR011"]


def test_unknown_rule_code_rejected():
    with pytest.raises(ConfigError):
        get_rule("RPR999")


# -- RPR000 parse errors ----------------------------------------------------

def test_syntax_error_reported_as_rpr000():
    findings = lint_text("def broken(:\n    pass\n")
    assert [f.code for f in findings] == ["RPR000"]


# -- RPR001 nondeterministic calls ------------------------------------------

def test_wall_clock_flagged():
    assert codes_of("""
        import time
        t = time.time()
    """) == ["RPR001"]


def test_datetime_now_flagged():
    assert codes_of("""
        from datetime import datetime
        stamp = datetime.now()
    """) == ["RPR001"]


def test_stdlib_random_flagged():
    assert codes_of("""
        import random
        x = random.randint(1, 6)
    """) == ["RPR001"]


def test_uuid4_and_urandom_flagged():
    assert codes_of("""
        import os
        import uuid
        key = uuid.uuid4()
        salt = os.urandom(8)
    """) == ["RPR001", "RPR001"]


def test_local_variable_named_random_not_flagged():
    # Only import-introduced names resolve; a Generator held in a local
    # called `random` (or a method called .random()) is legitimate.
    assert codes_of("""
        def draw(rng):
            random = rng
            return random.random()
    """) == []


def test_seedtree_generator_usage_not_flagged():
    assert codes_of("""
        from repro.rng import SeedTree

        def jitter(seeds: SeedTree):
            return SeedTree(7).generator("jitter").normal()
    """, module="repro.tools.fixture") == []


# -- RPR002 magic unit literals ---------------------------------------------

def test_inline_mbps_conversion_flagged():
    # 2 findings: `* 1e6` and `/ 8` are two BinOps on the same line.
    assert codes_of("""
        def to_bytes(rate_mbps):
            return rate_mbps * 1e6 / 8
    """) == ["RPR002", "RPR002"]


def test_ms_division_flagged():
    assert codes_of("""
        def to_seconds(rtt_ms):
            return rtt_ms / 1000.0
    """) == ["RPR002"]


def test_gb_conversion_flagged():
    assert codes_of("""
        def to_bytes(size_gb):
            return size_gb * 1e9
    """) == ["RPR002"]


def test_conversions_allowed_inside_units_module():
    assert codes_of("""
        def mbps_to_bytes_per_sec(rate_mbps):
            return rate_mbps * 1e6 / 8.0
    """, module="repro.units") == []


def test_unitless_arithmetic_not_flagged():
    assert codes_of("""
        def scale(count):
            return count * 1000
    """) == []


def test_non_magic_constant_not_flagged():
    assert codes_of("""
        def pad(n_bytes):
            return n_bytes * 1460
    """) == []


# -- RPR003 bare builtin raises ---------------------------------------------

@pytest.mark.parametrize("builtin", ["ValueError", "RuntimeError",
                                     "KeyError", "Exception"])
def test_builtin_raise_flagged(builtin):
    assert codes_of(f"""
        def check(x):
            if x < 0:
                raise {builtin}("bad")
    """) == ["RPR003"]


def test_uncalled_builtin_raise_flagged():
    assert codes_of("""
        def check():
            raise ValueError
    """) == ["RPR003"]


def test_repro_error_raise_not_flagged():
    assert codes_of("""
        from repro.errors import ValidationError

        def check(x):
            if x < 0:
                raise ValidationError("bad")
    """) == []


def test_reraise_not_flagged():
    assert codes_of("""
        def check(x):
            try:
                return x[0]
            except IndexError:
                raise
    """) == []


# -- RPR004 layering violations ---------------------------------------------

def test_netsim_importing_core_flagged():
    assert codes_of("""
        from repro.core.clasp import Clasp
    """, module="repro.netsim.fixture") == ["RPR004"]


def test_cloud_importing_experiments_flagged():
    assert codes_of("""
        import repro.experiments.runner
    """, module="repro.cloud.fixture") == ["RPR004"]


def test_relative_upward_import_flagged():
    assert codes_of("""
        from ..core import clasp
    """, module="repro.netsim.fixture") == ["RPR004"]


def test_from_repro_import_layer_flagged():
    assert codes_of("""
        from repro import experiments
    """, module="repro.tools.fixture") == ["RPR004"]


def test_downward_import_allowed():
    assert codes_of("""
        from repro.netsim.topology import Topology
        from repro.cloud.api import CloudPlatform
    """, module="repro.core.fixture") == []


def test_unlayered_module_unconstrained():
    assert codes_of("""
        from repro.experiments import build_scenario
    """, module="repro.report.fixture") == []


def test_nameless_module_unconstrained():
    # A top-level __init__.py outside the package has no module name.
    assert codes_of("""
        from repro.experiments import build_scenario
    """, module=None) == []


def test_same_layer_import_allowed():
    assert codes_of("""
        from .topology import Topology
    """, module="repro.netsim.routing") == []


def test_provider_importing_engine_flagged():
    assert codes_of("""
        from repro.engine import events
    """, module="repro.cloud.providers.fixture") == ["RPR004"]


def test_provider_importing_core_flagged():
    assert codes_of("""
        import repro.core.campaign
    """, module="repro.cloud.providers.fixture") == ["RPR004"]


def test_provider_relative_engine_import_flagged():
    assert codes_of("""
        from ...engine import events
    """, module="repro.cloud.providers.fixture") == ["RPR004"]


def test_provider_sibling_imports_allowed():
    assert codes_of("""
        from repro.cloud.regions import Region
        from .base import CloudProvider
        from repro.errors import ProviderLookupError
    """, module="repro.cloud.providers.fixture") == []


# -- RPR005 bare except -----------------------------------------------------

def test_bare_except_flagged():
    assert codes_of("""
        def swallow(op):
            try:
                return op()
            except:
                return None
    """) == ["RPR005"]


def test_typed_except_not_flagged():
    assert codes_of("""
        def guard(op):
            try:
                return op()
            except Exception:
                return None
    """) == []


# -- RPR006 unseeded RNG construction ---------------------------------------

def test_default_rng_outside_rng_module_flagged():
    assert codes_of("""
        import numpy as np
        gen = np.random.default_rng(42)
    """) == ["RPR006"]


def test_np_random_module_functions_flagged():
    assert codes_of("""
        import numpy as np
        noise = np.random.normal(0, 1, 10)
    """) == ["RPR006"]


def test_from_import_default_rng_flagged():
    assert codes_of("""
        from numpy.random import default_rng
        gen = default_rng(0)
    """) == ["RPR006"]


def test_rng_module_itself_exempt():
    assert codes_of("""
        import numpy as np
        gen = np.random.default_rng(7)
    """, module="repro.rng") == []


def test_generator_annotation_not_flagged():
    assert codes_of("""
        import numpy as np

        def sample(rng: np.random.Generator) -> float:
            return float(rng.random())
    """) == []


# -- suppression ----------------------------------------------------------

def test_noqa_with_matching_code_suppresses():
    assert codes_of("""
        import time
        t = time.time()  # repro: noqa RPR001
    """) == []


def test_noqa_with_other_code_does_not_suppress():
    assert codes_of("""
        import time
        t = time.time()  # repro: noqa RPR002
    """) == ["RPR001"]


def test_bare_noqa_suppresses_everything():
    assert codes_of("""
        import time
        t = time.time()  # repro: noqa
    """) == []


def test_noqa_multiple_codes():
    assert parse_noqa("x = 1  # repro: noqa RPR001,RPR003") == \
        frozenset({"RPR001", "RPR003"})
    assert parse_noqa("x = 1  # repro: noqa RPR001 RPR003") == \
        frozenset({"RPR001", "RPR003"})
    assert parse_noqa("x = 1  # repro: noqa") is ALL_CODES
    assert parse_noqa("x = 1  # plain comment") is None


def test_select_limits_rules():
    source = """
        import time

        def bad(rate_mbps):
            raise ValueError(time.time() * rate_mbps / 1e6)
    """
    assert set(codes_of(source)) == {"RPR001", "RPR002", "RPR003"}
    assert codes_of(source, select=["RPR003"]) == ["RPR003"]


def test_finding_format():
    finding = Finding("src/repro/x.py", 3, "RPR001", "boom")
    assert finding.format() == "src/repro/x.py:3: RPR001 boom"


# -- RPR007 engine isolation ------------------------------------------------

def test_engine_importing_core_flagged():
    assert codes_of("""
        from repro.core.campaign import CampaignDataset
    """, module="repro.engine.observers") == ["RPR007"]


def test_engine_relative_import_of_domain_flagged():
    assert codes_of("""
        from ..experiments import build_scenario
    """, module="repro.engine.lanes") == ["RPR007"]


def test_engine_allowed_imports_stay_silent():
    assert codes_of("""
        from repro.errors import ValidationError
        from repro.rng import SeedTree
        from repro.simclock import CAMPAIGN_START
        from repro.units import HOUR
        from .events import CampaignEvent
    """, module="repro.engine.bus") == []


def test_engine_rule_ignores_other_packages():
    assert codes_of("""
        from repro.core.campaign import CampaignDataset
    """, module="repro.report.fixture") == []


def test_engine_may_import_obs():
    assert codes_of("""
        from repro.obs.metrics import Histogram
    """, module="repro.engine.observers") == []


# -- RPR008 obs confinement -------------------------------------------------

def test_perf_counter_outside_obs_flagged():
    assert codes_of("""
        import time
        t0 = time.perf_counter()
    """) == ["RPR008"]


def test_monotonic_outside_obs_flagged():
    assert codes_of("""
        import time
        t = time.monotonic_ns()
    """, module="repro.netsim.tcp") == ["RPR008"]


def test_perf_counter_inside_obs_allowed():
    assert codes_of("""
        import time
        t0 = time.perf_counter()
    """, module="repro.obs.spans") == []


def test_absolute_wall_clock_still_rpr001_even_inside_obs():
    # The carve-out covers durations only; absolute time stays banned.
    assert codes_of("""
        import time
        now = time.time()
    """, module="repro.obs.spans") == ["RPR001"]


def test_obs_importing_domain_layer_flagged():
    assert codes_of("""
        from repro.netsim.tcp import multiflow_throughput_mbps
    """, module="repro.obs.exporters") == ["RPR008"]


def test_obs_importing_engine_flagged():
    assert codes_of("""
        from repro.engine.observers import MetricsObserver
    """, module="repro.obs.metrics") == ["RPR008"]


def test_obs_allowed_imports_stay_silent():
    assert codes_of("""
        import time
        from repro.errors import ConfigError
        from repro.simclock import CAMPAIGN_START
        from repro.units import s_to_ms
        from .spans import Tracer

        t0 = time.perf_counter()
    """, module="repro.obs", is_package=True) == []
