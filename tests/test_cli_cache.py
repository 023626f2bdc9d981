"""CLI + config validation for the elastic-caching subsystem.

The user-facing contract of docs/CACHING.md: a typo'd name — a
``repro cache`` workload or a ``DodoConfig.cache`` policy — surfaces
as a one-line ``repro: ...`` message with exit code 2 (or a plain
:class:`ValueError` at config construction), never a traceback from
inside a daemon.
"""

import json

import pytest

from repro.cli import main
from repro.core.config import CacheConfig, DodoConfig


# -- config-layer validation --------------------------------------------------

def test_unknown_cache_policy_rejected_at_construction():
    with pytest.raises(ValueError, match="unknown cache policy 'bogus'"):
        CacheConfig(policy="bogus")


def test_error_messages_list_accepted_values():
    # client-cache policies are not donor policies: only cost-aware
    # eviction runs in the imd pools
    with pytest.raises(ValueError) as exc:
        CacheConfig(policy="lru")
    assert str(exc.value).endswith("choose from ['cost-aware', 'none']")


def test_default_cache_block_is_inert():
    cfg = DodoConfig()
    assert cfg.cache.policy == "none"
    assert not cfg.cache.enabled
    assert not cfg.cache.migration


# -- CLI surface --------------------------------------------------------------

def test_cache_rejects_unknown_workload_one_line(capsys):
    assert main(["cache", "--workloads", "bogus"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("repro: unknown cache workload 'bogus'")
    assert len(err.strip().splitlines()) == 1


def test_cache_command_runs_and_writes_json(tmp_path, capsys):
    out = tmp_path / "cache.json"
    assert main(["cache", "--workloads", "fig7",
                 "--iters", "1", "--out", str(out)]) == 0
    text = capsys.readouterr().out
    assert "Elastic-caching ablation" in text
    assert "claim (migration saves refetches" in text
    doc = json.loads(out.read_text())
    variants = {(r["workload"], r["policy"], r["migration"])
                for r in doc["rows"]}
    # the requested workload's cells plus the always-run claim rows
    assert ("fig7", "none", False) in variants
    assert ("fig7", "cost-aware", False) in variants
    assert ("nondedicated", "cost-aware", True) in variants
    assert doc["claim"]["disk_reads_migration"] >= 0
