"""Tests for the store's codec policy parser (repro.store.policy)."""

from __future__ import annotations

import pytest

from repro.store.policy import DEFAULT_CANDIDATES, parse_policy


class TestSpecParsing:
    @pytest.mark.parametrize("spec", ["sz", "zfp", "mgard", "fixed:sz"])
    def test_fixed_specs(self, spec):
        name = spec.split(":")[-1]
        assert parse_policy(spec) == (f"fixed:{name}", (name,))

    def test_bare_best_lists_the_default_candidates(self):
        assert DEFAULT_CANDIDATES == ("sz", "zfp", "mgard")
        assert parse_policy("best") == ("best:sz+zfp+mgard", DEFAULT_CANDIDATES)

    def test_best_spec(self):
        assert parse_policy("best:sz+mgard") == ("best:sz+mgard", ("sz", "mgard"))

    @pytest.mark.parametrize(
        "spec", ["sz", "fixed:zfp", "best", "best:zfp+sz", "best:mgard"]
    )
    def test_spec_round_trips(self, spec):
        canonical, candidates = parse_policy(spec)
        assert parse_policy(canonical) == (canonical, candidates)

    @pytest.mark.parametrize(
        "spec",
        [
            "",
            None,
            "fixed:",
            "fixed",
            "nope",
            "fixed:nope",
            "best:nope",
            "best:sz+",
            "sz:zfp",
            "adaptive",
            "adaptive:sz+zfp:n8:s0",
        ],
    )
    def test_invalid_specs_rejected(self, spec):
        with pytest.raises(ValueError, match="codec policy spec"):
            parse_policy(spec)

    @pytest.mark.parametrize("spec", ["best:sz+sz", "best:zfp+sz+zfp"])
    def test_repeated_codec_rejected(self, spec):
        with pytest.raises(ValueError, match="twice"):
            parse_policy(spec)

    def test_error_names_the_spec_and_the_codec(self):
        with pytest.raises(ValueError, match=r"'best:sz\+nope'.*'nope'"):
            parse_policy("best:sz+nope")
