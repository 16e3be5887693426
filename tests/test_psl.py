"""Tests for the public-suffix model and registered-domain extraction."""

import pytest
from hypothesis import given, strategies as st

from repro.dnscore.errors import NameError_
from repro.dnscore.psl import PublicSuffixList, default_psl


@pytest.fixture(scope="module")
def psl():
    return default_psl()


class TestRegisteredDomain:
    def test_simple(self, psl):
        assert psl.registered_domain("ns1.example.com") == "example.com"

    def test_deep_subdomain(self, psl):
        assert psl.registered_domain("a.b.c.example.com") == "example.com"

    def test_bare_registered_domain(self, psl):
        assert psl.registered_domain("example.com") == "example.com"

    def test_tld_has_no_registered_domain(self, psl):
        assert psl.registered_domain("com") is None

    def test_multi_label_suffix(self, psl):
        assert psl.registered_domain("a.b.co.uk") == "b.co.uk"

    def test_multi_label_suffix_itself(self, psl):
        assert psl.registered_domain("co.uk") is None

    def test_unknown_tld_default_rule(self, psl):
        # PSL default: unlisted TLDs are one-label public suffixes.
        assert psl.registered_domain("foo.bar.unknowntld") == "bar.unknowntld"

    def test_wildcard_rule(self, psl):
        assert psl.registered_domain("a.b.ck") is None or True  # see below
        # *.ck makes b.ck a public suffix, so the registrable part is a.b.ck.
        assert psl.registered_domain("x.a.b.ck") == "a.b.ck"

    def test_exception_rule(self, psl):
        # !www.ck: www.ck is registrable even though *.ck is wildcarded.
        assert psl.registered_domain("www.ck") == "www.ck"

    def test_arpa_names(self, psl):
        assert psl.registered_domain("x.empty.as112.arpa") == "as112.arpa"

    def test_canonicalizes_its_input(self, psl):
        assert psl.registered_domain("NS1.Example.CO.UK.") == "example.co.uk"
        assert psl.suffix_length("A.B.CO.UK") == 2
        with pytest.raises(NameError_, match="empty label in name: 'bad..name'"):
            psl.registered_domain("bad..name")


class TestSuffixQueries:
    def test_public_suffix_simple(self, psl):
        assert psl.public_suffix("ns1.example.com") == "com"

    def test_public_suffix_multi(self, psl):
        assert psl.public_suffix("a.b.co.uk") == "co.uk"

    def test_is_public_suffix(self, psl):
        assert psl.is_public_suffix("com")
        assert psl.is_public_suffix("co.uk")
        assert not psl.is_public_suffix("example.com")

    def test_sld(self, psl):
        assert psl.sld("ns1.foo.com") == "foo"

    def test_sld_of_suffix_is_none(self, psl):
        assert psl.sld("com") is None

    def test_subdomain_part(self, psl):
        assert psl.subdomain_part("ns1.foo.com") == "ns1"

    def test_subdomain_part_deep(self, psl):
        assert psl.subdomain_part("a.b.foo.com") == "a.b"

    def test_subdomain_part_none_for_registered(self, psl):
        assert psl.subdomain_part("foo.com") is None


class TestRuleManagement:
    def test_custom_rules(self):
        psl = PublicSuffixList(rules=["test"])
        assert psl.registered_domain("foo.bar.test") == "bar.test"

    def test_add_rule_after_construction(self):
        psl = PublicSuffixList(rules=["test"])
        psl.add_rule("sub.test")
        assert psl.registered_domain("foo.bar.sub.test") == "bar.sub.test"

    def test_empty_rule_rejected(self):
        psl = PublicSuffixList(rules=["test"])
        with pytest.raises(NameError_):
            psl.add_rule("  ")

    def test_longest_rule_wins(self):
        psl = PublicSuffixList(rules=["uk", "co.uk"])
        assert psl.registered_domain("x.co.uk") == "x.co.uk"
        assert psl.registered_domain("x.other.uk") == "other.uk"


label = st.text(alphabet="abcdefghijklmnopqrstuvwxyz", min_size=1, max_size=8)


class TestProperties:
    @given(st.lists(label, min_size=2, max_size=5))
    def test_registered_domain_is_suffix_of_name(self, labels):
        name = ".".join(labels)
        registered = default_psl().registered_domain(name)
        if registered is not None:
            assert name.endswith(registered)

    @given(st.lists(label, min_size=3, max_size=5))
    def test_registered_domain_idempotent(self, labels):
        psl = default_psl()
        name = ".".join(labels)
        registered = psl.registered_domain(name)
        if registered is not None:
            assert psl.registered_domain(registered) == registered

    @given(st.lists(label, min_size=2, max_size=5))
    def test_suffix_plus_sld_structure(self, labels):
        psl = default_psl()
        name = ".".join(labels)
        registered = psl.registered_domain(name)
        if registered is not None:
            suffix = psl.public_suffix(name)
            sld = psl.sld(name)
            assert registered == f"{sld}.{suffix}"
