"""Unit and property tests for domain-name handling."""

import re
import string

import pytest
from hypothesis import given, settings, strategies as st

from repro.dnscore.errors import NameError_
from repro.dnscore.names import (
    MAX_LABEL_LENGTH,
    MAX_NAME_LENGTH,
    Name,
    canonical_text,
    common_suffix_depth,
    is_valid,
    sorted_names,
)

label = st.text(alphabet="abcdefghijklmnopqrstuvwxyz0123456789", min_size=1, max_size=10)
name_strategy = st.lists(label, min_size=1, max_size=5).map(".".join)


class TestNormalization:
    def test_lowercases(self):
        assert Name("NS1.Example.COM").text == "ns1.example.com"

    def test_strips_trailing_dot(self):
        assert Name("example.com.").text == "example.com"

    def test_strips_whitespace(self):
        assert Name("  example.com ").text == "example.com"

    def test_labels_split(self):
        assert Name("a.b.c").labels == ("a", "b", "c")

    def test_tld(self):
        assert Name("ns1.example.com").tld == "com"

    @given(name_strategy)
    def test_idempotent(self, raw):
        assert Name(Name(raw).text).text == Name(raw).text

    def test_name_from_name_is_identity(self):
        name = Name("example.com")
        assert Name(name) == name


class TestValidation:
    def test_rejects_empty(self):
        with pytest.raises(NameError_):
            Name("")

    def test_rejects_empty_label(self):
        with pytest.raises(NameError_):
            Name("a..b")

    def test_rejects_long_label(self):
        with pytest.raises(NameError_):
            Name("a" * 64 + ".com")

    def test_accepts_63_char_label(self):
        assert Name("a" * 63 + ".com")

    def test_rejects_overlong_name(self):
        with pytest.raises(NameError_):
            Name(".".join(["a" * 60] * 5))

    def test_rejects_leading_hyphen_label(self):
        with pytest.raises(NameError_):
            Name("-bad.com")

    def test_rejects_trailing_hyphen_label(self):
        with pytest.raises(NameError_):
            Name("bad-.com")

    def test_interior_hyphen_ok(self):
        assert Name("drop-this.com").text == "drop-this.com"

    def test_underscore_allowed_by_default(self):
        assert Name("_dmarc.example.com")

    def test_underscore_rejected_in_strict_mode(self):
        with pytest.raises(NameError_):
            Name("_dmarc.example.com", strict=True)

    def test_is_valid_helper(self):
        assert is_valid("example.com")
        assert not is_valid("")
        assert not is_valid("a..b")


class TestRelations:
    def test_parent(self):
        assert Name("ns1.example.com").parent() == Name("example.com")

    def test_parent_of_tld_raises(self):
        with pytest.raises(NameError_):
            Name("com").parent()

    def test_is_subdomain_of_self(self):
        assert Name("example.com").is_subdomain_of("example.com")

    def test_is_subdomain_of_parent(self):
        assert Name("a.example.com").is_subdomain_of("example.com")

    def test_not_subdomain_of_sibling(self):
        assert not Name("a.example.com").is_subdomain_of("other.com")

    def test_label_boundary_respected(self):
        assert not Name("notexample.com").is_subdomain_of("example.com")

    def test_strict_subdomain_excludes_self(self):
        assert not Name("example.com").is_strict_subdomain_of("example.com")
        assert Name("a.example.com").is_strict_subdomain_of("example.com")

    def test_relativize(self):
        assert Name("www.example.com").relativize("example.com") == "www"

    def test_relativize_self_is_at(self):
        assert Name("example.com").relativize("example.com") == "@"

    def test_relativize_outside_raises(self):
        with pytest.raises(NameError_):
            Name("other.org").relativize("example.com")

    def test_with_tld(self):
        assert Name("ns1.foo.com").with_tld("biz").text == "ns1.foo.biz"

    def test_common_suffix_depth(self):
        assert common_suffix_depth("ns1.foo.com", "ns2.foo.com") == 2
        assert common_suffix_depth("a.com", "b.org") == 0


class TestEqualityAndOrdering:
    def test_equal_to_string(self):
        assert Name("Example.COM") == "example.com"

    def test_hash_matches_text(self):
        assert hash(Name("example.com")) == hash("example.com")

    def test_usable_as_dict_key(self):
        table = {Name("example.com"): 1}
        assert table[Name("EXAMPLE.com")] == 1

    def test_sorted_names_canonical_order(self):
        result = [n.text for n in sorted_names(["b.com", "a.org", "a.com"])]
        assert result == ["a.com", "b.com", "a.org"]

    def test_len_is_label_count(self):
        assert len(Name("a.b.c")) == 3

    def test_repr_contains_text(self):
        assert "example.com" in repr(Name("example.com"))


_REFERENCE_LDH = re.compile(r"^[a-z0-9]([a-z0-9-]*[a-z0-9])?$")
_REFERENCE_LAX = re.compile(r"^[a-z0-9_]([a-z0-9_-]*[a-z0-9_])?$")


def _reference_parse(raw: str, strict: bool) -> tuple[str, tuple[str, ...]]:
    """The per-label path: canonicalize, then check every label."""
    text = raw.strip().rstrip(".").lower()
    if not text:
        raise NameError_("empty domain name")
    if len(text) > MAX_NAME_LENGTH:
        raise NameError_(f"name exceeds {MAX_NAME_LENGTH} octets: {text[:64]}...")
    labels = tuple(text.split("."))
    pattern = _REFERENCE_LDH if strict else _REFERENCE_LAX
    for label in labels:
        if not label:
            raise NameError_(f"empty label in name: {text!r}")
        if len(label) > MAX_LABEL_LENGTH:
            raise NameError_(f"label exceeds {MAX_LABEL_LENGTH} octets: {label!r}")
        if not pattern.match(label):
            raise NameError_(f"invalid label {label!r} in name {text!r}")
    return text, labels


_any_text = st.text(
    alphabet=string.ascii_letters + string.digits + "_.- ", max_size=300
)
# Labels near the 63-octet limit, joined into names near the 253-octet one.
_long_label = st.builds(
    lambda char, count: char * count,
    st.sampled_from("aZ0_-"),
    st.integers(min_value=58, max_value=66),
)
_short_label = st.text(alphabet="abz09_-A", min_size=0, max_size=8)
_dotted = st.lists(
    st.one_of(_short_label, _long_label), min_size=1, max_size=6
).map(".".join)


class TestCanonicalFastPath:
    """Canonical text skips the per-label scan; nothing else may change."""

    @settings(max_examples=500)
    @given(raw=st.one_of(_any_text, _dotted, name_strategy), strict=st.booleans())
    def test_agrees_with_per_label_path(self, raw, strict):
        try:
            expected = _reference_parse(raw, strict)
        except NameError_ as exc:
            with pytest.raises(NameError_) as caught:
                Name(raw, strict=strict)
            assert str(caught.value) == str(exc)
        else:
            name = Name(raw, strict=strict)
            assert (name.text, name.labels) == expected

    def test_longest_canonical_name_is_accepted(self):
        raw = ".".join(["a" * 63] * 3 + ["b" * 61])
        assert len(raw) == MAX_NAME_LENGTH
        assert Name(raw).labels == ("a" * 63,) * 3 + ("b" * 61,)

    def test_one_octet_over_is_refused(self):
        with pytest.raises(NameError_, match="exceeds 253 octets"):
            Name(".".join(["a" * 63] * 3 + ["b" * 62]))

    def test_trailing_newline_is_stripped(self):
        assert Name("example.com\n").text == "example.com"

    @settings(max_examples=300)
    @given(raw=st.one_of(_any_text, _dotted, name_strategy))
    def test_canonical_text_is_name_text(self, raw):
        """``canonical_text`` returns what ``Name(raw).text`` does, and
        refuses what it refuses with the same message."""
        try:
            expected = Name(raw).text
        except NameError_ as exc:
            with pytest.raises(NameError_) as caught:
                canonical_text(raw)
            assert str(caught.value) == str(exc)
        else:
            assert canonical_text(raw) == expected
