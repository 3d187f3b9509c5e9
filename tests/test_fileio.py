"""The cache codec: what ContentCache.store writes, load reads back bit
for bit, and any other file is a miss; the stamp that lets a hit skip the
hashing; and the line a text read names for a byte that is not UTF-8."""

import hashlib
import io
import json
import os
import re
import zlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from fakereal import corpus, fileio, pipeline, social
from fakereal.fileio import ContentCache, file_digest, open_text

from conftest import assert_same_bits, no_hashing

MAGIC = b"test cache 1\n"

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=12)

arrays = st.dictionaries(
    st.text(min_size=1, max_size=8),
    st.sampled_from([np.int32, np.float64, np.uint8]).flatmap(
        lambda dtype: hnp.arrays(dtype, hnp.array_shapes(min_dims=1, max_dims=3, min_side=0,
                                                         max_side=5))),
    max_size=4)


def cache_of(directory):
    source = directory / "input.txt"
    source.write_text("the input file\n")
    return ContentCache(source, ".test", MAGIC)


def contents(meta, arrays):
    return meta, arrays


def forge(cache, spec, body=b""):
    """Write a cache file for `cache` whose CRC-32 matches: the JSON line
    `spec` (a JSON value, or bytes written as they are) and `body`."""
    line = spec if isinstance(spec, bytes) else json.dumps(spec).encode("ascii") + b"\n"
    lines = cache.digest.encode() + b"\n" + cache.stamp
    rest = line + body
    os.makedirs(os.path.dirname(cache.path), exist_ok=True)
    with open(cache.path, "wb") as fh:
        fh.write(MAGIC + lines + b"%08x\n" % zlib.crc32(lines + rest) + rest)


def stamp_of(path):
    st = os.stat(path)
    return b"%d %d %d %d\n" % (st.st_size, st.st_mtime_ns, st.st_ctime_ns, st.st_ino)


# the digest line's end, where the stamp line starts
STAMP_AT = len(MAGIC) + 65


@pytest.fixture
def stored(tmp_path):
    """A cache holding meta and three arrays, and its file's bytes."""
    cache = cache_of(tmp_path)
    cache.store({"n": 3, "name": "é"}, {"ids": np.array([1, -2, 3], np.int32),
                                        "text": np.frombuffer(b"ab\n", np.uint8),
                                        "vectors": np.array([[0.5, -0.0]])})
    with open(cache.path, "rb") as fh:
        return cache, fh.read()


class TestRoundTrip:
    @settings(max_examples=150, deadline=None)
    @given(meta=json_values, arrays=arrays)
    def test_load_gives_back_what_store_wrote(self, tmp_path_factory, meta, arrays):
        cache = cache_of(tmp_path_factory.mktemp("cache"))
        cache.store(meta, arrays)
        got_meta, got = cache.load(contents)
        assert got_meta == meta
        assert list(got) == list(arrays)
        for name, array in arrays.items():
            assert_same_bits(got[name], array)
            assert not got[name].flags.writeable

    def test_the_file_layout(self, stored):
        # a source younger than the margin has the stamp "-"
        cache, data = stored
        magic, digest, stamp, crc, spec, body = data.split(b"\n", 5)
        assert magic + b"\n" == MAGIC
        assert digest == hashlib.sha256(b"the input file\n").hexdigest().encode()
        assert stamp == b"-"
        assert crc == b"%08x" % zlib.crc32(b"\n".join([digest, stamp, spec, body]))
        assert json.loads(spec) == {"meta": {"n": 3, "name": "é"}, "arrays": [
            ["ids", "<i4", [3]], ["text", "|u1", [3]], ["vectors", "<f8", [1, 2]]]}
        assert body == (np.array([1, -2, 3], "<i4").tobytes() + b"ab\n"
                        + np.array([0.5, -0.0], "<f8").tobytes())

    def test_numpy_integers_in_meta_and_big_endian_arrays(self, tmp_path):
        cache = cache_of(tmp_path)
        cache.store({"d_max": np.int64(2)}, {"a": np.arange(3, dtype=">i4")[::-1]})
        meta, arrays = cache.load(contents)
        assert meta == {"d_max": 2} and type(meta["d_max"]) is int
        assert_same_bits(arrays["a"], np.array([2, 1, 0], "<i4"))

    def test_meta_without_arrays(self, tmp_path):
        cache = cache_of(tmp_path)
        cache.store({"levels": {"u": [2, 1]}}, {})
        assert cache.load(contents) == ({"levels": {"u": [2, 1]}}, {})


class TestMisses:
    def test_a_missing_file_is_a_miss(self, tmp_path):
        assert cache_of(tmp_path).load(contents) is None

    def test_every_byte_change_after_the_digest_line_is_a_miss(self, tmp_path, age):
        # the stamp line included, here one of the file's stat
        age()
        cache = cache_of(tmp_path)
        cache.store({"n": 3}, {"ids": np.array([1, -2, 3], np.int32)})
        with open(cache.path, "rb") as fh:
            good = fh.read()
        assert good[STAMP_AT:].startswith(stamp_of(cache.source))
        for at in range(STAMP_AT, len(good)):
            for mask in (0x01, 0x80, 0xFF):
                spoilt = bytearray(good)
                spoilt[at] ^= mask
                with open(cache.path, "wb") as fh:
                    fh.write(spoilt)
                assert cache.load(contents) is None, (at, mask)

    def test_every_truncation_after_the_digest_line_is_a_miss(self, stored):
        cache, good = stored
        for end in range(STAMP_AT, len(good)):
            with open(cache.path, "wb") as fh:
                fh.write(good[:end])
            assert cache.load(contents) is None, end

    def test_a_head_of_another_format_or_content_is_a_miss(self, stored):
        cache, good = stored
        for head in (b"test cache 2\n" + good[len(MAGIC):],
                     good.replace(cache.digest.encode(), b"0" * 64, 1)):
            with open(cache.path, "wb") as fh:
                fh.write(head)
            assert cache.load(contents) is None

    @pytest.mark.parametrize("spec, body", [
        ({"meta": {}, "arrays": [["a", "<i4", [2]]]}, b"\0" * 9),        # a byte left over
        ({"meta": {}, "arrays": [["a", "<i4", [2]]]}, b"\0" * 7),        # a byte short
        ({"meta": {}, "arrays": [["a", "<i4", [2]], ["b", "|u1", [1]]]}, b"\0" * 8),
        ({"meta": {}, "arrays": []}, b"\0"),
        ({"meta": {}, "arrays": [["a", "<f8", [3, 0]]]}, b"\0" * 8),
        ({"meta": {}, "arrays": [["a", "<i4", [3, -1]]]}, b"\0" * 12),   # a negative side
        ({"meta": {}, "arrays": [["a", "|u1", [2 ** 70]]]}, b"\0"),
        ({"meta": {}, "arrays": [["a", "not a dtype", [1]]]}, b"\0"),
        ({"meta": {}, "arrays": [["a", "|O", [1]]]}, b"\0" * 8),          # pointers
        ({"meta": {}, "arrays": [["a", "<i4"]]}, b""),
        ({"meta": {}}, b""),
        ({"arrays": []}, b""),
        ([], b""),
        (b'{"meta": {}, "arrays": []', b""),                            # no newline
        (b'{"meta": {}, \n"arrays": []}\n', b""),                        # two lines
    ])
    def test_specs_that_do_not_cover_the_bytes_are_a_miss(self, tmp_path, spec, body):
        cache = cache_of(tmp_path)
        forge(cache, spec, body)
        assert cache.load(contents) is None

    def test_a_forged_file_that_covers_its_bytes_is_a_hit(self, tmp_path):
        cache = cache_of(tmp_path)
        forge(cache, {"meta": [1], "arrays": [["a", "<i2", [2]], ["b", "|u1", [0]]]}, b"\1\0\2\0")
        meta, arrays = cache.load(contents)
        assert meta == [1] and list(arrays) == ["a", "b"]
        assert_same_bits(arrays["a"], np.array([1, 2], np.int16))

    @pytest.mark.parametrize("error", [ValueError, KeyError, TypeError])
    def test_a_payload_decode_refuses_is_a_miss(self, stored, error):
        cache, _ = stored

        def refuse(meta, arrays):
            raise error("not what it means")

        assert cache.load(refuse) is None

    def test_other_decode_errors_are_not_swallowed(self, stored):
        cache, _ = stored
        with pytest.raises(ZeroDivisionError):
            cache.load(lambda meta, arrays: 1 / 0)


class TestStamp:
    def test_trusted_only_past_the_margin(self, tmp_path, monkeypatch):
        # the clock is read before the stat; a file whose mtime or ctime
        # lies within the margin of it gets the stamp "-"
        source = tmp_path / "input.txt"
        source.write_text("x")
        st = os.stat(source)
        for mtime, ctime in ((st.st_mtime_ns, st.st_ctime_ns),
                             (st.st_ctime_ns - 10 ** 10, st.st_ctime_ns)):
            os.utime(source, ns=(st.st_atime_ns, mtime))
            newest = max(mtime, os.stat(source).st_ctime_ns)
            for now, trusted in ((newest + fileio.STAMP_MARGIN_NS, False),
                                 (newest + fileio.STAMP_MARGIN_NS + 1, True)):
                monkeypatch.setattr(fileio, "time_ns", lambda: now)
                want = stamp_of(source) if trusted else b"-\n"
                assert ContentCache(source, ".test", MAGIC).stamp == want

    def test_a_hit_verified_by_the_digest_rewrites_the_stamp_once(self, stored, age):
        # the payload as it was, under the new stamp and a CRC-32 over it
        cache, young = stored
        age()
        cache = ContentCache(cache.source, ".test", MAGIC)
        with mock.patch.object(fileio, "file_digest", wraps=file_digest) as hashed:
            meta, _ = cache.load(contents)
        assert hashed.call_count == 1 and meta == {"n": 3, "name": "é"}
        with open(cache.path, "rb") as fh:
            data = fh.read()
        magic, digest, stamp, crc, rest = data.split(b"\n", 4)
        assert young == b"\n".join([magic, digest, b"-", young.split(b"\n", 4)[3], rest])
        assert stamp + b"\n" == stamp_of(cache.source)
        assert crc == b"%08x" % zlib.crc32(b"\n".join([digest, stamp, rest]))
        with no_hashing():
            again = ContentCache(cache.source, ".test", MAGIC)
            assert again.load(contents)[0] == meta
            assert again.digest == digest.decode()
        with open(cache.path, "rb") as fh:
            assert fh.read() == data

    def test_a_sibling_is_keyed_by_the_digest_without_a_stat(self, stored):
        cache, _ = stored
        with mock.patch.object(fileio, "_stamp", side_effect=AssertionError("stat")), \
                no_hashing():
            sibling = cache.sibling(".other", MAGIC)
            assert sibling.load(contents) is None
            sibling.store({"n": 2}, {})
            assert sibling.load(contents) == ({"n": 2}, {})
        assert sibling.stamp == cache.stamp and sibling.digest == cache.digest


class BadText(Exception):
    pass


class TestOpenText:
    @settings(max_examples=200, deadline=None)
    @given(data=st.lists(st.sampled_from([b"a", b"\n", b"\r", b"\r\n", b" ", b"\xc3\xa9",
                                          b"\xe2\x80\xa8", b"\x85", b"\xff", b"\xe9",
                                          b"\xc3"]), max_size=40)
           .map(b"".join),
           size=st.sampled_from([0, 1, 8191, 8192, 70000]))
    def test_reads_as_open_does_or_names_the_line_of_the_bad_byte(self, tmp_path_factory,
                                                                   data, size):
        # the lines open(path, "r", encoding="utf-8") gives (universal
        # newlines), or the given error naming the line of the first byte
        # strict UTF-8 does not decode, as a text read counts lines
        path = tmp_path_factory.mktemp("text") / "input.txt"
        raw = b"x" * size + data
        path.write_bytes(raw)
        try:
            raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            before = raw[:exc.start].decode("utf-8") + "?"
            line = len(io.StringIO(before, newline=None).readlines())
            with pytest.raises(BadText, match=f"^{re.escape(str(path))}: line {line}: "
                                              "invalid UTF-8$"):
                with open_text(path, BadText) as fh:
                    list(fh)
        else:
            with open_text(path, BadText) as fh, open(path, "r", encoding="utf-8") as want:
                assert list(fh) == list(want)

    @pytest.mark.parametrize("read, good, error", [
        (corpus.load_corpus, json.dumps({"id": "a", "headline": "h", "body": "b",
                                         "label": "real"}) + "\n", corpus.CorpusError),
        (lambda path: corpus.load_embeddings(path, {"a": 1}), "a 1 2\n", corpus.CorpusError),
        (social.load_edge_list, "a b\n", ValueError),
        (social.load_follower_counts, "a\t1\n", ValueError),
        (pipeline.load_config, "train.lr = 0.1\n", pipeline.ConfigError),
    ])
    def test_every_reader_names_the_file_and_the_line(self, tmp_path, read, good, error):
        # the error each reader raises, on a byte past the text reader's
        # first chunk; blank lines are skipped by every reader
        path = tmp_path / "input.txt"
        path.write_bytes(good.encode("utf-8") + b"\n" * 10000 + b"# \xe9\n")
        with pytest.raises(error, match=f"^{re.escape(str(path))}: line 10002: invalid UTF-8$") \
                as raised:
            read(path)
        assert type(raised.value) is error
