import struct

import numpy as np
import pytest

from crowdcount.models import build_mcnn
from crowdcount.nn import load_checkpoint, save_checkpoint


class TestCheckpoint:
    def test_roundtrip_preserves_weights_and_structure(self, tmp_path):
        net = build_mcnn(0.25, in_channels=1, seed=5)
        p = tmp_path / "m.nnck"
        save_checkpoint(net, p)
        back = load_checkpoint(p)
        assert back.name == net.name
        assert back.output_stride == net.output_stride
        assert back.param_count() == net.param_count()
        for a, b in zip(net.parameters(), back.parameters()):
            np.testing.assert_array_equal(a.data, b.data)

    def test_roundtrip_preserves_predictions(self, tmp_path):
        net = build_mcnn(0.25, in_channels=1, seed=6)
        x = np.random.default_rng(0).random((1, 1, 16, 16), dtype=np.float32)
        before = net.forward(x)
        save_checkpoint(net, tmp_path / "m.nnck")
        after = load_checkpoint(tmp_path / "m.nnck").forward(x)
        np.testing.assert_array_equal(before, after)

    def test_header_layout(self, tmp_path):
        net = build_mcnn(0.25, in_channels=1, seed=0)
        p = tmp_path / "m.nnck"
        save_checkpoint(net, p)
        raw = p.read_bytes()
        assert raw[:4] == b"NNCK"
        (version,) = struct.unpack_from("<I", raw, 4)
        (spec_len,) = struct.unpack_from("<Q", raw, 8)
        assert version == 1
        spec = raw[16 : 16 + spec_len].decode("utf-8")
        assert '"columns"' in spec and '"output_stride"' in spec

    def test_write_is_byte_deterministic(self, tmp_path):
        net = build_mcnn(0.25, in_channels=1, seed=1)
        save_checkpoint(net, tmp_path / "a.nnck")
        save_checkpoint(net, tmp_path / "b.nnck")
        assert (tmp_path / "a.nnck").read_bytes() == (tmp_path / "b.nnck").read_bytes()

    def test_rejects_bad_magic(self, tmp_path):
        p = tmp_path / "bad.nnck"
        p.write_bytes(b"XXXX" + b"\x00" * 32)
        with pytest.raises(ValueError, match="magic"):
            load_checkpoint(p)

    def test_rejects_future_version(self, tmp_path):
        p = tmp_path / "v9.nnck"
        p.write_bytes(b"NNCK" + struct.pack("<I", 9) + struct.pack("<Q", 0))
        with pytest.raises(ValueError, match="version"):
            load_checkpoint(p)

    def test_rejects_unsupported_pool_window(self, tmp_path):
        p = tmp_path / "m.nnck"
        save_checkpoint(build_mcnn(0.25, in_channels=1, seed=3), p)
        raw = p.read_bytes()
        assert b'"window": 2' in raw
        p.write_bytes(raw.replace(b'"window": 2', b'"window": 3'))  # same length
        with pytest.raises(ValueError, match="2x2"):
            load_checkpoint(p)

    def test_rejects_trailing_garbage(self, tmp_path):
        net = build_mcnn(0.25, in_channels=1, seed=2)
        p = tmp_path / "m.nnck"
        save_checkpoint(net, p)
        p.write_bytes(p.read_bytes() + b"\x00\x01\x02")
        with pytest.raises(ValueError, match="trailing"):
            load_checkpoint(p)
