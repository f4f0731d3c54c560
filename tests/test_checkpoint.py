"""Durable checkpoint images: round-trip, delta chains, corruption, blackbox.

The tentpole property is byte-identity: checkpoint a quiesced server,
restore it into a fresh kernel, and the restored tree's
``TreeFingerprint`` must match the image exactly — for every server,
and after any full-then-N-incremental delta chain.  The hardening
property is atomicity: a damaged or incompatible image raises a typed
``ImageError`` naming the failing section and never yields a partially
restored tree.
"""

from __future__ import annotations

import json
import struct
import zlib

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.checkpoint import (
    CheckpointImage,
    DeltaBaseline,
    FORMAT_VERSION,
    StandbyChannel,
    WarmStandby,
    capture_delta,
    checkpoint_node,
    read_image,
    restore_image,
    resume_node,
    write_image,
)
from repro.errors import ImageError, PromotionError
from repro.fleet.node import REQUEST_SCRIPTS, Node
from repro.mcr.config import MCRConfig
from repro.mcr.faults import FaultPlan, TreeFingerprint
from repro.mem.pages import PAGE_SIZE

SERVERS = ("simple", "httpd", "nginx", "vsftpd", "memcache")

WARMUP_NS = 30_000_000


def _boot_warm(server: str, requests: int = 4) -> Node:
    """Boot a node, push some traffic through it, and drain in-flight work."""
    node = Node.boot(server)
    if requests and server in REQUEST_SCRIPTS:
        node.serve(requests)
    node.run_for(WARMUP_NS)
    return node


def _teardown(*nodes: Node) -> None:
    for node in nodes:
        if node is not None and not node.torn_down:
            node.teardown()


# -- full-image round trip ----------------------------------------------------


@pytest.mark.parametrize("server", SERVERS)
def test_round_trip_fingerprint_identical(server):
    source = _boot_warm(server)
    restored = None
    try:
        image = checkpoint_node(source)
        assert image.server == server
        assert image.meta["format"] == FORMAT_VERSION
        restored = restore_image(image, node_id=1)
        live = restored.fingerprint()
        assert image.fingerprint.diff(live) == []
    finally:
        _teardown(source, restored)


def test_restored_node_serves_after_resume(tmp_path):
    source = _boot_warm("simple")
    restored = None
    try:
        image = checkpoint_node(source)
        path = tmp_path / "simple.img"
        write_image(image, str(path))
        reloaded = read_image(str(path))
        assert reloaded.image_id == image.image_id
        assert reloaded.fingerprint.diff(image.fingerprint) == []
        restored = resume_node(restore_image(reloaded, node_id=1))
        restored.serve(3)
        restored.run_for(WARMUP_NS)
        assert restored.completed == 3
        assert restored.lost == 0
    finally:
        _teardown(source, restored)


def _mapping_crcs(process) -> dict:
    space = process.space
    return {m.base: zlib.crc32(space.view(m.base, m.size)) for m in space.mappings()}


def _idle(sys):
    return
    yield


def test_fork_after_restore_copies_grafted_pages():
    source = _boot_warm("vsftpd")
    restored = None
    try:
        # vsftpd's master keeps its per-session state on pages its boot
        # already wrote, so stand in for post-boot growth with one word on
        # a data page a fresh boot never touches.
        data = next(source.root.space.mappings("data"))
        source.root.space.write_word(data.end - PAGE_SIZE, 0x5EED)
        restored = restore_image(checkpoint_node(source), node_id=1)
        master = restored.root
        space = master.space
        # The graft must have stored bytes on pages the freshly booted
        # tracker never saw written, or this test would prove nothing.
        unseen = [
            page
            for m in space.mappings()
            for page in range(m.tracker.num_pages)
            if page not in m.tracker.ever_written
            and space.read_bytes(m.base + page * PAGE_SIZE, PAGE_SIZE).count(0) < PAGE_SIZE
        ]
        assert unseen
        with restored.scope():
            child = restored.kernel.fork_for_restore(master, _idle, (), "probe", [])
        assert _mapping_crcs(child) == _mapping_crcs(master)
    finally:
        _teardown(source, restored)


def test_fingerprint_dict_round_trip():
    node = _boot_warm("simple")
    try:
        original = node.fingerprint()
        clone = TreeFingerprint.from_dict(original.to_dict())
        assert clone.diff(original) == []
        # JSON round-trip must be lossless too (the image meta relies on it).
        rejson = TreeFingerprint.from_dict(
            json.loads(json.dumps(original.to_dict()))
        )
        assert rejson.diff(original) == []
    finally:
        _teardown(node)


# -- delta chains -------------------------------------------------------------


@settings(
    max_examples=4,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(rounds=st.lists(st.integers(min_value=1, max_value=3), max_size=3))
def test_full_then_incremental_chain_matches_primary(rounds):
    """Full image + N streamed deltas leave the standby byte-identical."""
    primary = _boot_warm("simple")
    standby = None
    try:
        image = checkpoint_node(primary)
        baseline = DeltaBaseline(image)
        standby = WarmStandby.from_image(image, node_id=1)
        channel = StandbyChannel()
        for requests in rounds:
            primary.serve(requests)
            primary.run_for(WARMUP_NS)
            delta = capture_delta(primary, baseline)
            assert delta is not None, "no structural change expected"
            channel.send(delta)
            for blob in channel.drain():
                assert standby.apply(blob)
        assert not standby.stale
        assert standby.applied_seq == len(rounds)
        live = primary.fingerprint()
        grafted = standby.node.fingerprint()
        assert live.diff(grafted) == []
    finally:
        _teardown(primary, None if standby is None else standby.node)


def test_sequence_gap_marks_standby_stale():
    primary = _boot_warm("simple")
    standby = None
    try:
        image = checkpoint_node(primary)
        baseline = DeltaBaseline(image)
        standby = WarmStandby.from_image(image, node_id=1)
        deltas = []
        for _ in range(2):
            primary.serve(2)
            primary.run_for(WARMUP_NS)
            deltas.append(capture_delta(primary, baseline))
        # Drop delta seq 1 on the floor: seq 2 arrives against applied_seq 0.
        assert not standby.apply(deltas[1].encode())
        assert standby.stale
        assert standby.deltas_rejected == 1
        # A stale standby refuses everything until resynced from a full image.
        assert not standby.apply(deltas[0].encode())
        standby.resync(checkpoint_node(primary))
        assert not standby.stale
    finally:
        _teardown(primary, None if standby is None else standby.node)


# -- corrupt-image hardening --------------------------------------------------


def _encoded_simple_image():
    node = _boot_warm("simple")
    try:
        image = checkpoint_node(node)
        return image, image.encode()
    finally:
        _teardown(node)


def test_corrupt_images_raise_typed_errors():
    image, blob = _encoded_simple_image()

    with pytest.raises(ImageError) as excinfo:
        CheckpointImage.decode(b"NOTMCRIM" + blob[8:])
    assert excinfo.value.section == "magic"

    bad_version = blob[:8] + struct.pack("<I", FORMAT_VERSION + 1) + blob[12:]
    with pytest.raises(ImageError) as excinfo:
        CheckpointImage.decode(bad_version)
    assert excinfo.value.section == "version"

    with pytest.raises(ImageError) as excinfo:
        CheckpointImage.decode(blob[:40])
    assert excinfo.value.section == "meta"

    # Truncation mid-sections names the damaged section, not "meta".
    with pytest.raises(ImageError) as excinfo:
        CheckpointImage.decode(blob[:-64])
    assert excinfo.value.section in image.sections

    # A single flipped bit in a section payload fails that section's CRC.
    flipped = bytearray(blob)
    flipped[-10] ^= 0x40
    with pytest.raises(ImageError) as excinfo:
        CheckpointImage.decode(bytes(flipped))
    assert excinfo.value.section in image.sections


def test_incompatible_image_never_partially_restores():
    source = _boot_warm("simple")
    try:
        image = checkpoint_node(source)
        meta = json.loads(json.dumps(image.meta))  # deep copy
        meta["processes"][0]["threads"][0]["call_stack"] = ["somewhere", "else"]
        doctored = CheckpointImage(meta, dict(image.sections))
        with pytest.raises(ImageError) as excinfo:
            restore_image(doctored, node_id=1)
        assert excinfo.value.section == "threads"
    finally:
        _teardown(source)


def test_unreadable_image_file(tmp_path):
    with pytest.raises(ImageError) as excinfo:
        read_image(str(tmp_path / "missing.img"))
    assert excinfo.value.section == "magic"


# -- blackbox dumps -----------------------------------------------------------


def test_failed_restore_dumps_blackbox(tmp_path):
    source = _boot_warm("simple")
    try:
        image = checkpoint_node(source)
        blackbox_path = tmp_path / "restore-blackbox.json"
        config = MCRConfig(
            faults=FaultPlan().at("restore.image"),
            blackbox_path=str(blackbox_path),
        )
        with pytest.raises(ImageError):
            restore_image(image, node_id=1, config=config)
        assert blackbox_path.exists()
        dump = json.loads(blackbox_path.read_text())
        assert dump["reason"] == "restore.failed"
        assert dump["image_version"] == image.image_id
        assert dump["failure_site"] == "restore.image"
        assert dump["last_applied_delta_seq"] == 0
    finally:
        _teardown(source)


def test_failed_promotion_dumps_blackbox(tmp_path):
    primary = _boot_warm("simple")
    standby = None
    try:
        image = checkpoint_node(primary)
        blackbox_path = tmp_path / "promote-blackbox.json"
        config = MCRConfig(
            faults=FaultPlan().at("standby.promote"),
            blackbox_path=str(blackbox_path),
        )
        standby = WarmStandby.from_image(image, node_id=1, config=config)
        baseline = DeltaBaseline(image)
        primary.serve(2)
        primary.run_for(WARMUP_NS)
        delta = capture_delta(primary, baseline)
        assert standby.apply(delta.encode())
        with pytest.raises(PromotionError):
            standby.promote()
        assert blackbox_path.exists()
        dump = json.loads(blackbox_path.read_text())
        assert dump["reason"] == "standby.promote_failed"
        assert dump["image_version"] == image.image_id
        assert dump["last_applied_delta_seq"] == 1
        assert standby.last_blackbox is not None
    finally:
        _teardown(primary, None if standby is None else standby.node)
