from __future__ import annotations

import copy
import pickle

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import make_network
from reference import validate_reference
from strategies import networks

from fieldscope import (
    Direction,
    InvalidNetworkError,
    LayerKind,
    LayerSpec,
    NetworkSpec,
    erf_bottom_up,
    validate,
)
from fieldscope.arch import require_valid


def test_single_conv_layer_is_clean():
    report = validate(make_network(("conv", 9, 1)))
    assert report.ok
    assert report.errors == ()
    assert report.warnings == ()


def test_zero_filter_is_an_error():
    report = validate(make_network(("conv", (0, 3), 1)))
    assert not report.ok
    assert any("filter must be >= 1" in msg for _, msg in report.errors)
    assert report.errors[0][0] == 1


def test_stride_exceeding_filter_warns_per_axis():
    report = validate(make_network(("conv", 2, 3)))
    assert report.ok
    messages = [msg for _, msg in report.warnings]
    assert len(messages) == 2  # one per axis
    assert all("stride exceeds filter" in msg and "coverage gaps" in msg for msg in messages)


def test_stride_exceeding_filter_on_one_axis_warns_once():
    report = validate(make_network(("pool", (2, 4), (3, 2))))
    assert len(report.warnings) == 1
    assert "height" in report.warnings[0][1]


def test_zero_stride_is_an_error():
    report = validate(make_network(("pool", 2, (0, 2))))
    assert any("stride must be >= 1" in msg for _, msg in report.errors)


def test_bad_channels_out_is_an_error():
    layer = LayerSpec(kind=LayerKind.CONV, filter=(3, 3), stride=(1, 1), channels_out=0)
    report = validate(NetworkSpec(name="", direction=Direction.CONV, layers=(layer,)))
    assert any("channels_out" in msg for _, msg in report.errors)


def test_empty_network_is_an_error():
    report = validate(NetworkSpec(name="", direction=Direction.CONV, layers=()))
    assert any("no layers" in msg for _, msg in report.errors)


def test_require_valid_raises_with_findings():
    with pytest.raises(InvalidNetworkError, match="filter must be >= 1"):
        require_valid(make_network(("conv", 0, 1)))


def test_calculators_reject_invalid_networks():
    with pytest.raises(InvalidNetworkError):
        erf_bottom_up(make_network(("conv", 0, 1)))


@given(networks(named=True))
def test_validate_is_deterministic_and_clean_on_generated_networks(network):
    first = validate(network)
    second = validate(network)
    assert first == second
    assert first.ok


def _chain(*layers):
    """A chain of hand-built (filter, stride, channels_out) layers."""
    return NetworkSpec(
        name="",
        direction=Direction.CONV,
        layers=tuple(
            LayerSpec(kind=LayerKind.CONV, filter=f, stride=s, channels_out=c)
            for f, s, c in layers
        ),
    )


@st.composite
def hand_built_networks(draw):
    """Chains with any mix of findings: filters and strides of -1..5 per
    axis, channel counts of None, -1, 0, 1 or 3, and no layers.

    Each axis is clean (filter >= stride >= 1) or drawn from the whole
    range, so a finding on one field often sits in an otherwise clean layer.
    """
    n = draw(st.integers(0, 6))
    sizes = st.integers(-1, 5)
    clean_axis = st.integers(1, 5).flatmap(lambda s: st.tuples(st.integers(s, 5), st.just(s)))
    axes = clean_axis | st.tuples(sizes, sizes)
    layers = []
    for _ in range(n):
        (fh, sh), (fw, sw) = draw(axes), draw(axes)
        channels = draw(st.sampled_from((None, -1, 0, 1, 3)))
        layers.append(((fh, fw), (sh, sw), channels))
    return _chain(*layers)


# One finding in an otherwise clean layer, for each term of the clean-layer
# test; the last sits on layer 2, since a finding carries its position.
@example(_chain())
@example(_chain(((0, 3), (0, 1), None)))
@example(_chain(((3, 3), (1, 0), None)))
@example(_chain(((2, 3), (3, 1), None)))
@example(_chain(((3, 2), (1, 3), None)))
@example(_chain(((3, 3), (1, 1), 0)))
@example(_chain(((3, 3), (1, 1), None), ((0, 3), (1, 1), None)))
@settings(max_examples=300)
@given(hand_built_networks())
def test_validate_matches_the_per_axis_reference(network):
    # compares errors, warnings and their order
    assert validate(network) == validate_reference(network)



# LayerSpec and NetworkSpec are immutable values.
POOL_LAYER = LayerSpec(LayerKind.POOL, (2, 3), (2, 1), 64)
TINY = NetworkSpec(
    "tiny",
    Direction.DECONV,
    (POOL_LAYER, LayerSpec(kind=LayerKind.CONV, filter=(9, 9), stride=(1, 1))),
)


@pytest.mark.parametrize(
    "record, field",
    [(POOL_LAYER, name) for name in ("kind", "filter", "stride", "channels_out", "other")]
    + [(TINY, name) for name in ("name", "direction", "layers", "other")],
)
def test_record_fields_cannot_be_assigned_or_deleted(record, field):
    with pytest.raises(AttributeError, match=f"cannot assign to field '{field}'"):
        setattr(record, field, None)
    with pytest.raises(AttributeError, match=f"cannot delete field '{field}'"):
        delattr(record, field)


def test_records_are_equal_and_hashed_by_value():
    twin = LayerSpec(kind=LayerKind.POOL, filter=(2, 3), stride=(2, 1), channels_out=64)
    assert twin is not POOL_LAYER
    assert twin == POOL_LAYER and hash(twin) == hash(POOL_LAYER)
    network = NetworkSpec("tiny", Direction.DECONV, (twin, TINY.layers[1]))
    assert network == TINY and hash(network) == hash(TINY)
    assert len({twin, POOL_LAYER}) == len({network, TINY}) == 1
    for other in (
        LayerSpec(LayerKind.CONV, (2, 3), (2, 1), 64),
        LayerSpec(LayerKind.POOL, (3, 2), (2, 1), 64),
        LayerSpec(LayerKind.POOL, (2, 3), (1, 2), 64),
        LayerSpec(LayerKind.POOL, (2, 3), (2, 1)),
        (LayerKind.POOL, (2, 3), (2, 1), 64),
    ):
        assert other != POOL_LAYER
    for other in (
        NetworkSpec("", Direction.DECONV, TINY.layers),
        NetworkSpec("tiny", Direction.CONV, TINY.layers),
        NetworkSpec("tiny", Direction.DECONV, TINY.layers[:1]),
    ):
        assert other != TINY


def test_record_repr_names_every_field():
    assert repr(TINY) == (
        "NetworkSpec(name='tiny', direction=<Direction.DECONV: 'deconv'>, layers=("
        "LayerSpec(kind=<LayerKind.POOL: 'pool'>, filter=(2, 3), stride=(2, 1), channels_out=64), "
        "LayerSpec(kind=<LayerKind.CONV: 'conv'>, filter=(9, 9), stride=(1, 1), channels_out=None)))"
    )


def _pickled(record):
    return pickle.loads(pickle.dumps(record))


@pytest.mark.parametrize("clone", [_pickled, copy.deepcopy, copy.copy])
def test_records_copy_and_pickle_by_value(clone):
    for record in (POOL_LAYER, TINY):
        copied = clone(record)
        assert type(copied) is type(record)
        assert copied == record and repr(copied) == repr(record)


def test_a_network_is_not_a_sequence():
    with pytest.raises(TypeError):
        len(TINY)
