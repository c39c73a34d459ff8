"""Named random streams: the path parts a stream refuses."""

import numpy as np
import pytest

from scoreshift.rng import stream


@pytest.mark.parametrize(
    "part, error, message",
    [
        (-1, ValueError, "stream path ints must be >= 0, got -1"),
        (np.int64(-3), ValueError, "stream path ints must be >= 0, got -3"),
        (1.5, TypeError, "stream path parts must be int or str, got <class 'float'>"),
        (b"node-x", TypeError, "stream path parts must be int or str, got <class 'bytes'>"),
    ],
    ids=["negative-int", "negative-numpy-int", "float", "bytes"],
)
def test_path_part_refused(part, error, message):
    with pytest.raises(error) as err:
        stream(0, "tag", part)
    assert str(err.value) == message
