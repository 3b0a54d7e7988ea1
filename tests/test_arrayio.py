import numpy as np
import pytest

from tapfuse.arrayio import read_array, write_array
from tapfuse.errors import MalformedRecord


@pytest.mark.parametrize("cut", [5, 8, 11, 16])
def test_truncated_header_is_malformed_record(cut):
    # rank 3 needs 8 + 12 header bytes; cut inside the rank or the dims
    data = write_array(np.zeros((2, 3, 4)))
    with pytest.raises(MalformedRecord):
        read_array(data[:cut])


def test_rank_only_header_is_malformed_record():
    with pytest.raises(MalformedRecord):
        read_array(b"TNS1\x03")
