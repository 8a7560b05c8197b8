import math
import re

import pytest

from cetsim.errors import DomainError, NumericError, check_unit


def test_values_within_tol_pass():
    check_unit([1.0, 1.0 + 5e-7, 1.0 - 5e-7, complex(1.0, 5e-7), 1 + 0j], 1e-6,
               NumericError, "sum is")
    check_unit([], 0.0, NumericError, "sum is")


@pytest.mark.parametrize(
    "value, shown",
    [
        (math.nan, "nan"),
        (complex(math.nan, 0.0), "(nan+0j)"),
        (math.inf, "inf"),
        (1.0 + 2e-6, "1.000002"),
        (complex(1.0, 2e-6), "(1+2e-06j)"),
    ],
    ids=["nan", "complex-nan", "inf", "real", "complex"],
)
def test_first_value_off_one_raises(value, shown):
    with pytest.raises(DomainError, match=rf"^trace is {re.escape(shown)}, expected 1$"):
        check_unit([1.0, value, math.nan], 1e-6, DomainError, "trace is")
