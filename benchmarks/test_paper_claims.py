"""The paper's ten claims at the oracle and data-parallel modes.

The claims live in ``tests/paper/``, where tier-1 runs them at
``fast/f32``.  This module collects the same test functions with the
``mode`` fixture parametrized, so each claim also runs on its own
experiment cache at ``ref/f64`` (the bit-exact oracle) and at
``fast/f32/ddp2`` (training sharded over two DDP ranks)::

    PYTHONPATH=src python -m pytest benchmarks/test_paper_claims.py -q
"""

import pytest

from tests.paper.test_fig2_distributions import (  # noqa: F401
    test_fig2a_weight_distribution_reshaping,
    test_fig2b_pixel_distributions_by_std,
)
from tests.paper.test_fig3_quantized_distributions import (  # noqa: F401
    test_fig3_quantizer_distribution_preservation,
)
from tests.paper.test_fig4_attack_comparison import (  # noqa: F401
    test_fig4_three_arm_comparison,
)
from tests.paper.test_fig5_face_reconstruction import (  # noqa: F401
    test_fig5_face_reconstruction_quality,
)
from tests.paper.test_table1_quantization_defense import (  # noqa: F401
    test_table1_weq_defense,
)
from tests.paper.test_table2_layer_groups import (  # noqa: F401
    test_table2_group_encoding_quality,
)
from tests.paper.test_table3_cifar_results import (  # noqa: F401
    test_table3_full_comparison,
)
from tests.paper.test_table4_face_results import (  # noqa: F401
    test_table4_face_quantization,
)

pytestmark = pytest.mark.slow


@pytest.fixture(scope="session", params=["ref/f64", "fast/f32/ddp2"])
def mode(request):
    return request.param
