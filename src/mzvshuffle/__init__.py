"""Exact shuffle-product computer algebra for multiple zeta values."""

from .combinat import binom, compositions, weak_compositions
from .closed_form import (
    beta_sequence,
    coeff_general,
    expand_1_2,
    expand_1_3,
    expand_1_s,
    expand_2_2,
    expand_2_3,
    expand_3_3,
    expand_euler,
    expand_general,
    gamma_sequence,
)
from .equivalence import (
    PositivityRequiredError,
    expand_lgm_1_1,
    expand_lgm_1_2,
    lgm_1_2_sum,
)
from .lincomb import LinComb
from .numeric import (
    NumericResult,
    identity_residual_with_bound,
    mzv_eval,
    zeta_of_lincomb,
)
from .restricted import (
    expand_nfold,
    expand_nfold_depth1,
    expand_res_1_1,
    expand_res_1_2,
    expand_res_2_2,
    res_1_2_case,
    res_2_2_case,
)
from .shuffle import shuffle_nfold, shuffle_permutation, shuffle_recursive
from .words import (
    DEFAULT_EXPONENT_CAP,
    EMPTY_WORD,
    ExponentOverflowError,
    NotAdmissibleError,
    NotInH1Error,
    Word,
    WordSyntaxError,
    from_exponent_form,
    mzv_to_word,
    parse_mzv_index,
    parse_word,
    to_exponent_form,
    word_to_mzv,
)

__version__ = "0.1.0"
