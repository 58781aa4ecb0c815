"""Sizes and pass counts of the workloads, shared by ``run.py`` (which
never imports ncfree) and ``workloads.py``."""

ENUM_MAX_TOTAL = 8  # every nc, snc and psnc family with p + q <= 8
MAIN_MAX_TOTAL = 6  # second order product formula, shapes with p + q <= 6
KS_MAX_TOTAL = 6  # first order product formula, n <= 6
HAAR_MAX_TOTAL = 6  # Haar sign sweep, shapes with p + q <= 6
LEMMA_BOUND = 5  # common bound of the lemma suite (bound 6 takes 17 s)

# The lemma suite's checks with their default bounds, in the order
# ``ncfree verify lemmas`` submits them; each runs at min(default, LEMMA_BOUND).
LEMMA_CHECKS = (
    ("nc_counts", 9),
    ("metric_triangle", 6),
    ("metric_order", 6),
    ("conjugation_invariance", 6),
    ("restriction_commutes", 6),
    ("order_refinement", 6),
    ("snc_rotation", 6),
    ("first_sep", 8),
    ("separates", 8),
    ("tracial_inequality", 6),
    ("restriction_lemma", 8),
    ("fattening", 9),
    ("annular_order", 7),
    ("tunnel_product", 6),
    ("order_corollary", 6),
)

# Every run has at least this many passes; the tail percentile is chosen
# for this many passes' calls.
MIN_PASSES = {"enumerate-cold": 4, "product-formula": 4, "lemma-sweep": 10}
