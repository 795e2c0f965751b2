"""Closed-form variance and concentration bounds, compared against exact and
empirical quantities.

All bounds are checked as one-sided inequalities with explicit slack; the
unspecified constants of the underlying statements are either dropped (pure
upper-bound chains) or cancel in ratios between sizes.
"""

import math
from dataclasses import dataclass

from .polyomino import directed_gf
from .spinmodel import global_loss_weights, norm_weights

NORM_DECAY_RATE = 0.97      # headline rate of the norm-concentration statement
GF_RESCALE = 25.0 / 26.0    # area rescale keeping the generating function finite


@dataclass(frozen=True)
class BoundReport:
    name: str
    params: dict
    bound: float
    compared: float
    satisfied: bool
    slack: float  # bound / compared for upper bounds, compared / bound for floors

    def to_json_dict(self):
        return {"name": self.name, "params": self.params, "bound": self.bound,
                "compared": self.compared, "satisfied": bool(self.satisfied),
                "slack": self.slack}


def _upper_report(name, params, bound, compared):
    return BoundReport(name, params, float(bound), float(compared),
                       compared <= bound, float(bound / max(compared, 1e-300)))


def norm_excess_bound(L, D, d):
    """Upper bound on Z - 1 for the L x L norm partition function.

    Chains the per-configuration area/perimeter decay through the plane
    generating function: with q_a = f(up,up,up), p_u = f(down,down,up)^2,
    r = GF_RESCALE and S = r^L * G(q_a/r, p_u) >= sum_{m >= L} D_{m,n} q_a^m p_u^n,
    the toric-to-plane counting gives
    Z - 1 <= L/(1-p_u) * max_{k <= L} (L^2 S / p_u)^k.

    The bound is formed in log space (`_log_norm_excess_bound`); where it
    exceeds the float range (at D = d = 2 for L = 139..189) it is inf.
    """
    try:
        return math.exp(_log_norm_excess_bound(L, D, d))
    except OverflowError:
        return math.inf


def _log_norm_excess_bound(L, D, d):
    """log of `norm_excess_bound`: log(L/(1-p_u)) + max(log x, L log x) for x = L^2 S / p_u."""
    tab = norm_weights(D, d)
    q_a = tab(1, 1, 1)
    p_u = tab(0, 0, 1) ** 2
    log_x = (math.log(L * L / p_u) + L * math.log(GF_RESCALE)
             + math.log(directed_gf(q_a / GF_RESCALE, p_u)))
    return math.log(L / (1.0 - p_u)) + max(log_x, L * log_x)


def norm_excess_report(L, D, d, z_exact):
    return _upper_report("norm_excess", {"L": L, "D": D, "d": d},
                         norm_excess_bound(L, D, d), z_exact - 1.0)


def global_variance_ratio(D, d):
    """Per-site decay ratio 2 (D^4 - 1/d) / ((D^2 d)^2 - 1) of the global-loss bound."""
    return 2.0 * (D**4 - 1.0 / d) / ((D**2 * d) ** 2 - 1.0)


def global_variance_bound(n_sites, D, d):
    """2^V * g_max^(V-1): the global-loss variance bound at V sites."""
    g_max = global_loss_weights(D, d)(0, 0, 0)
    return 2.0**n_sites * g_max ** (n_sites - 1)


def onsite_floor_prefactors(D, d, tr_o2, tr_o=0.0):
    """The two explicit on-site variance floor prefactors.

    Returns (D^2 (1 - 1/d) / ((D^2 d)^2 - 1), D^2 (tr O^2 - (tr O)^2/d) / ((D^2 d)^2 - 1)).
    """
    if tr_o2 <= 0:
        raise ValueError("tr(O^2) must be positive")
    den = (D**2 * d) ** 2 - 1.0
    return (D**2 * (1.0 - 1.0 / d) / den,
            D**2 * (tr_o2 - tr_o**2 / d) / den)
