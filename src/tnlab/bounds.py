"""Closed-form variance and concentration bounds, compared against exact and
empirical quantities.

All bounds are checked as one-sided inequalities with explicit slack; the
unspecified constants of the underlying statements are either dropped (pure
upper-bound chains) or cancel in ratios between sizes.
"""

import math
import sys
from dataclasses import dataclass

from .errors import integer
from .losses import traceless_observable
from .polyomino import directed_gf
from .spinmodel import exact_partition_function, global_loss_weights, norm_weights
from .tensors import weingarten_s2

GF_RESCALE = 25.0 / 26.0    # area rescale keeping the generating function finite


@dataclass(frozen=True)
class BoundReport:
    name: str
    params: dict
    bound: float
    compared: float
    satisfied: bool
    slack: float  # bound / compared for upper bounds, compared / bound for floors


def _upper_report(name, params, bound, compared):
    """An upper-bound report; a non-finite bound (inf where it overflows) is never satisfied."""
    return BoundReport(name, params, float(bound), float(compared),
                       math.isfinite(bound) and compared <= bound,
                       float(bound / max(compared, 1e-300)))


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
    q_a = float(tab[1, 1, 1])
    p_u = float(tab[0, 0, 1]) ** 2
    log_x = (math.log(L * L / p_u) + L * math.log(GF_RESCALE)
             + math.log(directed_gf(q_a / GF_RESCALE, p_u)))
    return math.log(L / (1.0 - p_u)) + max(log_x, L * log_x)


def global_variance_ratio(D, d):
    """Per-site decay ratio 2 g_max of the global-loss bound: twice the no-flip global entry."""
    return 2.0 * float(global_loss_weights(D, d)[0, 0, 0])


def global_variance_bound(n_sites, D, d):
    """2^V * g_max^(V-1): the global-loss variance bound at V sites."""
    g_max = float(global_loss_weights(D, d)[0, 0, 0])
    return 2.0**n_sites * g_max ** (n_sites - 1)


def _tr_o2():
    """tr O^2 of `losses.traceless_observable`, 2.0 at every d."""
    o = traceless_observable(2)
    return float((o @ o).trace().real)


def onsite_floor_prefactors(D, d):
    """The two explicit on-site variance floor prefactors, for O = `losses.traceless_observable`:
    the lone-flip global entry t[1, 0, 0], and tr O^2 D^2 Wg(swap, swap), the one term of that
    entry that survives when the physical legs close on O (x) O."""
    D, d = integer(D, "D", 2), integer(d, "d", 2)
    w, den = weingarten_s2(D * D * d)
    return float(global_loss_weights(D, d)[1, 0, 0]), _tr_o2() * (D * D * w[1, 1] / den)


def reports(D, d, sides):
    """The `tnlab bounds` reports: `norm_excess` at each side L in sides against the exact Z - 1,
    `global_variance_ratio` below 1 on the grid {2, 3, 4}^2 of (D, d), and the observable on-site
    prefactor above the generic one. ValueError before any contraction when a prefactor is not
    a normal float, where it has lost digits, or is 0.0 and the slack divides by zero."""
    pre_generic, pre_obs = onsite_floor_prefactors(D, d)
    if min(pre_generic, pre_obs) < sys.float_info.min:
        raise ValueError(f"the on-site floor prefactors underflow at this D and d: "
                         f"{pre_generic:.3g} and {pre_obs:.3g}, below {sys.float_info.min:.3g}")
    table = norm_weights(D, d)
    out = [_upper_report("norm_excess", {"L": L, "D": D, "d": d}, norm_excess_bound(L, D, d),
                         exact_partition_function(L, L, table).z - 1.0) for L in sides]
    out += [_upper_report("global_variance_ratio", {"D": dd, "d": dp}, 1.0,
                          global_variance_ratio(dd, dp)) for dd in (2, 3, 4) for dp in (2, 3, 4)]
    # its own slack: `_upper_report` floors `compared` at 1e-300, above pre_generic at large d
    return out + [BoundReport("onsite_floor_prefactor", {"D": D, "d": d, "tr_o2": _tr_o2()},
                              pre_obs, pre_generic, pre_generic <= pre_obs, pre_obs / pre_generic)]
