#include "ppep/governor/ppep_capping.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>

#include "ppep/model/event_predictor.hpp"
#include "ppep/util/logging.hpp"

namespace ppep::governor {

namespace {

/**
 * Screening tolerance, relative to the largest magnitude any sum in
 * this decision can reach. Reordering a sum of a few dozen terms moves
 * it by ~1e-14 of that magnitude, so the band is loose by five orders
 * and still admits only near-ties for exact re-pricing.
 */
constexpr double kScreenTol = 1e-9;

/**
 * Insertion-sort @p n half-combos by screened power. The lists hold at
 * most n_vf^ceil(n_cus/2) entries (25 on the FX-8320).
 */
template <typename Combo>
void
sortByPower(Combo *v, std::size_t n) PPEP_NONBLOCKING
{
    for (std::size_t i = 1; i < n; ++i) {
        const Combo x = v[i];
        std::size_t j = i;
        for (; j > 0 && v[j - 1].power > x.power; --j)
            v[j] = v[j - 1];
        v[j] = x;
    }
}

/**
 * Prefix maxima of IPS along a power-sorted list: over every entry,
 * and over the entries with a busy CU at the rail level (-inf before
 * the first one).
 */
template <typename Combo>
void
fillPrefixMax(Combo *v, std::size_t n) PPEP_NONBLOCKING
{
    double best = -std::numeric_limits<double>::infinity();
    double best_hit = best;
    for (std::size_t i = 0; i < n; ++i) {
        best = std::max(best, v[i].ips);
        if (v[i].hit)
            best_hit = std::max(best_hit, v[i].ips);
        v[i].best_ips = best;
        v[i].best_hit_ips = best_hit;
    }
}

/**
 * How many entries of @p v (sorted by power) keep the screened total
 * base + power within @p limit. Rounded addition is monotone in its
 * operands, so the test flips once along the sorted list.
 */
template <typename Combo>
std::size_t
countWithin(const Combo *v, std::size_t n, double base,
            double limit) PPEP_NONBLOCKING
{
    std::size_t lo = 0;
    std::size_t hi = n;
    while (lo < hi) {
        const std::size_t mid = lo + (hi - lo) / 2;
        if (base + v[mid].power <= limit)
            lo = mid + 1;
        else
            hi = mid;
    }
    return lo;
}

/** Unpack an odometer index into per-CU VF states (CU 0 fastest). */
void
decodeIndex(std::size_t index, std::size_t n_vf,
            std::vector<std::size_t> &cu_vf) PPEP_NONBLOCKING
{
    for (std::size_t &vf : cu_vf) {
        vf = index % n_vf;
        index /= n_vf;
    }
}

} // namespace

PpepCappingGovernor::PpepCappingGovernor(const sim::ChipConfig &cfg,
                                         const model::Ppep &ppep,
                                         double guard_band)
    : cfg_(cfg), ppep_(ppep), guard_band_(guard_band)
{
    PPEP_ASSERT(ppep_.pgModel().trained(),
                "PPEP capping needs the PG idle decomposition");
    // Rail voltage scale factors depend only on the VF table, not on the
    // interval — compute each (v/v_train)^alpha once at construction.
    const auto &dyn_model = ppep_.powerModel().dynamicModel();
    const std::size_t n_vf = cfg_.vf_table.size();
    const std::size_t n_cus = cfg_.n_cus;
    vscale_by_vf_.resize(n_vf);
    for (std::size_t vf = 0; vf < n_vf; ++vf)
        vscale_by_vf_[vf] =
            dyn_model.voltageScale(cfg_.vf_table.state(vf).voltage);

    // Every scratch size is fixed by the chip, so decisions never grow
    // it. One half of the split holds at most ceil(n_cus / 2) CUs.
    std::size_t half_cap = 1;
    for (std::size_t i = 0; i < (n_cus + 1) / 2; ++i)
        half_cap *= n_vf;
    const std::size_t table = cfg_.coreCount() * n_vf;
    ips_.resize(table);
    core_base_.resize(table);
    nb_part_.resize(table);
    busy_per_cu_.resize(n_cus);
    cu_ips_.resize(n_cus * n_vf);
    cu_base_.resize(n_cus * n_vf);
    cu_nb_.resize(n_cus * n_vf);
    search_cus_.resize(n_cus);
    option_power_.resize(n_vf * n_cus * n_vf);
    option_vf_.resize(n_vf);
    left_.resize(half_cap);
    right_.resize(half_cap);
    p_cu_.resize(n_vf);
    level_least_power_.resize(n_vf);
    level_most_ips_.resize(n_vf);
    stride_.resize(n_cus);
    for (std::size_t cu = 0, s = 1; cu < n_cus; ++cu, s *= n_vf)
        stride_[cu] = s;
    assign_.resize(n_cus);
    priced_.resize(n_cus);
}

std::vector<std::size_t>
PpepCappingGovernor::decide(const trace::IntervalRecord &rec,
                            double cap_w)
{
    std::vector<std::size_t> out;
    decideInto(rec, cap_w, out);
    return out;
}

void
PpepCappingGovernor::buildTables(const trace::IntervalRecord &rec)
    PPEP_NONBLOCKING
{
    const std::size_t n_vf = cfg_.vf_table.size();
    const auto &dyn_model = ppep_.powerModel().dynamicModel();

    // Per core and per VF: predicted ips, the core-event dynamic power
    // at the *training* voltage (so any rail voltage is a cheap
    // (v/v_train)^alpha rescale), and the NB-proxy part (never voltage
    // scaled). The frequency-independent observation is extracted once
    // per core and shared across the VF sweep. At the training voltage
    // voltageScale() is pow(1.0, alpha) == 1.0 exactly, so
    // splitScaled(.., 1.0, ..) gives split()'s bits without the pow().
    std::fill(busy_per_cu_.begin(), busy_per_cu_.end(), 0);
    for (std::size_t c = 0; c < cfg_.coreCount(); ++c) {
        const std::size_t cu = c / cfg_.cores_per_cu;
        const double f_now =
            cfg_.vf_table.state(rec.cu_vf[cu]).freq_ghz;
        const auto obs = model::EventPredictor::observe(
            rec.pmc[c], rec.duration_s, f_now);
        bool busy = false;
        for (std::size_t vf = 0; vf < n_vf; ++vf) {
            const sim::VfState &target = cfg_.vf_table.state(vf);
            const auto pred =
                model::EventPredictor::predictAt(obs, target.freq_ghz);
            ips_[c * n_vf + vf] = pred.rates_per_s[sim::eventIndex(
                sim::Event::RetiredInst)];
            std::array<double, sim::kNumPowerEvents> rates{};
            for (std::size_t i = 0; i < sim::kNumPowerEvents; ++i)
                rates[i] = pred.rates_per_s[i];
            dyn_model.splitScaled(rates, 1.0, core_base_[c * n_vf + vf],
                                  nb_part_[c * n_vf + vf]);
            busy = busy || pred.ips > 0.0;
        }
        if (busy)
            ++busy_per_cu_[cu];
    }
}

double
PpepCappingGovernor::priceAssignment(double &total_ips) PPEP_NONBLOCKING
{
    const std::size_t n_vf = cfg_.vf_table.size();
    const std::size_t n_cores = cfg_.coreCount();
    const auto &pg = ppep_.pgModel();

    // Rail resolution: per-CU planes use each CU's own voltage; a
    // shared rail pins everyone to the highest state a busy CU asks for.
    std::size_t max_idx = 0;
    if (!cfg_.per_cu_voltage) {
        for (std::size_t cu = 0; cu < cfg_.n_cus; ++cu)
            if (busy_per_cu_[cu] > 0)
                max_idx = std::max(max_idx, assign_[cu]);
    }

    double total_dyn = 0.0;
    total_ips = 0.0;
    for (std::size_t c = 0; c < n_cores; ++c) {
        const std::size_t cu = c / cfg_.cores_per_cu;
        const std::size_t vf = assign_[cu];
        const double vscale =
            vscale_by_vf_[cfg_.per_cu_voltage ? vf : max_idx];
        total_dyn += core_base_[c * n_vf + vf] * vscale +
                     nb_part_[c * n_vf + vf];
        total_ips += ips_[c * n_vf + vf];
    }

    // Idle pricing: on a shared rail, a slow CU still leaks at the rail
    // voltage — approximate with the voltage-dominant state's component
    // (conservative: also carries its clock power).
    if (cfg_.per_cu_voltage)
        return pg.chipIdleMixed(assign_, busy_per_cu_, true) + total_dyn;
    for (std::size_t cu = 0; cu < cfg_.n_cus; ++cu)
        priced_[cu] = std::max(assign_[cu], max_idx);
    return pg.chipIdleMixed(priced_, busy_per_cu_, true) + total_dyn;
}

std::size_t
PpepCappingGovernor::enumerateHalf(std::size_t begin, std::size_t end,
                                   std::size_t level,
                                   HalfCombo *dst) PPEP_NONBLOCKING
{
    // Grow the product one CU at a time, in place: each existing combo
    // is replaced by its extensions with every state the CU may take,
    // writing from the back so no unread combo is overwritten.
    const std::size_t n_vf = cfg_.vf_table.size();
    const bool shared_rail = !cfg_.per_cu_voltage;
    const double *options = &option_power_[level * cfg_.n_cus * n_vf];
    dst[0] = HalfCombo{};
    std::size_t n = 1;
    for (std::size_t j = begin; j < end; ++j) {
        const std::size_t cu = search_cus_[j];
        const bool rail_cu = shared_rail && busy_per_cu_[cu] > 0;
        std::size_t n_opts = 0;
        for (std::size_t vf = 0; vf < n_vf; ++vf)
            if (!std::isnan(options[j * n_vf + vf]))
                option_vf_[n_opts++] = vf;
        for (std::size_t a = n; a-- > 0;) {
            const HalfCombo base = dst[a];
            for (std::size_t k = n_opts; k-- > 0;) {
                const std::size_t vf = option_vf_[k];
                HalfCombo &h = dst[a * n_opts + k];
                h.power = base.power + options[j * n_vf + vf];
                h.ips = base.ips + cu_ips_[cu * n_vf + vf];
                h.index = base.index + vf * stride_[cu];
                h.hit = base.hit || (rail_cu && vf == level);
            }
        }
        n *= n_opts;
    }
    return n;
}

void
PpepCappingGovernor::enumerateLevel(std::size_t level) PPEP_NONBLOCKING
{
    n_left_combos_ = enumerateHalf(0, n_left_, level, left_.data());
    n_right_combos_ = enumerateHalf(n_left_, n_search_, level, right_.data());
    sortByPower(right_.data(), n_right_combos_);
    fillPrefixMax(right_.data(), n_right_combos_);
}

double
PpepCappingGovernor::screenLevel(double limit) PPEP_NONBLOCKING
{
    double best = -std::numeric_limits<double>::infinity();
    for (std::size_t a = 0; a < n_left_combos_; ++a) {
        const HalfCombo &left = left_[a];
        const std::size_t m = countWithin(right_.data(), n_right_combos_,
                                          idle_const_ + left.power, limit);
        if (m == 0)
            continue;
        // On a shared rail some busy CU must sit at the rail level: a
        // left half without one pairs only with right halves that have
        // one.
        const HalfCombo &edge = right_[m - 1];
        const bool any = !need_hit_ || left.hit;
        best = std::max(best, left.ips + (any ? edge.best_ips
                                              : edge.best_hit_ips));
    }
    return best;
}

void
PpepCappingGovernor::nominateLevel(double power_limit, double ips_floor,
                                   double budget,
                                   Winner &win) PPEP_NONBLOCKING
{
    const std::size_t n_vf = cfg_.vf_table.size();
    for (std::size_t a = 0; a < n_left_combos_; ++a) {
        const HalfCombo &left = left_[a];
        const std::size_t m =
            countWithin(right_.data(), n_right_combos_,
                        idle_const_ + left.power, power_limit);
        const bool any = !need_hit_ || left.hit;
        if (m == 0 || left.ips + (any ? right_[m - 1].best_ips
                                      : right_[m - 1].best_hit_ips) <
                          ips_floor)
            continue;
        for (std::size_t b = 0; b < m; ++b) {
            const HalfCombo &right = right_[b];
            if ((!any && !right.hit) || left.ips + right.ips < ips_floor)
                continue;
            const std::size_t index = left.index + right.index;
            decodeIndex(index, n_vf, assign_);
            double ips = 0.0;
            const double power = priceAssignment(ips);
            // The odometer's rule, `power <= budget && ips > best`,
            // visited in index order keeps the earliest index among
            // equal IPS; candidates arrive in another order, so the
            // tie goes to the lower index explicitly.
            if (power <= budget &&
                (ips > win.ips ||
                 (win.found && ips == win.ips && index < win.index))) {
                win.ips = ips;
                win.power = power;
                win.index = index;
                win.found = true;
            }
        }
    }
}

void
PpepCappingGovernor::decideInto(const trace::IntervalRecord &rec,
                                double cap_w,
                                std::vector<std::size_t> &out)
    PPEP_NONBLOCKING
{
    const std::size_t n_vf = cfg_.vf_table.size();
    const std::size_t n_cus = cfg_.n_cus;
    const bool shared_rail = !cfg_.per_cu_voltage;
    const auto &pg = ppep_.pgModel();
    buildTables(rec);

    // Per-CU sums, and the CUs the search must place: busy CUs (they
    // set the rail and pay idle power) plus any idle CU with a nonzero
    // prediction. The rest add exact +0.0 terms and stay at VF 0.
    // power_mag and ips_mag bound the absolute terms of any sum below,
    // which scales the screening tolerance — never the cap, which may
    // be +inf or DBL_MAX.
    double vscale_max = 0.0;
    for (double v : vscale_by_vf_)
        vscale_max = std::max(vscale_max, std::fabs(v));
    double p_cu_max = 0.0;
    for (std::size_t vf = 0; vf < n_vf; ++vf) {
        p_cu_[vf] = pg.components(vf).p_cu;
        p_cu_max = std::max(p_cu_max, std::fabs(p_cu_[vf]));
    }
    const double p_base = pg.pBaseAvg();
    const double p_nb = pg.pNbAvg();
    double power_mag = std::fabs(p_base) + std::fabs(p_nb);
    double ips_mag = 0.0;
    std::size_t n_busy = 0;
    n_search_ = 0;
    for (std::size_t cu = 0; cu < n_cus; ++cu) {
        const bool busy = busy_per_cu_[cu] > 0;
        bool all_zero = true;
        double cu_power_mag = 0.0;
        double cu_ips_mag = 0.0;
        for (std::size_t vf = 0; vf < n_vf; ++vf) {
            double s_ips = 0.0, s_base = 0.0, s_nb = 0.0;
            double a_power = 0.0, a_ips = 0.0;
            for (std::size_t k = 0; k < cfg_.cores_per_cu; ++k) {
                const std::size_t i =
                    (cu * cfg_.cores_per_cu + k) * n_vf + vf;
                s_ips += ips_[i];
                s_base += core_base_[i];
                s_nb += nb_part_[i];
                a_power += std::fabs(core_base_[i]) * vscale_max +
                           std::fabs(nb_part_[i]);
                a_ips += std::fabs(ips_[i]);
                all_zero = all_zero && ips_[i] == 0.0 &&
                           core_base_[i] == 0.0 && nb_part_[i] == 0.0;
            }
            cu_ips_[cu * n_vf + vf] = s_ips;
            cu_base_[cu * n_vf + vf] = s_base;
            cu_nb_[cu * n_vf + vf] = s_nb;
            if (std::isfinite(s_ips) && std::isfinite(s_base) &&
                std::isfinite(s_nb)) {
                cu_power_mag = std::max(cu_power_mag, a_power);
                cu_ips_mag = std::max(cu_ips_mag, a_ips);
            }
        }
        if (busy)
            ++n_busy;
        if (busy || !all_zero) {
            search_cus_[n_search_++] = cu;
            power_mag += cu_power_mag + (busy ? p_cu_max : 0.0);
            ips_mag += cu_ips_mag;
        }
    }
    n_left_ = (n_search_ + 1) / 2;
    need_hit_ = shared_rail && n_busy > 0;
    // Screened power of an assignment: (base + NB idle + left half) +
    // right half; the busy CUs' Pidle(CU) rides in their options.
    idle_const_ = p_base + (n_busy > 0 ? p_nb : 0.0);

    // Option power of each searched CU at each rail level, idle share
    // folded in; NaN marks a state the CU cannot take (above the rail
    // level, or a non-finite prediction). Per-CU planes have a single
    // level in which every CU is priced at its own voltage. Each level
    // also gets bounds — least screened power (with a busy CU at the
    // level) and most IPS — so the search can skip it unseen.
    const std::size_t n_levels = need_hit_ ? n_vf : 1;
    const double inf = std::numeric_limits<double>::infinity();
    for (std::size_t level = 0; level < n_levels; ++level) {
        double *options = &option_power_[level * n_cus * n_vf];
        double least_power = idle_const_;
        double most_ips = 0.0;
        double hit_extra = need_hit_ ? inf : 0.0;
        for (std::size_t j = 0; j < n_search_; ++j) {
            const std::size_t cu = search_cus_[j];
            const bool busy = busy_per_cu_[cu] > 0;
            const std::size_t top = shared_rail && busy ? level : n_vf - 1;
            double least = inf;
            double most = -inf;
            for (std::size_t vf = 0; vf < n_vf; ++vf) {
                const std::size_t rail = shared_rail ? level : vf;
                const std::size_t i = cu * n_vf + vf;
                const double p = cu_base_[i] * vscale_by_vf_[rail] +
                                 cu_nb_[i] + (busy ? p_cu_[rail] : 0.0);
                const bool ok = vf <= top && std::isfinite(p) &&
                                std::isfinite(cu_ips_[i]);
                options[j * n_vf + vf] =
                    ok ? p : std::numeric_limits<double>::quiet_NaN();
                if (ok) {
                    least = std::min(least, p);
                    most = std::max(most, cu_ips_[i]);
                }
            }
            least_power += least;
            most_ips += most;
            const double at_level = options[j * n_vf + level];
            if (need_hit_ && busy && !std::isnan(at_level))
                hit_extra = std::min(hit_extra, at_level - least);
        }
        level_least_power_[level] = least_power + hit_extra;
        level_most_ips_[level] = most_ips;
    }

    const double budget = cap_w * (1.0 - guard_band_);
    const double power_tol = kScreenTol * power_mag;
    const double ips_tol = kScreenTol * ips_mag;
    Winner win;

    // A NaN cap admits nothing, like every `power <= budget` against
    // it; an infinite one (+inf warm-ups, CapSchedule::unlimited()'s
    // DBL_MAX) admits every finite assignment, which the +-tolerance
    // limits below already express.
    if (!std::isnan(budget)) {
        // Per level, top first: screen 1 finds the best screened IPS
        // among assignments whose screened power clears the budget by
        // the tolerance. Each of them is truly feasible, so the true
        // optimum's screened IPS is at least the best seen so far minus
        // the IPS tolerance. Screen 2 then re-prices every assignment
        // of the level inside both bands with the reference summation
        // and keeps the reference rule's winner. A floor from fewer
        // levels is lower, so it only nominates more: the optimum is
        // re-priced whichever level holds it, and the top levels, which
        // usually hold the best IPS, raise the floor early. A level
        // whose bounds miss either band (by the tolerance, as the
        // bounds are rounded sums too) holds no candidate.
        const double strict_limit = budget - power_tol;
        const double loose_limit = budget + power_tol;
        double best_screened = -inf;
        double ips_floor = -inf;
        for (std::size_t level = n_levels; level-- > 0;) {
            if (level_least_power_[level] - power_tol > loose_limit ||
                level_most_ips_[level] + ips_tol < ips_floor)
                continue;
            enumerateLevel(level);
            best_screened =
                std::max(best_screened, screenLevel(strict_limit));
            ips_floor = best_screened - ips_tol;
            if (std::isnan(ips_floor))
                ips_floor = -inf;
            nominateLevel(loose_limit, ips_floor, budget, win);
        }
    }

    // rt-escape: warm-up growth of the caller-owned decision vector.
    PPEP_RT_WARMUP_BEGIN
    out.assign(n_cus, 0);
    PPEP_RT_WARMUP_END
    if (win.found)
        decodeIndex(win.index, n_vf, out);
    if (win.ips >= 0.0) {
        last_predicted_power_w_ = win.power;
    } else {
        // Nothing fits: the all-lowest assignment's predicted power.
        std::fill(assign_.begin(), assign_.end(), 0);
        double ips = 0.0;
        last_predicted_power_w_ = priceAssignment(ips);
    }
}

} // namespace ppep::governor
