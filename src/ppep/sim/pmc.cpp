#include "ppep/sim/pmc.hpp"

#include <algorithm>

#include "ppep/util/logging.hpp"

namespace ppep::sim {

PmcMultiplexer::PmcMultiplexer(std::size_t n_slots, std::size_t stagger)
    : n_slots_(n_slots)
{
    PPEP_ASSERT(n_slots >= 1, "need at least one counter");
    n_groups_ = (kNumEvents + n_slots - 1) / n_slots;
    group_ = stagger % n_groups_;
}

void
PmcMultiplexer::setWrapBits(unsigned bits)
{
    PPEP_ASSERT(bits <= 63, "counter width must fit a 64-bit register");
    wrap_modulus_ = bits ? static_cast<double>(1ULL << bits) : 0.0;
}

std::size_t
PmcMultiplexer::liveSlots() const PPEP_NONBLOCKING
{
    return std::min(n_slots_, kNumEvents - group_ * n_slots_);
}

void
PmcMultiplexer::observe(const EventVector &true_counts) PPEP_NONBLOCKING
{
    const std::size_t first = group_ * n_slots_;
    const std::size_t live = liveSlots();
    for (std::size_t s = 0; s < live; ++s) {
        double &count = slots_[s];
        count += true_counts[first + s];
        // Finite-width counters lose their high bits on overflow,
        // exactly like a real 48-bit PERF_CTR rolling over.
        while (wrap_modulus_ > 0.0 && count >= wrap_modulus_) {
            count -= wrap_modulus_;
            ++wrap_events_;
        }
    }
}

void
PmcMultiplexer::saturate(std::size_t slot) PPEP_NONBLOCKING
{
    PPEP_ASSERT(wrap_modulus_ > 0.0, "unbounded counters have no full scale");
    if (slot < liveSlots())
        slots_[slot] = wrap_modulus_ - 1.0;
}

void
PmcMultiplexer::harvest() PPEP_NONBLOCKING
{
    const std::size_t first = group_ * n_slots_;
    const std::size_t live = liveSlots();
    for (std::size_t s = 0; s < live; ++s) {
        accum_[first + s] += slots_[s];
        slots_[s] = 0.0;
    }
    ++group_ticks_[group_];
    ++ticks_;
    group_ = (group_ + 1) % n_groups_;
}

EventVector
PmcMultiplexer::readAndReset() PPEP_NONBLOCKING
{
    EventVector out{};
    for (std::size_t e = 0; e < kNumEvents; ++e) {
        const std::size_t g = e / n_slots_;
        if (group_ticks_[g] > 0)
            out[e] = accum_[e] * static_cast<double>(ticks_) /
                     static_cast<double>(group_ticks_[g]);
    }
    accum_ = EventVector{};
    std::fill(group_ticks_.begin(), group_ticks_.end(), 0);
    ticks_ = 0;
    return out;
}

} // namespace ppep::sim
