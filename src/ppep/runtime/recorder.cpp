#include "ppep/runtime/recorder.hpp"

#include "ppep/util/logging.hpp"

namespace ppep::runtime {

RecorderSink::RecorderSink(std::string name, std::uint64_t fingerprint,
                           std::size_t n_cores, std::size_t n_cus,
                           bool with_health)
    : builder_(std::move(name), fingerprint, n_cores, n_cus, with_health)
{
}

void
RecorderSink::onInterval(const IntervalTelemetry &t)
{
    PPEP_ASSERT(t.rec != nullptr, "telemetry carries no record");
    // A hardened session always attaches its Sampler's health; a
    // recorder configured with_health on a plain session is a harness
    // bug, not a data error.
    PPEP_ASSERT(t.health != nullptr || !builder_.withHealth(),
                "with_health recorder saw an interval without health");
    builder_.addFrame(t.time_s, t.cap_w, *t.rec,
                      builder_.withHealth() ? t.health : nullptr);
}

} // namespace ppep::runtime
