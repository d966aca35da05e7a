/**
 * @file
 * Record/replay tests: a recorded interval stream must replay bit-
 * identically through the governor/telemetry pipeline (DigestSink
 * digests equal to the live run, for plain, heterogeneous-with-tenants
 * and fault-hardened fleets); a replayed record carries every observed
 * field and leaves ground truth unset; a truncated, corrupt, foreign, or
 * wrong-platform replay file must be rejected fatally before the first
 * frame is served; and the warm replay ingest path must never touch
 * the heap.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <new>
#include <string>
#include <vector>

#include "ppep/runtime/fleet.hpp"
#include "ppep/runtime/model_store.hpp"
#include "ppep/runtime/recorder.hpp"
#include "ppep/runtime/session.hpp"
#include "ppep/runtime/telemetry.hpp"
#include "ppep/sim/chip.hpp"
#include "ppep/sim/chip_config.hpp"
#include "ppep/sim/fault.hpp"
#include "ppep/trace/collector.hpp"
#include "ppep/trace/replay.hpp"
#include "ppep/util/rng.hpp"
#include "ppep/workloads/suite.hpp"

#include "temp_path.hpp"

// --- allocation counting hook (see test_zero_alloc.cpp) ------------------

namespace {
std::atomic<std::size_t> g_news{0};
std::atomic<bool> g_counting{false};

void *
countedAlloc(std::size_t size)
{
    if (g_counting.load(std::memory_order_relaxed))
        g_news.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(size ? size : 1))
        return p;
    throw std::bad_alloc();
}
} // namespace

void *
operator new(std::size_t size)
{
    return countedAlloc(size);
}

void *
operator new[](std::size_t size)
{
    return countedAlloc(size);
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete[](void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::size_t) noexcept
{
    std::free(p);
}

namespace {

using namespace ppep;
using runtime::Fleet;
using runtime::FleetSessionSpec;
using runtime::FleetSpec;
using runtime::Session;

std::vector<const workloads::Combination *>
smallTrainingSet(std::size_t n = 8)
{
    std::vector<const workloads::Combination *> out;
    for (const auto &c : workloads::allCombinations())
        if (c.instances.size() == 1 && out.size() < n)
            out.push_back(&c);
    return out;
}

/** One cache dir per test process (see test_runtime_fleet.cpp). */
const std::string &
cacheDir()
{
    static const std::string dir = [] {
        const std::string d = test::tempPath("replay_cache");
        std::filesystem::remove_all(d);
        return d;
    }();
    return dir;
}

/** Per-process scratch path for a replay file. */
std::string
tracePath(const std::string &tag)
{
    return test::tempPath("replay_" + tag + ".trc");
}

FleetSpec
baseSpec(std::size_t n_sessions)
{
    static const std::vector<std::string> programs = {"EP", "CG",
                                                      "458.sjeng"};
    FleetSpec spec;
    spec.cfg = sim::fx8320Config();
    spec.training_seed = 91;
    spec.training_combos = smallTrainingSet();
    spec.store.emplace(cacheDir());
    spec.warmup = 1;
    spec.intervals = 6;
    for (std::size_t i = 0; i < n_sessions; ++i) {
        FleetSessionSpec ss;
        ss.seed = 7 + i;
        ss.pg = (i % 2) == 0;
        ss.one_per_cu = {programs[i % programs.size()]};
        spec.sessions.push_back(std::move(ss));
    }
    return spec;
}

/** 5 sessions over 3 distinct platforms, 2 tenants on the first. */
FleetSpec
heteroSpec()
{
    FleetSpec spec = baseSpec(5);
    spec.sessions[2].cfg = sim::phenomIIConfig();
    spec.sessions[3].cfg = sim::phenomIIConfig();
    spec.sessions[4].cfg = sim::fx8320NbDvfsConfig();
    spec.sessions[2].pg = false;
    spec.sessions[3].pg = false;
    spec.sessions[0].one_per_cu.clear();
    spec.sessions[0].tenants = {
        {"alpha", {0, 1, 2, 3}, {{0, "EP", true}}},
        {"beta", {4, 5, 6, 7}, {{4, "CG", true}}},
    };
    return spec;
}

/** Every observable field must survive the round trip bitwise; the
 *  ground truth a frame does not store must stay unset. */
void
expectReplayedRecord(const trace::IntervalRecord &out,
                     const trace::IntervalRecord &in)
{
    EXPECT_EQ(out.duration_s, in.duration_s);
    EXPECT_EQ(out.sensor_power_w, in.sensor_power_w);
    EXPECT_EQ(out.diode_temp_k, in.diode_temp_k);
    EXPECT_EQ(out.busy_cores, in.busy_cores);
    EXPECT_EQ(out.nb_vf.voltage, in.nb_vf.voltage);
    EXPECT_EQ(out.nb_vf.freq_ghz, in.nb_vf.freq_ghz);
    EXPECT_EQ(out.cu_vf, in.cu_vf);
    EXPECT_EQ(out.pmc, in.pmc);

    const trace::IntervalRecord unset;
    EXPECT_TRUE(out.oracle.empty());
    EXPECT_EQ(out.true_power_w, unset.true_power_w);
    EXPECT_EQ(out.true_dynamic_w, unset.true_dynamic_w);
    EXPECT_EQ(out.true_idle_w, unset.true_idle_w);
    EXPECT_EQ(out.true_nb_power_w, unset.true_nb_power_w);
    EXPECT_EQ(out.true_temp_k, unset.true_temp_k);
    EXPECT_EQ(out.nb_utilization, unset.nb_utilization);
}

TEST(ReplayTrace, RoundTripPreservesEveryFrameField)
{
    const sim::ChipConfig cfg = sim::fx8320Config();
    sim::Chip chip(cfg, 3);
    workloads::launch(chip, workloads::replicate("433.milc", 4), true);
    trace::Collector col(chip);
    col.collect(2);

    const double times[] = {0.2, 0.4, 0.8};
    const double caps[] = {60.0, 55.0, 50.0};
    std::vector<trace::IntervalRecord> recs;
    std::vector<trace::SampleHealth> healths(3);
    healths[1].msr_retries = 3;
    healths[1].sensor_rejects = 1;
    healths[1].timing_overrun = true;
    healths[1].ticks = 9;
    healths[2].pmc_wrap_events = 2;
    healths[2].total_fault_events = 5;

    trace::ReplayStreamBuilder builder("unit", 0xfeedfaceULL,
                                       cfg.coreCount(), cfg.n_cus, true);
    for (std::size_t i = 0; i < 3; ++i) {
        chip.setAllVf(i);
        recs.push_back(col.collectInterval());
        // The Collector fills truth; the frame must leave it out.
        ASSERT_EQ(recs.back().oracle.size(), cfg.coreCount());
        ASSERT_GT(recs.back().true_power_w, 0.0);
        builder.addFrame(times[i], caps[i], recs.back(), &healths[i]);
    }
    EXPECT_EQ(builder.frameCount(), 3u);
    EXPECT_EQ(builder.frameStride(),
              trace::ReplayStreamBuilder::strideFor(cfg.coreCount(),
                                                    cfg.n_cus, true));

    const std::string path = tracePath("unit");
    trace::writeReplayFile(path, {&builder});
    trace::ReplayFile file(path);
    ASSERT_EQ(file.streamCount(), 1u);
    const trace::ReplayFile::Stream *s = file.findStream("unit");
    ASSERT_NE(s, nullptr);
    EXPECT_EQ(s->fingerprint, 0xfeedfaceULL);
    EXPECT_EQ(s->frame_count, 3u);
    EXPECT_EQ(s->n_cores, cfg.coreCount());
    EXPECT_EQ(s->n_cus, cfg.n_cus);
    EXPECT_TRUE(s->with_health);
    EXPECT_EQ(file.findStream("absent"), nullptr);

    trace::ReplaySource src(file, 0, 0xfeedfaceULL);
    EXPECT_EQ(src.frameCount(), 3u);
    ASSERT_NE(src.health(), nullptr);
    trace::IntervalRecord out;
    for (std::size_t i = 0; i < 3; ++i) {
        SCOPED_TRACE("frame " + std::to_string(i));
        ASSERT_FALSE(src.done());
        src.collectIntervalInto(out);
        EXPECT_EQ(src.frameTimeS(), times[i]);
        EXPECT_EQ(src.frameCapW(), caps[i]);
        expectReplayedRecord(out, recs[i]);
        const trace::SampleHealth &h = *src.health();
        EXPECT_EQ(h.msr_retries, healths[i].msr_retries);
        EXPECT_EQ(h.msr_failed_cores, healths[i].msr_failed_cores);
        EXPECT_EQ(h.pmc_rejected_cores, healths[i].pmc_rejected_cores);
        EXPECT_EQ(h.substituted_cores, healths[i].substituted_cores);
        EXPECT_EQ(h.zeroed_cores, healths[i].zeroed_cores);
        EXPECT_EQ(h.sensor_rejects, healths[i].sensor_rejects);
        EXPECT_EQ(h.diode_rejects, healths[i].diode_rejects);
        EXPECT_EQ(h.ticks, healths[i].ticks);
        EXPECT_EQ(h.timing_overrun, healths[i].timing_overrun);
        EXPECT_EQ(h.pmc_wrap_events, healths[i].pmc_wrap_events);
        EXPECT_EQ(h.total_fault_events, healths[i].total_fault_events);
    }
    EXPECT_TRUE(src.done());
    EXPECT_EQ(src.framesConsumed(), 3u);

    src.rewind();
    EXPECT_FALSE(src.done());
    src.collectIntervalInto(out);
    expectReplayedRecord(out, recs[0]);
}

// --- file validation ------------------------------------------------------

/** Write a minimal valid single-stream file and return its path. */
std::string
writeSmallFile(const std::string &tag, std::uint64_t fingerprint)
{
    const sim::ChipConfig cfg = sim::fx8320Config();
    sim::Chip chip(cfg, 3);
    workloads::launch(chip, workloads::replicate("EP", 2), true);
    trace::Collector col(chip);
    col.collect(1);
    trace::ReplayStreamBuilder builder("s0", fingerprint,
                                       cfg.coreCount(), cfg.n_cus,
                                       false);
    for (std::size_t i = 0; i < 2; ++i) {
        const trace::IntervalRecord rec = col.collectInterval();
        builder.addFrame(0.2 + 0.2 * static_cast<double>(i), 60.0, rec,
                         nullptr);
    }
    const std::string path = tracePath(tag);
    trace::writeReplayFile(path, {&builder});
    return path;
}

/** Overwrite @p n bytes of @p path at @p offset. */
void
patchFile(const std::string &path, std::size_t offset, const void *src,
          std::size_t n)
{
    std::fstream f(path,
                   std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.is_open());
    f.seekp(static_cast<std::streamoff>(offset));
    f.write(static_cast<const char *>(src),
            static_cast<std::streamsize>(n));
    ASSERT_TRUE(f.good());
}

void
patchU32(const std::string &path, std::size_t offset, std::uint32_t v)
{
    patchFile(path, offset, &v, sizeof(v));
}

std::vector<unsigned char>
readFile(const std::string &path)
{
    std::ifstream f(path, std::ios::binary);
    return {std::istreambuf_iterator<char>(f),
            std::istreambuf_iterator<char>()};
}

/** XOR one byte of @p path with @p mask (non-zero). */
void
flipByte(const std::string &path, std::size_t offset, unsigned char mask)
{
    const unsigned char b =
        static_cast<unsigned char>(readFile(path).at(offset) ^ mask);
    patchFile(path, offset, &b, 1);
}

// Byte offsets of the v3 layout (see replay.hpp).
constexpr std::size_t kHeaderBytes = 40;
constexpr std::size_t kEntryBytes = 96;

TEST(ReplayDeathTest, FileSmallerThanHeaderIsRejected)
{
    const std::string path = writeSmallFile("tiny", 1);
    std::filesystem::resize_file(path, 16);
    EXPECT_DEATH({ trace::ReplayFile f(path); },
                 "smaller than the file header");
}

TEST(ReplayDeathTest, TruncatedFileIsRejected)
{
    const std::string path = writeSmallFile("trunc", 1);
    const auto full = std::filesystem::file_size(path);
    std::filesystem::resize_file(path, full - 16);
    EXPECT_DEATH({ trace::ReplayFile f(path); }, "truncated or padded");
}

TEST(ReplayDeathTest, CorruptFramePayloadIsRejected)
{
    const std::string path = writeSmallFile("corrupt", 1);
    flipByte(path, std::filesystem::file_size(path) - 1, 0x5a);
    EXPECT_DEATH({ trace::ReplayFile f(path); },
                 "frame payload is corrupt");
}

TEST(ReplayDeathTest, ForeignMagicIsRejected)
{
    const std::string path = writeSmallFile("magic", 1);
    patchFile(path, 0, "X", 1);
    EXPECT_DEATH({ trace::ReplayFile f(path); },
                 "not a PPEP replay file");
}

TEST(ReplayTrace, ChecksumsAreWideFnv1aOverLittleEndianWords)
{
    // Pins the checksum definition (since v2) and the v3 frame stride
    // independently of the reader: from the FNV-1a offset basis,
    // h = (h ^ w) * prime per u64 word, over 108-word FX-8320 frames.
    EXPECT_EQ(trace::ReplayStreamBuilder::strideFor(8, 4, false), 864u);
    EXPECT_EQ(trace::ReplayStreamBuilder::strideFor(8, 4, true),
              864u + 8u * 11u);
    const std::string path = writeSmallFile("checksum", 1);
    const std::vector<unsigned char> b = readFile(path);
    auto word = [&](std::size_t off) {
        std::uint64_t w;
        std::memcpy(&w, b.data() + off, sizeof(w));
        return w;
    };
    auto wide = [&](std::size_t off, std::size_t n) {
        std::uint64_t h = 14695981039346656037ULL;
        for (std::size_t i = 0; i < n; i += 8)
            h = (h ^ word(off + i)) * 1099511628211ULL;
        return h;
    };
    std::uint32_t version;
    std::memcpy(&version, b.data() + 8, sizeof(version));
    EXPECT_EQ(version, 3u);
    EXPECT_EQ(word(32), wide(kHeaderBytes, kEntryBytes));
    EXPECT_EQ(word(kHeaderBytes + 56), 2u);   // frame_count
    EXPECT_EQ(word(kHeaderBytes + 64), 864u); // frame_stride
    const std::size_t frames = word(kHeaderBytes + 48);
    const std::size_t payload =
        word(kHeaderBytes + 56) * word(kHeaderBytes + 64);
    ASSERT_EQ(frames + payload, b.size());
    EXPECT_EQ(word(kHeaderBytes + 72), wide(frames, payload));
}

TEST(ReplayDeathTest, OlderFormatVersionIsRejected)
{
    // A version-2 file (frames with ground truth) is refused by its
    // version word, before any stride or checksum check.
    const std::string path = writeSmallFile("v2", 1);
    patchU32(path, 8, 2u);
    EXPECT_EXIT({ trace::ReplayFile f(path); },
                ::testing::ExitedWithCode(1),
                "is format version 2; this build reads version 3");
}

TEST(ReplayDeathTest, CorruptStreamEntryIsRejected)
{
    const std::string path = writeSmallFile("entry", 1);
    flipByte(path, kHeaderBytes + 56, 0x01); // frame_count's low byte
    EXPECT_EXIT({ trace::ReplayFile f(path); },
                ::testing::ExitedWithCode(1),
                "stream table is corrupt \\(checksum mismatch\\)");
}

TEST(ReplayDeathTest, SwappedByteOrderMarkIsRejected)
{
    const std::string path = writeSmallFile("bom", 1);
    patchU32(path, 12, 0x04030201u);
    EXPECT_EXIT({ trace::ReplayFile f(path); },
                ::testing::ExitedWithCode(1),
                "incompatible byte order");
}

TEST(ReplayDeathTest, NonZeroHeaderReservedWordIsRejected)
{
    const std::string path = writeSmallFile("reserved", 1);
    patchU32(path, 20, 1u);
    EXPECT_EXIT({ trace::ReplayFile f(path); },
                ::testing::ExitedWithCode(1),
                "reserved word is not zero");
}

TEST(ReplayDeathTest, SeededSingleByteFlipsAreRejected)
{
    // 16 single-byte flips spread over the header, the stream table
    // and the frames: every one must be a clean fatal, never a replay.
    const std::string clean = writeSmallFile("flip_clean", 1);
    ASSERT_EQ(trace::ReplayFile(clean).stream(0).frame_stride, 864u)
        << "the flips must land in a v3 file";
    const std::size_t size = std::filesystem::file_size(clean);
    const std::size_t bounds[] = {0, kHeaderBytes,
                                  kHeaderBytes + kEntryBytes, size};
    util::Rng rng(0x5eed);
    for (std::size_t k = 0; k < 16; ++k) {
        const std::size_t lo = bounds[k % 3];
        const std::size_t hi = bounds[k % 3 + 1];
        const std::size_t offset = lo + rng.uniformInt(hi - lo);
        const auto mask =
            static_cast<unsigned char>(1 + rng.uniformInt(255));
        SCOPED_TRACE("byte " + std::to_string(offset) + " ^ " +
                     std::to_string(mask));
        const std::string path = tracePath("flip");
        std::filesystem::copy_file(
            clean, path, std::filesystem::copy_options::overwrite_existing);
        flipByte(path, offset, mask);
        EXPECT_EXIT({ trace::ReplayFile f(path); },
                    ::testing::ExitedWithCode(1), "fatal: replay: ");
    }
}

TEST(ReplayDeathTest, WrongPlatformFingerprintIsRejected)
{
    // A stream recorded on one platform fingerprint can never be bound
    // to a session configured for another.
    const std::uint64_t fp =
        runtime::platformFingerprint(sim::fx8320Config());
    const std::string path = writeSmallFile("silicon", fp);
    trace::ReplayFile file(path);
    EXPECT_DEATH({ trace::ReplaySource s(file, 0, fp + 1); },
                 "recorded on different silicon");
}

TEST(ReplayDeathTest, ReadingPastTheLastFrameIsFatal)
{
    const std::string path = writeSmallFile("exhaust", 1);
    trace::ReplayFile file(path);
    trace::ReplaySource src(file, 0, 1);
    trace::IntervalRecord rec;
    src.collectIntervalInto(rec);
    EXPECT_EQ(src.health(), nullptr)
        << "a stream recorded without health reports none";
    src.collectIntervalInto(rec);
    ASSERT_TRUE(src.done());
    EXPECT_DEATH(src.collectIntervalInto(rec), "exhausted");
}

// --- session-level record -> replay --------------------------------------

TEST(SessionReplay, RecordedSessionReplaysBitIdentically)
{
    const sim::ChipConfig cfg = sim::fx8320Config();
    const std::uint64_t fp = runtime::platformFingerprint(cfg);
    const std::string path = tracePath("session");

    runtime::DigestSink live_digest;
    runtime::RecorderSink recorder("solo", fp, cfg.coreCount(),
                                   cfg.n_cus, false);
    auto live = Session::builder(cfg)
                    .seed(9)
                    .trainingSeed(91)
                    .trainingCombos(smallTrainingSet())
                    .store(runtime::ModelStore(cacheDir()))
                    .onePerCu({"EP"})
                    .warmup(1)
                    .sink(live_digest)
                    .sink(recorder)
                    .build();
    EXPECT_EQ(live.drive(6), 6u);
    ASSERT_FALSE(recorder.failed()) << recorder.error();
    EXPECT_EQ(recorder.stream().frameCount(), 6u);
    trace::writeReplayFile(path, {&recorder.stream()});

    trace::ReplayFile file(path);
    trace::ReplaySource src(file, 0, fp);
    runtime::DigestSink replay_digest;
    auto replayed = Session::builder(cfg)
                        .seed(9)
                        .trainingSeed(91)
                        .trainingCombos(smallTrainingSet())
                        .store(runtime::ModelStore(cacheDir()))
                        .onePerCu({"EP"})
                        .replay(src)
                        .sink(replay_digest)
                        .build();
    EXPECT_EQ(replayed.drive(6), 6u);
    EXPECT_EQ(src.framesConsumed(), 6u);

    EXPECT_EQ(live_digest.intervals(), 6u);
    EXPECT_EQ(replay_digest.intervals(), 6u);
    EXPECT_EQ(replay_digest.digest(), live_digest.digest());
}

// --- fleet-level record -> replay ----------------------------------------

/** Record @p spec, replay it, and require digest equality per session. */
void
expectFleetRoundTrip(FleetSpec spec, const std::string &tag)
{
    const std::size_t n = spec.sessions.size();
    const std::string path = tracePath(tag);
    spec.record_path = path;
    Fleet live_fleet(spec);
    const auto live = live_fleet.run(2);
    ASSERT_EQ(live.failed, 0u);
    ASSERT_EQ(live.completed, n);

    spec.record_path.clear();
    spec.replay_path = path;
    Fleet replay_fleet(std::move(spec));
    const auto replayed = replay_fleet.run(2);
    ASSERT_EQ(replayed.failed, 0u);
    ASSERT_EQ(replayed.completed, n);

    for (std::size_t i = 0; i < n; ++i) {
        EXPECT_EQ(replayed.sessions[i].telemetry_digest,
                  live.sessions[i].telemetry_digest)
            << "session " << i;
        EXPECT_EQ(replayed.sessions[i].intervals,
                  live.sessions[i].intervals)
            << "session " << i;
        EXPECT_EQ(replayed.sessions[i].name, live.sessions[i].name);
    }
}

TEST(FleetReplay, RecordThenReplayMatchesLiveDigests)
{
    expectFleetRoundTrip(baseSpec(3), "fleet");
}

TEST(FleetReplay, HeterogeneousTenantFleetReplaysBitIdentically)
{
    expectFleetRoundTrip(heteroSpec(), "hetero");
}

TEST(FleetReplay, HardenedSessionReplaysWithHealth)
{
    auto spec = baseSpec(3);
    spec.sessions[1].faults = sim::FaultPlan::parse(
        "msr=0.3,sensor_drop=0.2,diode_spike=0.1,jitter=0.3");
    expectFleetRoundTrip(spec, "hardened");

    // The faulted session's stream must carry the health block; its
    // clean neighbours must not pay for one.
    trace::ReplayFile file(tracePath("hardened"));
    ASSERT_EQ(file.streamCount(), 3u);
    const trace::ReplayFile::Stream *faulted = file.findStream("s1");
    ASSERT_NE(faulted, nullptr);
    EXPECT_TRUE(faulted->with_health);
    const trace::ReplayFile::Stream *clean = file.findStream("s0");
    ASSERT_NE(clean, nullptr);
    EXPECT_FALSE(clean->with_health);
}

TEST(FleetReplayDeathTest, MissingStreamNameIsFatal)
{
    auto spec = baseSpec(2);
    spec.record_path = tracePath("names");
    Fleet rec_fleet(spec);
    ASSERT_EQ(rec_fleet.run(1).failed, 0u);

    spec.record_path.clear();
    spec.replay_path = tracePath("names");
    spec.sessions[0].name = "renamed";
    Fleet replay_fleet(std::move(spec));
    EXPECT_DEATH(replay_fleet.run(1), "has no stream for session");
}

TEST(FleetReplayDeathTest, ShortRecordingCannotServeLongerRun)
{
    auto spec = baseSpec(1);
    spec.record_path = tracePath("short");
    Fleet rec_fleet(spec);
    ASSERT_EQ(rec_fleet.run(1).failed, 0u);

    spec.record_path.clear();
    spec.replay_path = tracePath("short");
    spec.intervals = 8; // recorded 6
    Fleet replay_fleet(std::move(spec));
    EXPECT_DEATH(replay_fleet.run(1), "replay stream exhausted after");
}

TEST(FleetReplayDeathTest, ScheduleMismatchIsFatal)
{
    // The replayed caps are cross-checked against the session's own
    // schedule every interval: replaying an uncapped recording under a
    // 60 W schedule must die, not silently re-label the stream.
    auto spec = baseSpec(1);
    spec.record_path = tracePath("caps");
    Fleet rec_fleet(spec);
    ASSERT_EQ(rec_fleet.run(1).failed, 0u);

    spec.record_path.clear();
    spec.replay_path = tracePath("caps");
    spec.default_schedule = ppep::governor::CapSchedule(60.0);
    Fleet replay_fleet(std::move(spec));
    EXPECT_DEATH(replay_fleet.run(1),
                 "does not match the session schedule");
}

// --- zero-allocation audit of the warm replay path ------------------------

TEST(ZeroAllocReplay, WarmReplayIntervalIsAllocationFree)
{
    const sim::ChipConfig cfg = sim::fx8320Config();
    const std::uint64_t fp = runtime::platformFingerprint(cfg);
    const std::string path = tracePath("zeroalloc");

    runtime::RecorderSink recorder("solo", fp, cfg.coreCount(),
                                   cfg.n_cus, false);
    auto live = Session::builder(cfg)
                    .seed(9)
                    .trainingSeed(91)
                    .trainingCombos(smallTrainingSet())
                    .store(runtime::ModelStore(cacheDir()))
                    .onePerCu({"EP"})
                    .warmup(1)
                    .sink(recorder)
                    .build();
    EXPECT_EQ(live.drive(40), 40u);
    trace::writeReplayFile(path, {&recorder.stream()});

    trace::ReplayFile file(path);
    trace::ReplaySource src(file, 0, fp);
    runtime::DigestSink digest;
    auto replayed = Session::builder(cfg)
                        .seed(9)
                        .trainingSeed(91)
                        .trainingCombos(smallTrainingSet())
                        .store(runtime::ModelStore(cacheDir()))
                        .onePerCu({"EP"})
                        .replay(src)
                        .sink(digest)
                        .build();

    replayed.drive(5); // warm the decode scratch and governor buffers

    // The session's interval state persists across calls, so a warm
    // replayed drive(1) touches the heap zero times.
    for (int i = 0; i < 22; ++i) {
        g_news.store(0, std::memory_order_relaxed);
        g_counting.store(true, std::memory_order_relaxed);
        replayed.drive(1);
        g_counting.store(false, std::memory_order_relaxed);
        EXPECT_EQ(g_news.load(std::memory_order_relaxed), 0u)
            << "a warm replayed interval allocated";
    }

    EXPECT_EQ(digest.intervals(), 27u);
}

TEST(ZeroAllocReplay, CountingHookIsLive)
{
    g_news.store(0, std::memory_order_relaxed);
    g_counting.store(true, std::memory_order_relaxed);
    auto *p = new std::vector<double>(1024);
    g_counting.store(false, std::memory_order_relaxed);
    delete p;
    EXPECT_GE(g_news.load(std::memory_order_relaxed), 1u);
}

} // namespace
