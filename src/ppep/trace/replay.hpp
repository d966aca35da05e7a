/**
 * @file
 * Versioned, memory-mapped binary interval traces (record & replay).
 *
 * A replay file is the production ingest path: a governed run records
 * its interval stream once, and any number of later runs replay it —
 * driving the governor/telemetry pipeline with zero simulation and
 * zero per-interval allocation. The format is deliberately dumb:
 * fixed-stride little-endian records derived from trace::IntervalRecord
 * so a reader is a pointer bump plus field copies, never a parse.
 *
 * File layout (all integers little-endian, all fields 8-byte aligned):
 *
 *   FileHeader   (40 bytes)
 *     char     magic[8]        "PPEPTRC1"
 *     u32      version         kReplayVersion
 *     u32      byte_order      0x01020304 as written by the recorder;
 *                              a swapped value means the file crossed
 *                              an endianness boundary and is rejected
 *     u32      n_streams
 *     u32      reserved        0 (any other value is rejected)
 *     u64      file_bytes      total file size (truncation check)
 *     u64      toc_checksum    checksum of the stream table
 *   StreamEntry × n_streams (96 bytes each)
 *     char     name[40]        NUL-padded session name
 *     u64      fingerprint     runtime::platformFingerprint of the
 *                              recorded chip config — a trace can
 *                              never be replayed against wrong silicon
 *     u64      frame_offset    byte offset of the stream's first frame
 *     u64      frame_count
 *     u64      frame_stride    bytes per frame
 *     u64      payload_checksum checksum of the stream's frames
 *     u32      n_cores
 *     u32      n_cus
 *     u32      flags           bit 0: frames carry a health block
 *     u32      reserved        0
 *   frames, per stream, contiguous
 *
 * Frame layout (frame_stride = 8 × n_fields):
 *     f64 time_s, cap_w                       (telemetry context)
 *     f64 duration_s, sensor_power_w, diode_temp_k
 *     f64 true_power_w, true_dynamic_w, true_idle_w,
 *         true_nb_power_w, true_temp_k, nb_utilization
 *     f64 nb_vf.voltage, nb_vf.freq_ghz
 *     u64 busy_cores
 *     u64 cu_vf[n_cus]
 *     f64 pmc[n_cores][kNumEvents]
 *     f64 oracle[n_cores][kNumEvents]
 *     u64 health[11]                          (iff flags bit 0)
 *
 * Checksum (since version 2): wide FNV-1a over the range read as
 * little-endian u64 words — starting from the FNV-1a 64-bit offset
 * basis, each word w folds in as h = (h ^ w) * FNV prime
 * (util::fnv1aWide). Both checksummed ranges are whole words: table
 * entries are 96 bytes and a frame's stride is 8 × its field count.
 * Version 1 hashed the same ranges one byte per step; this build
 * rejects version 1 files by their version word, so they must be
 * re-recorded. The header itself is not checksummed: its fields are
 * each validated on open.
 *
 * The health block is SampleHealth::words() — the digest-relevant
 * counters of a hardened session's acquisition, in the one order
 * DigestSink hashes them. Injector-side fault tallies are deliberately
 * not stored: they describe the simulated hardware, not the observed
 * stream.
 */

#ifndef PPEP_TRACE_REPLAY_HPP
#define PPEP_TRACE_REPLAY_HPP

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "ppep/trace/collector.hpp"
#include "ppep/trace/interval.hpp"
#include "ppep/util/annotations.hpp"

namespace ppep::trace {

/** On-disk format version written and accepted by this build. */
inline constexpr std::uint32_t kReplayVersion = 2;

/** Longest stream name the stream table stores; the writer truncates
 *  longer names. */
inline constexpr std::size_t kMaxStreamNameBytes = 39;

/**
 * Accumulates one session's interval stream as encoded frame bytes.
 *
 * The builder buffers in memory so a multi-session fleet can record
 * from its worker pool without interleaving writes: each session owns
 * a builder, and writeReplayFile() assembles the streams into one
 * file after the run. Recording is not a hot path — it happens at
 * simulation speed, and a recorded interval is ~2 KB.
 */
class ReplayStreamBuilder
{
  public:
    /**
     * @param name        session name stored in the stream table
     *                    (truncated to kMaxStreamNameBytes).
     * @param fingerprint runtime::platformFingerprint of the chip
     *                    config the stream was recorded on.
     * @param with_health true when frames carry a health block
     *                    (hardened sessions).
     */
    ReplayStreamBuilder(std::string name, std::uint64_t fingerprint,
                        std::size_t n_cores, std::size_t n_cus,
                        bool with_health);

    /**
     * Append one interval. @p health must be non-null exactly when
     * the builder was constructed with_health.
     */
    void addFrame(double time_s, double cap_w, const IntervalRecord &rec,
                  const SampleHealth *health);

    const std::string &name() const { return name_; }
    std::uint64_t fingerprint() const { return fingerprint_; }
    std::size_t nCores() const { return n_cores_; }
    std::size_t nCus() const { return n_cus_; }
    bool withHealth() const { return with_health_; }
    std::size_t frameCount() const { return frame_count_; }
    std::size_t frameStride() const { return stride_; }
    const std::vector<unsigned char> &bytes() const { return bytes_; }

    /** Frame stride in bytes for the given stream shape. */
    static std::size_t strideFor(std::size_t n_cores, std::size_t n_cus,
                                 bool with_health);

  private:
    std::string name_;
    std::uint64_t fingerprint_;
    std::size_t n_cores_;
    std::size_t n_cus_;
    bool with_health_;
    std::size_t stride_;
    std::size_t frame_count_ = 0;
    std::vector<unsigned char> bytes_;
};

/**
 * Assemble the given streams into one replay file at @p path
 * (POSIX write; the previous file, if any, is replaced). Fatal on
 * I/O failure.
 */
void writeReplayFile(const std::string &path,
                     const std::vector<const ReplayStreamBuilder *> &streams);

/**
 * A memory-mapped replay file, validated eagerly on open: magic,
 * version, byte order, the reserved header word, declared size vs
 * actual size, the stream table checksum, and every stream's payload
 * checksum are checked before the first frame is served. A truncated,
 * corrupt, or foreign file is rejected with a clear fatal diagnostic —
 * never replayed partially.
 */
class ReplayFile
{
  public:
    /** One validated stream inside the mapping. */
    struct Stream
    {
        std::string name;
        std::uint64_t fingerprint = 0;
        std::size_t frame_count = 0;
        std::size_t frame_stride = 0;
        std::size_t n_cores = 0;
        std::size_t n_cus = 0;
        bool with_health = false;
        const unsigned char *frames = nullptr;
    };

    explicit ReplayFile(const std::string &path);
    ~ReplayFile();

    ReplayFile(const ReplayFile &) = delete;
    ReplayFile &operator=(const ReplayFile &) = delete;

    const std::string &path() const { return path_; }
    std::size_t streamCount() const { return streams_.size(); }
    const Stream &stream(std::size_t i) const;

    /** Stream with the given recorded name, or null. */
    const Stream *findStream(std::string_view name) const;

  private:
    std::string path_;
    int fd_ = -1;
    void *map_ = nullptr;
    std::size_t map_len_ = 0;
    std::vector<Stream> streams_;
};

/**
 * IntervalSource that serves a recorded stream from the mapping —
 * the zero-simulation, zero-allocation ingest path. The warm read
 * loop is a pointer bump plus fixed-size field copies; no syscalls,
 * no locks, no heap.
 *
 * Construction re-checks the stream's platform fingerprint against
 * the caller's expectation (fatal on mismatch), so a trace recorded
 * on one silicon revision can never govern another.
 */
class ReplaySource final : public IntervalSource
{
  public:
    /**
     * @param expected_fingerprint runtime::platformFingerprint of the
     *        chip config the replayed session is configured with.
     */
    ReplaySource(const ReplayFile &file, std::size_t stream_index,
                 std::uint64_t expected_fingerprint);

    std::size_t frameCount() const { return stream_.frame_count; }
    std::size_t framesConsumed() const { return next_; }
    bool done() const { return next_ >= stream_.frame_count; }

    /** Rewind to the first frame (replay the stream again). */
    void rewind() { next_ = 0; }

    /** Decode the next frame into @p rec; fatal past the end. */
    void collectIntervalInto(IntervalRecord &rec) PPEP_NONBLOCKING
        override;

    /** The decoded frame's health; null when the stream has no
     *  health block. */
    const SampleHealth *health() const override
    {
        return stream_.with_health ? &health_ : nullptr;
    }

    // Context of the most recently decoded frame.
    double frameTimeS() const { return time_s_; }
    double frameCapW() const { return cap_w_; }

  private:
    const ReplayFile::Stream &stream_;
    std::size_t next_ = 0;
    double time_s_ = 0.0;
    double cap_w_ = 0.0;
    SampleHealth health_{};
};

} // namespace ppep::trace

#endif // PPEP_TRACE_REPLAY_HPP
