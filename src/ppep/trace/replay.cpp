/**
 * @file
 * Replay file encoding, validation, and the mmap'd frame reader.
 *
 * I/O discipline: this file is on the hot-path lint wall, so all file
 * access is raw POSIX (open/write/mmap) — no iostreams, no stdio. The
 * writer and validator run cold (once per run); only
 * ReplaySource::collectIntervalInto is warm, and it touches nothing
 * but the mapping.
 */

#include "ppep/trace/replay.hpp"

#include <algorithm>
#include <cerrno>
#include <cstring>

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include "ppep/sim/events.hpp"
#include "ppep/util/hash.hpp"
#include "ppep/util/logging.hpp"

namespace ppep::trace {

namespace {

constexpr char kMagic[8] = {'P', 'P', 'E', 'P', 'T', 'R', 'C', '1'};
constexpr std::uint32_t kByteOrderMark = 0x01020304u;
constexpr std::size_t kHeaderBytes = 40;
constexpr std::size_t kStreamEntryBytes = 96;
constexpr std::size_t kNameBytes = kMaxStreamNameBytes + 1;
constexpr std::uint32_t kFlagHasHealth = 1u;

double
loadF64(const unsigned char *p) PPEP_NONBLOCKING
{
    double v;
    std::memcpy(&v, p, sizeof(v));
    return v;
}

std::uint64_t
loadU64(const unsigned char *p) PPEP_NONBLOCKING
{
    std::uint64_t v;
    std::memcpy(&v, p, sizeof(v));
    return v;
}

/** The replay checksum: wide FNV-1a over @p n / 8 64-bit words. Every
 *  checksummed range (the stream table, a stream's frames) is a whole
 *  number of words. */
std::uint64_t
checksumWords(const unsigned char *p, std::size_t n)
{
    PPEP_ASSERT(n % 8 == 0, "replay checksum over ", n,
                " bytes, not a whole number of words");
    std::uint64_t h = util::kFnvOffsetBasis;
    for (const unsigned char *end = p + n; p != end; p += 8)
        h = util::fnv1aWide(h, loadU64(p));
    return h;
}

std::uint32_t
loadU32(const unsigned char *p)
{
    std::uint32_t v;
    std::memcpy(&v, p, sizeof(v));
    return v;
}

void
appendBytes(std::vector<unsigned char> &out, const void *src,
            std::size_t n)
{
    const auto *b = static_cast<const unsigned char *>(src);
    out.insert(out.end(), b, b + n);
}

void
appendF64(std::vector<unsigned char> &out, double v)
{
    appendBytes(out, &v, sizeof(v));
}

void
appendU64(std::vector<unsigned char> &out, std::uint64_t v)
{
    appendBytes(out, &v, sizeof(v));
}

void
appendU32(std::vector<unsigned char> &out, std::uint32_t v)
{
    appendBytes(out, &v, sizeof(v));
}

/** write(2) the whole buffer, retrying on EINTR/short writes. */
void
writeAll(int fd, const unsigned char *p, std::size_t n,
         const std::string &path)
{
    while (n > 0) {
        const ssize_t w = ::write(fd, p, n);
        if (w < 0) {
            if (errno == EINTR)
                continue;
            PPEP_FATAL("replay: write to ", path, " failed: ",
                       std::strerror(errno));
        }
        p += w;
        n -= static_cast<std::size_t>(w);
    }
}

} // namespace

// --- ReplayStreamBuilder -------------------------------------------------

std::size_t
ReplayStreamBuilder::strideFor(std::size_t n_cores, std::size_t n_cus,
                               bool with_health)
{
    // 7 f64 context/record scalars + busy_cores.
    std::size_t fields = 8 + n_cus + n_cores * sim::kNumEvents;
    if (with_health)
        fields += std::tuple_size_v<SampleHealth::Words>;
    return 8 * fields;
}

ReplayStreamBuilder::ReplayStreamBuilder(std::string name,
                                         std::uint64_t fingerprint,
                                         std::size_t n_cores,
                                         std::size_t n_cus,
                                         bool with_health)
    : name_(std::move(name)), fingerprint_(fingerprint),
      n_cores_(n_cores), n_cus_(n_cus), with_health_(with_health),
      stride_(strideFor(n_cores, n_cus, with_health))
{
    PPEP_ASSERT(n_cores_ > 0 && n_cus_ > 0,
                "replay stream needs a non-empty core topology");
}

void
ReplayStreamBuilder::addFrame(double time_s, double cap_w,
                              const IntervalRecord &rec,
                              const SampleHealth *health)
{
    PPEP_ASSERT(rec.cu_vf.size() == n_cus_,
                "record CU count does not match the stream shape");
    PPEP_ASSERT(rec.pmc.size() == n_cores_,
                "record core count does not match the stream shape");
    PPEP_ASSERT((health != nullptr) == with_health_,
                "health block presence must match the stream flags");

    // No reserve here: an exact-size reserve would pin capacity to the
    // current length and force a full copy per frame (quadratic over a
    // long recording); the vector's geometric growth is what we want.
    appendF64(bytes_, time_s);
    appendF64(bytes_, cap_w);
    appendF64(bytes_, rec.duration_s);
    appendF64(bytes_, rec.sensor_power_w);
    appendF64(bytes_, rec.diode_temp_k);
    appendF64(bytes_, rec.nb_vf.voltage);
    appendF64(bytes_, rec.nb_vf.freq_ghz);
    appendU64(bytes_, static_cast<std::uint64_t>(rec.busy_cores));
    for (std::size_t v : rec.cu_vf)
        appendU64(bytes_, static_cast<std::uint64_t>(v));
    for (const auto &core : rec.pmc)
        for (double e : core)
            appendF64(bytes_, e);
    if (with_health_)
        for (std::uint64_t w : health->words())
            appendU64(bytes_, w);
    ++frame_count_;
}

// --- writeReplayFile -----------------------------------------------------

void
writeReplayFile(const std::string &path,
                const std::vector<const ReplayStreamBuilder *> &streams)
{
    // Stream table first so the header can carry its checksum.
    std::vector<unsigned char> toc;
    toc.reserve(streams.size() * kStreamEntryBytes);
    std::uint64_t offset = static_cast<std::uint64_t>(
        kHeaderBytes + streams.size() * kStreamEntryBytes);
    for (const ReplayStreamBuilder *s : streams) {
        PPEP_ASSERT(s != nullptr, "null stream handed to the writer");
        char name[kNameBytes] = {};
        const std::size_t n =
            std::min(s->name().size(), kMaxStreamNameBytes);
        std::memcpy(name, s->name().data(), n);
        appendBytes(toc, name, kNameBytes);
        appendU64(toc, s->fingerprint());
        appendU64(toc, offset);
        appendU64(toc, static_cast<std::uint64_t>(s->frameCount()));
        appendU64(toc, static_cast<std::uint64_t>(s->frameStride()));
        appendU64(toc, checksumWords(s->bytes().data(), s->bytes().size()));
        appendU32(toc, static_cast<std::uint32_t>(s->nCores()));
        appendU32(toc, static_cast<std::uint32_t>(s->nCus()));
        appendU32(toc, s->withHealth() ? kFlagHasHealth : 0u);
        appendU32(toc, 0u);
        offset += s->bytes().size();
    }

    std::vector<unsigned char> head;
    head.reserve(kHeaderBytes);
    appendBytes(head, kMagic, sizeof(kMagic));
    appendU32(head, kReplayVersion);
    appendU32(head, kByteOrderMark);
    appendU32(head, static_cast<std::uint32_t>(streams.size()));
    appendU32(head, 0u);
    appendU64(head, offset); // total file bytes
    appendU64(head, checksumWords(toc.data(), toc.size()));

    const int fd =
        ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd < 0)
        PPEP_FATAL("replay: cannot create ", path, ": ",
                   std::strerror(errno));
    writeAll(fd, head.data(), head.size(), path);
    writeAll(fd, toc.data(), toc.size(), path);
    for (const ReplayStreamBuilder *s : streams)
        writeAll(fd, s->bytes().data(), s->bytes().size(), path);
    if (::close(fd) != 0)
        PPEP_FATAL("replay: closing ", path, " failed: ",
                   std::strerror(errno));
}

// --- ReplayFile ----------------------------------------------------------

ReplayFile::ReplayFile(const std::string &path) : path_(path)
{
    fd_ = ::open(path.c_str(), O_RDONLY);
    if (fd_ < 0)
        PPEP_FATAL("replay: cannot open ", path, ": ",
                   std::strerror(errno));
    struct stat st;
    if (::fstat(fd_, &st) != 0)
        PPEP_FATAL("replay: cannot stat ", path, ": ",
                   std::strerror(errno));
    if (st.st_size < 0 ||
        static_cast<std::size_t>(st.st_size) < kHeaderBytes)
        PPEP_FATAL("replay: ", path, " is truncated (", st.st_size,
                   " bytes — smaller than the file header)");
    map_len_ = static_cast<std::size_t>(st.st_size);
    void *m = ::mmap(nullptr, map_len_, PROT_READ, MAP_PRIVATE, fd_, 0);
    if (m == MAP_FAILED)
        PPEP_FATAL("replay: cannot map ", path, ": ",
                   std::strerror(errno));
    map_ = m;

    const auto *p = static_cast<const unsigned char *>(map_);
    if (std::memcmp(p, kMagic, sizeof(kMagic)) != 0)
        PPEP_FATAL("replay: ", path,
                   " is not a PPEP replay file (bad magic)");
    const std::uint32_t version = loadU32(p + 8);
    if (version != kReplayVersion)
        PPEP_FATAL("replay: ", path, " is format version ", version,
                   "; this build reads version ", kReplayVersion);
    if (loadU32(p + 12) != kByteOrderMark)
        PPEP_FATAL("replay: ", path,
                   " was recorded with an incompatible byte order");
    const std::uint32_t n_streams = loadU32(p + 16);
    if (loadU32(p + 20) != 0)
        PPEP_FATAL("replay: ", path,
                   " header is corrupt (reserved word is not zero)");
    const std::uint64_t declared = loadU64(p + 24);
    if (declared != map_len_)
        PPEP_FATAL("replay: ", path, " is truncated or padded (header "
                   "declares ", declared, " bytes, file has ", map_len_,
                   ")");
    const std::size_t toc_end =
        kHeaderBytes + std::size_t{n_streams} * kStreamEntryBytes;
    if (toc_end > map_len_)
        PPEP_FATAL("replay: ", path,
                   " is truncated inside the stream table");
    if (loadU64(p + 32) !=
        checksumWords(p + kHeaderBytes, toc_end - kHeaderBytes))
        PPEP_FATAL("replay: ", path,
                   " stream table is corrupt (checksum mismatch)");

    streams_.reserve(n_streams);
    for (std::uint32_t i = 0; i < n_streams; ++i) {
        const unsigned char *e =
            p + kHeaderBytes + std::size_t{i} * kStreamEntryBytes;
        Stream s;
        const auto *name = reinterpret_cast<const char *>(e);
        s.name.assign(name, ::strnlen(name, kNameBytes));
        s.fingerprint = loadU64(e + 40);
        const std::uint64_t frame_offset = loadU64(e + 48);
        s.frame_count = static_cast<std::size_t>(loadU64(e + 56));
        s.frame_stride = static_cast<std::size_t>(loadU64(e + 64));
        const std::uint64_t checksum = loadU64(e + 72);
        s.n_cores = loadU32(e + 80);
        s.n_cus = loadU32(e + 84);
        const std::uint32_t flags = loadU32(e + 88);
        if ((flags & ~kFlagHasHealth) != 0)
            PPEP_FATAL("replay: ", path, " stream '", s.name,
                       "' carries unknown flags");
        s.with_health = (flags & kFlagHasHealth) != 0;
        if (s.frame_stride != ReplayStreamBuilder::strideFor(
                                  s.n_cores, s.n_cus, s.with_health))
            PPEP_FATAL("replay: ", path, " stream '", s.name,
                       "' has an inconsistent frame stride");
        const std::uint64_t payload =
            static_cast<std::uint64_t>(s.frame_count) * s.frame_stride;
        if (frame_offset > map_len_ ||
            payload > map_len_ - frame_offset)
            PPEP_FATAL("replay: ", path,
                       " is truncated inside stream '", s.name, "'");
        s.frames = p + frame_offset;
        if (checksum !=
            checksumWords(s.frames, static_cast<std::size_t>(payload)))
            PPEP_FATAL("replay: ", path, " stream '", s.name,
                       "' frame payload is corrupt (checksum "
                       "mismatch)");
        streams_.push_back(std::move(s));
    }
}

ReplayFile::~ReplayFile()
{
    if (map_ != nullptr)
        ::munmap(map_, map_len_);
    if (fd_ >= 0)
        ::close(fd_);
}

const ReplayFile::Stream &
ReplayFile::stream(std::size_t i) const
{
    PPEP_ASSERT(i < streams_.size(), "stream index out of range");
    return streams_[i];
}

const ReplayFile::Stream *
ReplayFile::findStream(std::string_view name) const
{
    for (const Stream &s : streams_)
        if (s.name == name)
            return &s;
    return nullptr;
}

// --- ReplaySource --------------------------------------------------------

ReplaySource::ReplaySource(const ReplayFile &file,
                           std::size_t stream_index,
                           std::uint64_t expected_fingerprint)
    : stream_(file.stream(stream_index))
{
    if (stream_.fingerprint != expected_fingerprint)
        PPEP_FATAL("replay: stream '", stream_.name, "' in ",
                   file.path(), " was recorded on different silicon "
                   "(fingerprint ", stream_.fingerprint,
                   ", this platform is ", expected_fingerprint, ")");
}

void
ReplaySource::collectIntervalInto(IntervalRecord &rec) PPEP_NONBLOCKING
{
    PPEP_ASSERT(next_ < stream_.frame_count, "replay stream '",
                stream_.name, "' exhausted after ",
                stream_.frame_count, " frames");
    const unsigned char *p =
        stream_.frames + next_ * stream_.frame_stride;

    time_s_ = loadF64(p);
    p += 8;
    cap_w_ = loadF64(p);
    p += 8;
    rec.duration_s = loadF64(p);
    p += 8;
    rec.sensor_power_w = loadF64(p);
    p += 8;
    rec.diode_temp_k = loadF64(p);
    p += 8;
    rec.nb_vf.voltage = loadF64(p);
    p += 8;
    rec.nb_vf.freq_ghz = loadF64(p);
    p += 8;
    rec.busy_cores = static_cast<std::size_t>(loadU64(p));
    p += 8;

    // rt-escape: the first decode sizes the caller's record to the
    // stream shape; every later frame reuses the same storage and the
    // resizes are no-ops.
    PPEP_RT_WARMUP_BEGIN
    rec.cu_vf.resize(stream_.n_cus);
    rec.pmc.resize(stream_.n_cores);
    PPEP_RT_WARMUP_END

    for (std::size_t cu = 0; cu < stream_.n_cus; ++cu) {
        rec.cu_vf[cu] = static_cast<std::size_t>(loadU64(p));
        p += 8;
    }
    for (std::size_t c = 0; c < stream_.n_cores; ++c)
        for (std::size_t e = 0; e < sim::kNumEvents; ++e) {
            rec.pmc[c][e] = loadF64(p);
            p += 8;
        }
    if (stream_.with_health) {
        SampleHealth::Words w;
        for (std::uint64_t &v : w) {
            v = loadU64(p);
            p += 8;
        }
        health_ = SampleHealth::fromWords(w);
    }
    ++next_;
}

} // namespace ppep::trace
