/**
 * @file
 * The telemetry number-formatting contract: every double a sink emits
 * must parse back to the exact same bits (shortest round-trip), the
 * fixed/integer helpers must match their snprintf predecessors, and the
 * whole-row encoders (CsvWriter, CsvSink, JsonlSink) must preserve that
 * property end to end.
 *
 * This pins the fix for the old "%.10g" formatter, which truncated
 * doubles to 10 significant digits and silently lost up to 7 bits of
 * mantissa in every trace.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "ppep/runtime/telemetry.hpp"
#include "ppep/trace/interval.hpp"
#include "ppep/util/csv.hpp"
#include "ppep/util/fmt.hpp"

#include "temp_path.hpp"

namespace {

using namespace ppep;
namespace fmt = ppep::util::fmt;

std::uint64_t
bits(double v)
{
    std::uint64_t b;
    std::memcpy(&b, &v, sizeof(b));
    return b;
}

std::string
format(double v)
{
    fmt::RowBuffer row;
    row.appendDouble(v);
    return std::string(row.view());
}

/** strtod round trip must restore the exact bit pattern. */
void
expectRoundTrip(double v)
{
    const std::string s = format(v);
    ASSERT_FALSE(s.empty());
    ASSERT_LE(s.size(), fmt::kMaxDoubleChars);
    char *end = nullptr;
    const double back = std::strtod(s.c_str(), &end);
    EXPECT_EQ(end, s.c_str() + s.size()) << "trailing junk in: " << s;
    EXPECT_EQ(bits(back), bits(v)) << "lost bits formatting " << s;
}

TEST(FmtDouble, HandPickedValuesRoundTripBitExactly)
{
    const double cases[] = {
        0.0,
        -0.0,
        1.0,
        -1.0,
        0.1,
        1.0 / 3.0,
        2.0 / 3.0,
        3.141592653589793,
        2.718281828459045,
        1e-300,
        1e300,
        -1.2345678901234567e-8,
        123456789.123456789,
        std::numeric_limits<double>::max(),
        -std::numeric_limits<double>::max(),
        std::numeric_limits<double>::min(),        // smallest normal
        std::numeric_limits<double>::denorm_min(), // smallest subnormal
        -std::numeric_limits<double>::denorm_min(),
        std::numeric_limits<double>::epsilon(),
        9007199254740993.0, // 2^53 + 1 rounds; still round-trips
        4.35,               // classic shortest-vs-exact pitfall
        0.3,
        2.2250738585072011e-308, // the strtod-killer subnormal boundary
    };
    for (double v : cases)
        expectRoundTrip(v);
}

TEST(FmtDouble, TenSigDigitFormatterWouldHaveLostTheseBits)
{
    // Witness for the bug being fixed: "%.10g" does NOT round-trip.
    const double v = 1.0 / 3.0;
    char old_style[32];
    std::snprintf(old_style, sizeof(old_style), "%.10g", v);
    EXPECT_NE(bits(std::strtod(old_style, nullptr)), bits(v));
    expectRoundTrip(v); // ...while the to_chars path does.
}

TEST(FmtDouble, RandomBitPatternsRoundTripBitExactly)
{
    std::mt19937_64 rng(2014);
    std::size_t tested = 0;
    while (tested < 10000) {
        const std::uint64_t b = rng();
        double v;
        std::memcpy(&v, &b, sizeof(v));
        if (!std::isfinite(v))
            continue; // NaN/inf take the JSON-null path, tested below
        expectRoundTrip(v);
        ++tested;
    }
}

TEST(FmtDouble, JsonEncodingMapsNonFiniteToNull)
{
    fmt::RowBuffer row;
    row.appendJsonDouble(std::numeric_limits<double>::quiet_NaN());
    row.append(',');
    row.appendJsonDouble(std::numeric_limits<double>::infinity());
    row.append(',');
    row.appendJsonDouble(-std::numeric_limits<double>::infinity());
    row.append(',');
    row.appendJsonDouble(1.5);
    EXPECT_EQ(row.view(), "null,null,null,1.5");
}

TEST(FmtFixed, MatchesSnprintfFixedNotation)
{
    const double cases[] = {0.0,    1.0,     99.95,  0.049999,
                            1e6,    123.456, 1e-12,  73.25,
                            -41.37, 1e18,    27.005, 3.14159};
    for (double v : cases) {
        for (int prec : {1, 2}) {
            fmt::RowBuffer row;
            row.appendFixed(v, prec);
            char ref[512];
            std::snprintf(ref, sizeof(ref), "%.*f", prec, v);
            EXPECT_EQ(row.view(), ref)
                << "value " << v << " precision " << prec;
        }
    }
}

TEST(FmtU64, BoundaryIntegersFormatExactly)
{
    const std::uint64_t cases[] = {
        0u, 1u, 9u, 10u, 1234567890123456789u,
        std::numeric_limits<std::uint64_t>::max()};
    for (std::uint64_t v : cases) {
        fmt::RowBuffer row;
        row.appendU64(v);
        EXPECT_EQ(row.view(), std::to_string(v));
        EXPECT_LE(row.size(), fmt::kMaxU64Chars);
    }
}

TEST(FmtRowBuffer, ClearReusesStorageAndMixedAppendsCompose)
{
    fmt::RowBuffer row(8); // deliberately tiny: must grow transparently
    row.append(std::string_view{"x="});
    row.appendDouble(0.25);
    row.append(',');
    row.appendU64(42);
    EXPECT_EQ(row.view(), "x=0.25,42");
    const char *before = row.data();
    row.clear();
    EXPECT_EQ(row.size(), 0u);
    row.append('a');
    EXPECT_EQ(row.view(), "a");
    EXPECT_EQ(row.data(), before); // clear() kept the buffer
}

// --- whole-row encoders --------------------------------------------------

std::vector<std::string>
split(const std::string &line, char sep)
{
    std::vector<std::string> out;
    std::string cur;
    for (char c : line) {
        if (c == sep) {
            out.push_back(cur);
            cur.clear();
        } else {
            cur += c;
        }
    }
    out.push_back(cur);
    return out;
}

TEST(FmtCsvWriter, NumericRowsParseBackBitExactly)
{
    const std::string path = test::tempPath("fmt_roundtrip.csv");
    const std::vector<double> row = {1.0 / 3.0, -0.0, 0.1,
                                     std::numeric_limits<double>::max(),
                                     6.02214076e23};
    {
        util::CsvWriter csv(path);
        csv.writeRow(row);
    }
    std::ifstream in(path);
    std::string line;
    ASSERT_TRUE(std::getline(in, line));
    const auto cells = split(line, ',');
    ASSERT_EQ(cells.size(), row.size());
    for (std::size_t i = 0; i < row.size(); ++i)
        EXPECT_EQ(bits(std::strtod(cells[i].c_str(), nullptr)),
                  bits(row[i]))
            << "cell " << i << " = " << cells[i];
    std::filesystem::remove(path);
}

TEST(FmtTelemetry, CsvSinkDoublesParseBackBitExactly)
{
    // Drive one interval of awkward doubles through the CSV sink and
    // re-read every numeric column.
    trace::IntervalRecord rec;
    rec.duration_s = 0.2;
    rec.sensor_power_w = 61.0 / 7.0;
    rec.diode_temp_k = 310.0 + 1.0 / 3.0;
    rec.pmc.resize(2);
    rec.pmc[0][sim::eventIndex(sim::Event::RetiredInst)] = 1.25e8;
    rec.pmc[1][sim::eventIndex(sim::Event::RetiredInst)] = 3.1e7;
    const std::vector<std::size_t> cu_vf = {0, 2, 4, 1};

    runtime::IntervalTelemetry t;
    t.index = 7;
    t.time_s = 1.4000000000000001;
    t.rec = &rec;
    t.cu_vf = &cu_vf;
    t.cap_w = 62.5;
    t.predicted_power_w = 8.7142857142857135;
    t.decision_latency_s = 1.0 / 3e6;

    std::ostringstream out;
    runtime::CsvSink sink(out);
    sink.onInterval(t);
    sink.finish();

    std::istringstream lines(out.str());
    std::string header, line;
    ASSERT_TRUE(std::getline(lines, header));
    ASSERT_TRUE(std::getline(lines, line));
    // interval,time_s,cap_w + one cu{i}_vf per CU + measured,
    // predicted, diode, total_ips + one core{c}_ips per core +
    // decision_latency_us: 3 + 4 + 4 + 2 + 1 columns.
    const auto cells = split(line, ',');
    ASSERT_EQ(cells.size(), 14u);
    EXPECT_EQ(cells[0], "7");
    EXPECT_EQ(cells[3], "0");
    EXPECT_EQ(cells[4], "2");
    EXPECT_EQ(cells[5], "4");
    EXPECT_EQ(cells[6], "1");

    const double total_ips =
        (1.25e8 + 3.1e7) / rec.duration_s; // same fold as the sink
    const std::pair<std::size_t, double> numeric[] = {
        {1, t.time_s},
        {2, t.cap_w},
        {7, rec.sensor_power_w},
        {8, t.predicted_power_w},
        {9, rec.diode_temp_k},
        {10, total_ips},
        {11, 1.25e8 / rec.duration_s},
        {12, 3.1e7 / rec.duration_s},
        {13, t.decision_latency_s * 1e6},
    };
    for (const auto &[col, want] : numeric)
        EXPECT_EQ(bits(std::strtod(cells[col].c_str(), nullptr)),
                  bits(want))
            << "column " << col << " = " << cells[col];
}

TEST(FmtTelemetry, JsonlSinkDoublesParseBackBitExactly)
{
    trace::IntervalRecord rec;
    rec.duration_s = 0.2;
    rec.sensor_power_w = 47.0 / 11.0;
    rec.diode_temp_k = 333.33333333333331;
    rec.pmc.resize(1);
    rec.pmc[0][sim::eventIndex(sim::Event::RetiredInst)] = 9.9e7;
    const std::vector<std::size_t> cu_vf = {3};

    runtime::IntervalTelemetry t;
    t.index = 0;
    t.time_s = 0.2;
    t.rec = &rec;
    t.cu_vf = &cu_vf;
    t.cap_w = 100.0 / 3.0;
    // first interval: no prediction → JSON null
    t.predicted_power_w = std::numeric_limits<double>::quiet_NaN();

    std::ostringstream out;
    runtime::JsonlSink sink(out);
    sink.onInterval(t);
    sink.finish();
    const std::string line = out.str();

    auto field = [&](const std::string &key) {
        const std::string tag = "\"" + key + "\":";
        const auto pos = line.find(tag);
        EXPECT_NE(pos, std::string::npos) << key;
        return line.substr(pos + tag.size());
    };
    EXPECT_EQ(field("predicted_power_w").substr(0, 4), "null");
    EXPECT_EQ(bits(std::strtod(field("cap_w").c_str(), nullptr)),
              bits(t.cap_w));
    EXPECT_EQ(bits(std::strtod(field("measured_power_w").c_str(),
                               nullptr)),
              bits(rec.sensor_power_w));
    EXPECT_EQ(bits(std::strtod(field("diode_temp_k").c_str(), nullptr)),
              bits(rec.diode_temp_k));
}

} // namespace
