/**
 * @file
 * Shared helpers for the per-figure bench binaries.
 *
 * Each binary regenerates one table/figure from the paper's evaluation
 * and prints the simulated result next to the paper's reference number
 * where one exists. The default seed makes every bench reproducible.
 */

#ifndef PPEP_BENCH_COMMON_HPP
#define PPEP_BENCH_COMMON_HPP

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <limits>
#include <string>
#include <vector>

#include "ppep/model/trainer.hpp"
#include "ppep/runtime/model_store.hpp"
#include "ppep/util/fmt.hpp"
#include "ppep/util/table.hpp"
#include "ppep/workloads/suite.hpp"

namespace ppep::bench {

/** Seed shared by every bench binary. */
inline constexpr std::uint64_t kSeed = 2014; // MICRO 2014

/** Print a bench header. */
inline void
header(const std::string &what, const std::string &paper_ref)
{
    std::printf("================================================="
                "=============================\n");
    std::printf("%s\n", what.c_str());
    std::printf("Reproduces: %s\n", paper_ref.c_str());
    std::printf("================================================="
                "=============================\n");
}

/** All 152 combination pointers. */
inline std::vector<const workloads::Combination *>
allCombos()
{
    std::vector<const workloads::Combination *> out;
    for (const auto &c : workloads::allCombinations())
        out.push_back(&c);
    return out;
}

/**
 * The full model stack for a Sec. V style bench: trained once, then
 * served from the ModelStore cache on every later bench run (loading
 * reproduces the trained coefficients bit for bit).
 */
inline model::TrainedModels
trainModels(const sim::ChipConfig &cfg)
{
    runtime::ModelStore store;
    bool cached = false;
    auto models = store.trainOrLoad(
        cfg, kSeed, workloads::singleProgramCombinations(), &cached);
    if (cached)
        std::printf("(PPEP models loaded from %s)\n",
                    store.cacheDir().c_str());
    return models;
}

/**
 * Tiny machine-readable bench emitter with a stable schema, shared by
 * the bench binaries that persist results (bench_explore,
 * bench_overhead):
 *
 *     {"bench": "<bench>",
 *      "results": [
 *        {"name": "...", "metric": "...", "value": <num>,
 *         "unit": "...", "threads": <int>},
 *        ...]}
 *
 * `threads` is 0 for measurements that have no thread dimension.
 */
class BenchJson
{
  public:
    BenchJson(std::string bench, std::string path)
        : bench_(std::move(bench)), path_(std::move(path))
    {
    }

    void add(const std::string &name, const std::string &metric,
             double value, const std::string &unit,
             std::size_t threads = 0)
    {
        rows_.push_back({name, metric, value, unit, threads});
    }

    /** Write the file; returns false (and warns) on I/O failure. */
    bool write() const
    {
        std::ofstream out(path_);
        if (!out.is_open()) {
            std::fprintf(stderr, "cannot open %s\n", path_.c_str());
            return false;
        }
        out << "{\"bench\": \"" << bench_ << "\",\n \"results\": [";
        for (std::size_t i = 0; i < rows_.size(); ++i) {
            const Row &r = rows_[i];
            char value[util::fmt::kMaxDoubleChars + 1];
            *util::fmt::writeDouble(value,
                                    value + util::fmt::kMaxDoubleChars,
                                    r.value) = '\0';
            out << (i ? ",\n  " : "\n  ") << "{\"name\": \"" << r.name
                << "\", \"metric\": \"" << r.metric
                << "\", \"value\": " << value << ", \"unit\": \""
                << r.unit << "\", \"threads\": " << r.threads << "}";
        }
        out << "\n]}\n";
        out.flush();
        if (!out) {
            std::fprintf(stderr, "write to %s failed\n", path_.c_str());
            return false;
        }
        std::printf("(bench results written to %s)\n", path_.c_str());
        return true;
    }

  private:
    struct Row
    {
        std::string name;
        std::string metric;
        double value = 0.0;
        std::string unit;
        std::size_t threads = 0;
    };

    std::string bench_;
    std::string path_;
    std::vector<Row> rows_;
};

/**
 * Minimal extractor for the BenchJson schema: the value of the first
 * row whose "metric" matches. NaN when absent. Used by the --check
 * modes that compare a fresh run against a committed baseline file.
 */
inline double
baselineValue(const std::string &json, const std::string &metric)
{
    const std::string tag = "\"metric\": \"" + metric + "\"";
    auto pos = json.find(tag);
    if (pos == std::string::npos)
        return std::numeric_limits<double>::quiet_NaN();
    const std::string vtag = "\"value\": ";
    pos = json.find(vtag, pos);
    if (pos == std::string::npos)
        return std::numeric_limits<double>::quiet_NaN();
    return std::strtod(json.c_str() + pos + vtag.size(), nullptr);
}

} // namespace ppep::bench

#endif // PPEP_BENCH_COMMON_HPP
