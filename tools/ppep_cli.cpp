/**
 * @file
 * The `ppep` command-line tool: train models for a simulated platform,
 * persist them, and use them for prediction, exploration, and
 * validation — the full deployment loop in one binary.
 *
 *   ppep list                                  available benchmarks
 *   ppep train    --out FILE [options]         one-time offline training
 *   ppep predict  --models FILE -b NAME [...]  power/perf at every VF
 *   ppep explore  --models FILE -b NAME [...]  per-thread energy/EDP
 *   ppep validate [options]                    estimation-error summary
 *   ppep fleet    --fleet N --threads K        N governed sessions on a
 *                                              K-worker pool
 *   ppep fleet    --mix fx:6,phenom:2          heterogeneous fleet: one
 *                                              session per mix entry,
 *                                              each on its own platform
 *   ppep fleet    --budget W [--tiers rack:2]  arbitrate a global watt
 *                                              contract into per-session
 *                                              caps every interval
 *
 * Common options:
 *   --platform NAME   fx8320 (fx), fx8320-boost (boost),
 *                     fx8320-nbdvfs (nbdvfs) or phenom2 (phenom);
 *                     default fx8320
 *   --seed N                                   (default 2014)
 *   -b/--benchmark NAME, -n/--copies N, --nb-whatif, --quick
 */

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <limits>
#include <map>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "ppep/governor/energy_explorer.hpp"
#include "ppep/model/ppep.hpp"
#include "ppep/model/serialization.hpp"
#include "ppep/model/trainer.hpp"
#include "ppep/model/validation.hpp"
#include "ppep/runtime/fleet.hpp"
#include "ppep/trace/collector.hpp"
#include "ppep/util/stats.hpp"
#include "ppep/util/table.hpp"
#include "ppep/workloads/suite.hpp"

namespace {

using namespace ppep;

/** One platform the CLI can simulate; --platform and --mix accept
 *  its full name or its short alias. */
struct Platform
{
    const char *name;
    const char *alias;
    sim::ChipConfig (*make)();
};

constexpr Platform kPlatforms[] = {
    {"fx8320", "fx", sim::fx8320Config},
    {"fx8320-boost", "boost", sim::fx8320ConfigWithBoost},
    {"fx8320-nbdvfs", "nbdvfs", sim::fx8320NbDvfsConfig},
    {"phenom2", "phenom", sim::phenomIIConfig},
};

/** "fx8320 (fx), fx8320-boost (boost), ..." for usage and errors. */
std::string
platformNames()
{
    std::string out;
    for (const auto &p : kPlatforms) {
        if (!out.empty())
            out += ", ";
        out += std::string(p.name) + " (" + p.alias + ")";
    }
    return out;
}

/** The platform called @p name (full name or alias), or null. */
const Platform *
findPlatform(const std::string &name)
{
    for (const auto &p : kPlatforms)
        if (name == p.name || name == p.alias)
            return &p;
    return nullptr;
}

struct Options
{
    std::string command;
    std::string platform = "fx8320";
    std::string models_path;
    std::string out_path;
    std::string benchmark = "433.milc";
    std::size_t copies = 1;
    std::uint64_t seed = 2014;
    bool quick = false;
    bool nb_whatif = false;
    std::size_t fleet_sessions = 4;
    std::size_t threads = 1;
    std::size_t intervals = 40;
    std::string mix;
    std::size_t tenants = 0;
    std::string faults;
    std::string record_path;
    std::string replay_path;
    double budget_w = 0.0; // 0 = no arbitration
    std::string budget_drop;
    std::string tiers;
    std::string priority_csv;
    double slo_floor_w = 0.0;
    std::string arbiter_policy;
};

[[noreturn]] void
usage(int code)
{
    std::fprintf(
        stderr,
        "usage: ppep <command> [options]\n"
        "\n"
        "commands:\n"
        "  list                       list available benchmarks\n"
        "  train --out FILE           train models and persist them\n"
        "  predict --models FILE -b NAME [-n COPIES]\n"
        "                             predict power/perf at every VF\n"
        "  explore --models FILE -b NAME [-n COPIES] [--nb-whatif]\n"
        "                             per-thread energy/EDP space\n"
        "  validate [--quick]         estimation-error summary\n"
        "  fleet [--fleet N] [--threads K] [--intervals I]\n"
        "                             run N governed sessions on a\n"
        "                             K-worker pool over shared models\n"
        "        [--mix LIST|@FILE]   heterogeneous fleet: LIST is\n"
        "                             NAME:COUNT[,NAME:COUNT...] with\n"
        "                             NAME a platform (see --platform)\n"
        "                             (e.g. --mix fx:6,phenom:2);\n"
        "                             @FILE reads the same entries from\n"
        "                             a file, one per line, # comments\n"
        "        [--tenants K]        split the first session's chip\n"
        "                             between K tenants and report\n"
        "                             per-tenant power attribution\n"
        "        [--faults SPEC]      run every session hardened under\n"
        "                             this fault plan (key=value CSV,\n"
        "                             e.g. power_drift_bias=2e-4,\n"
        "                             drift_clamp=0.3)\n"
        "        [--record FILE]      record every session's interval\n"
        "                             stream into a replay file\n"
        "        [--replay FILE]      govern from a recorded file with\n"
        "                             zero simulation; digests match\n"
        "                             the recording run bit for bit\n"
        "        [--budget W]         arbitrate a global W-watt power\n"
        "                             contract across the fleet: per-\n"
        "                             session caps are re-solved from\n"
        "                             the sessions' own per-VF power\n"
        "                             predictions every interval\n"
        "        [--budget-drop W@I]  lower the budget to W watts from\n"
        "                             interval I on (Fig. 7-style step)\n"
        "        [--tiers NAME:K]     split the budget evenly across K\n"
        "                             named tiers (e.g. rack:2);\n"
        "                             sessions are assigned round-robin\n"
        "        [--priority CSV]     per-session arbitration weights,\n"
        "                             cycled over the fleet (e.g. 2,1)\n"
        "        [--slo-floor W]      never cap a session below W watts\n"
        "        [--arbiter POLICY]   single-pass (default) or the\n"
        "                             iterative reactive baseline\n"
        "\n"
        "options:\n"
        "  --platform NAME            default fx8320; NAME is one of\n");
    for (const auto &p : kPlatforms)
        std::fprintf(stderr, "                               %s (%s)\n",
                     p.name, p.alias);
    std::fprintf(
        stderr,
        "  --seed N                                  (default 2014)\n"
        "  --quick                    small training/validation sets\n");
    std::exit(code);
}

/**
 * Parse all of @p text as the value of @p flag: digits only for the
 * unsigned counts, a finite number for watts and weights. Anything
 * else (a trailing suffix, a sign on a count, overflow, inf/nan) names
 * the flag and value, then exits through usage(1).
 */
template <typename T>
T
parseNumber(const char *flag, const std::string &text)
{
    T value{};
    const char *end = text.data() + text.size();
    const auto [ptr, ec] = std::from_chars(text.data(), end, value);
    bool ok = ec == std::errc{} && ptr == end;
    if constexpr (std::is_floating_point_v<T>)
        ok = ok && std::isfinite(value);
    if (!ok) {
        std::fprintf(stderr, "bad value '%s' for %s\n", text.c_str(),
                     flag);
        usage(1);
    }
    return value;
}

Options
parse(int argc, char **argv)
{
    if (argc < 2)
        usage(1);
    Options opt;
    opt.command = argv[1];
    for (int i = 2; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&]() -> std::string {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "missing value for %s\n",
                             arg.c_str());
                usage(1);
            }
            return argv[++i];
        };
        if (arg == "--platform")
            opt.platform = next();
        else if (arg == "--models")
            opt.models_path = next();
        else if (arg == "--out")
            opt.out_path = next();
        else if (arg == "-b" || arg == "--benchmark")
            opt.benchmark = next();
        else if (arg == "-n" || arg == "--copies")
            opt.copies = parseNumber<std::size_t>(arg.c_str(), next());
        else if (arg == "--seed")
            opt.seed = parseNumber<std::uint64_t>(arg.c_str(), next());
        else if (arg == "--quick")
            opt.quick = true;
        else if (arg == "--nb-whatif")
            opt.nb_whatif = true;
        else if (arg == "--fleet")
            opt.fleet_sessions = parseNumber<std::size_t>(arg.c_str(), next());
        else if (arg == "--threads")
            opt.threads = parseNumber<std::size_t>(arg.c_str(), next());
        else if (arg == "--intervals")
            opt.intervals = parseNumber<std::size_t>(arg.c_str(), next());
        else if (arg == "--mix")
            opt.mix = next();
        else if (arg == "--tenants")
            opt.tenants = parseNumber<std::size_t>(arg.c_str(), next());
        else if (arg == "--faults")
            opt.faults = next();
        else if (arg == "--record")
            opt.record_path = next();
        else if (arg == "--replay")
            opt.replay_path = next();
        else if (arg == "--budget") {
            opt.budget_w = parseNumber<double>(arg.c_str(), next());
            if (!(opt.budget_w > 0.0)) {
                std::fprintf(stderr, "--budget wants a positive "
                                     "watt value\n");
                std::exit(1);
            }
        }
        else if (arg == "--budget-drop")
            opt.budget_drop = next();
        else if (arg == "--tiers")
            opt.tiers = next();
        else if (arg == "--priority")
            opt.priority_csv = next();
        else if (arg == "--slo-floor")
            opt.slo_floor_w = parseNumber<double>(arg.c_str(), next());
        else if (arg == "--arbiter")
            opt.arbiter_policy = next();
        else if (arg == "-h" || arg == "--help")
            usage(0);
        else {
            std::fprintf(stderr, "unknown option '%s'\n", arg.c_str());
            usage(1);
        }
    }
    return opt;
}

sim::ChipConfig
platformOf(const std::string &name)
{
    if (const Platform *p = findPlatform(name))
        return p->make();
    std::fprintf(stderr, "unknown platform '%s' (one of %s)\n",
                 name.c_str(), platformNames().c_str());
    usage(1);
}

/** One `NAME:COUNT` entry of a `--mix` argument. */
struct MixEntry
{
    std::string alias;
    sim::ChipConfig cfg;
    std::size_t count = 0;
};

/**
 * Parse `--mix fx:6,phenom:2` (or `--mix @file`, same entries one per
 * line with `#` comments) into per-platform session counts. Exits with
 * a diagnostic on any malformed entry.
 */
std::vector<MixEntry>
parseMix(const std::string &arg)
{
    std::string text = arg;
    if (!text.empty() && text[0] == '@') {
        const std::string path = text.substr(1);
        std::ifstream in(path);
        if (!in.is_open()) {
            std::fprintf(stderr, "fleet: cannot open mix file '%s'\n",
                         path.c_str());
            std::exit(1);
        }
        text.clear();
        for (std::string line; std::getline(in, line);) {
            const auto hash = line.find('#');
            if (hash != std::string::npos)
                line.erase(hash);
            std::string token;
            for (char c : line)
                if (!std::isspace(static_cast<unsigned char>(c)))
                    token += c;
            if (token.empty())
                continue;
            if (!text.empty())
                text += ',';
            text += token;
        }
    }

    std::vector<MixEntry> out;
    std::size_t pos = 0;
    while (pos <= text.size()) {
        const auto comma = text.find(',', pos);
        const std::string token =
            text.substr(pos, comma == std::string::npos ? std::string::npos
                                                        : comma - pos);
        pos = comma == std::string::npos ? text.size() + 1 : comma + 1;
        if (token.empty()) {
            std::fprintf(stderr,
                         "fleet: empty entry in --mix '%s' (want "
                         "NAME:COUNT, e.g. fx:6,phenom:2)\n",
                         arg.c_str());
            std::exit(1);
        }
        const auto colon = token.find(':');
        if (colon == std::string::npos || colon == 0 ||
            colon + 1 >= token.size()) {
            std::fprintf(stderr,
                         "fleet: bad --mix entry '%s' (want NAME:COUNT, "
                         "e.g. fx:6)\n",
                         token.c_str());
            std::exit(1);
        }
        MixEntry entry;
        entry.alias = token.substr(0, colon);
        const Platform *platform = findPlatform(entry.alias);
        if (platform == nullptr) {
            std::fprintf(stderr,
                         "fleet: unknown platform '%s' in --mix (one of "
                         "%s)\n",
                         entry.alias.c_str(), platformNames().c_str());
            std::exit(1);
        }
        entry.cfg = platform->make();
        entry.count =
            parseNumber<std::size_t>("--mix", token.substr(colon + 1));
        if (entry.count == 0) {
            std::fprintf(stderr,
                         "fleet: count must be positive in --mix entry "
                         "'%s'\n",
                         token.c_str());
            std::exit(1);
        }
        out.push_back(std::move(entry));
    }
    return out;
}

std::vector<const workloads::Combination *>
trainingSet(bool quick)
{
    std::vector<const workloads::Combination *> out;
    for (const auto &c : workloads::allCombinations()) {
        if (c.instances.size() == 1 && out.size() < (quick ? 10u : 49u))
            out.push_back(&c);
    }
    if (!quick) {
        for (const auto &c : workloads::allCombinations())
            if (c.instances.size() >= 3 && out.size() < 70)
                out.push_back(&c);
    }
    return out;
}

int
cmdList()
{
    util::Table t("Available benchmarks (SPEC CPU2006 / PARSEC / NPB, "
                  "synthetic):");
    t.setHeader({"name", "suite", "instructions (G)"});
    for (const auto &p : workloads::Suite::all()) {
        t.addRow({p.name, workloads::suiteLabel(p.suite),
                  util::Table::num(p.totalInstructions() / 1e9, 1)});
    }
    t.print(std::cout);
    return 0;
}

int
cmdTrain(const Options &opt)
{
    if (opt.out_path.empty()) {
        std::fprintf(stderr, "train: --out FILE is required\n");
        return 1;
    }
    const auto cfg = platformOf(opt.platform);
    std::printf("training on %s (seed %llu)...\n", cfg.name.c_str(),
                static_cast<unsigned long long>(opt.seed));
    model::Trainer trainer(cfg, opt.seed);
    // The set a `ppep fleet` session on this platform trains on.
    const auto models = trainer.trainAll(workloads::fittingCombinations(
        trainingSet(opt.quick), cfg.coreCount()));
    model::saveModels(models, opt.out_path);
    std::printf("alpha = %.3f\n", models.alpha);
    std::printf("models written to %s\n", opt.out_path.c_str());
    return 0;
}

/** Measure one interval of the requested workload at the top VF. */
trace::IntervalRecord
measure(const sim::ChipConfig &cfg, const Options &opt)
{
    if (!workloads::Suite::exists(opt.benchmark)) {
        std::fprintf(stderr, "unknown benchmark '%s' (try `ppep list`)\n",
                     opt.benchmark.c_str());
        std::exit(1);
    }
    // PG stays off: Ppep::explore prices the active-idle chip (Eq. 2),
    // so the measurement context must match.
    sim::Chip chip(cfg, opt.seed + 1);
    workloads::launch(chip,
                      workloads::replicate(opt.benchmark, opt.copies),
                      true);
    trace::Collector col(chip);
    col.collect(3);
    return col.collectInterval();
}

int
cmdPredict(const Options &opt)
{
    if (opt.models_path.empty()) {
        std::fprintf(stderr, "predict: --models FILE is required\n");
        return 1;
    }
    const auto cfg = platformOf(opt.platform);
    const auto models = model::loadModels(opt.models_path, cfg);
    const model::Ppep ppep(cfg, models.chip, models.pg);

    const auto rec = measure(cfg, opt);
    std::printf("measured %s x%zu at %s: %.1f W (sensor), %.1f K\n",
                opt.benchmark.c_str(), opt.copies,
                cfg.vf_table.name(cfg.vf_table.top()).c_str(),
                rec.sensor_power_w, rec.diode_temp_k);

    util::Table t("\nPPEP predictions:");
    t.setHeader({"VF", "V", "GHz", "power (W)", "GIPS",
                 "energy/inst (nJ)"});
    for (const auto &p : ppep.explore(rec)) {
        const auto &vf = cfg.vf_table.state(p.vf_index);
        t.addRow({cfg.vf_table.name(p.vf_index),
                  util::Table::num(vf.voltage, 3),
                  util::Table::num(vf.freq_ghz, 1),
                  util::Table::num(p.chip_power_w, 1),
                  util::Table::num(p.total_ips / 1e9, 2),
                  util::Table::num(p.energy_per_inst * 1e9, 2)});
    }
    t.print(std::cout);
    return 0;
}

int
cmdExplore(const Options &opt)
{
    if (opt.models_path.empty()) {
        std::fprintf(stderr, "explore: --models FILE is required\n");
        return 1;
    }
    const auto cfg = platformOf(opt.platform);
    if (!cfg.pg_supported) {
        std::fprintf(stderr,
                     "explore needs a power-gating platform (fx8320)\n");
        return 1;
    }
    const auto models = model::loadModels(opt.models_path, cfg);
    const model::Ppep ppep(cfg, models.chip, models.pg);
    const governor::EnergyExplorer explorer(cfg, ppep, opt.seed + 2);

    const auto points =
        explorer.explore(opt.benchmark, opt.copies, opt.nb_whatif);
    util::Table t("Per-thread operating space, " + opt.benchmark + " x" +
                  std::to_string(opt.copies) + ":");
    t.setHeader({"core VF", "NB", "time (s)", "energy (J)",
                 "core (J)", "NB (J)", "EDP (J*s)"});
    for (auto it = points.rbegin(); it != points.rend(); ++it) {
        t.addRow({cfg.vf_table.name(it->vf_index),
                  it->nb_low ? "lo" : "hi",
                  util::Table::num(it->time_s, 2),
                  util::Table::num(it->energy_j, 1),
                  util::Table::num(it->core_energy_j, 1),
                  util::Table::num(it->nb_energy_j, 1),
                  util::Table::num(it->edp, 1)});
    }
    t.print(std::cout);
    if (opt.nb_whatif) {
        const auto s = governor::EnergyExplorer::summarize(points);
        std::printf("\nNB-DVFS what-if: %.1f%% extra energy saving, "
                    "%.2fx speedup at similar energy\n",
                    s.energy_saving * 100.0, s.speedup);
    }
    return 0;
}

int
cmdValidate(const Options &opt)
{
    const auto cfg = platformOf(opt.platform);
    std::vector<const workloads::Combination *> combos;
    for (const auto &c : workloads::allCombinations()) {
        if (cfg.coreCount() < c.instances.size())
            continue;
        if (opt.quick && combos.size() >= 24)
            break;
        combos.push_back(&c);
    }
    std::printf("validating %zu combinations on %s...\n", combos.size(),
                cfg.name.c_str());
    model::Validator validator(cfg, combos, opt.seed, 4);
    validator.prepare(opt.quick ? 60 : 120);
    const auto errors = validator.validateEstimation();
    const auto dyn = model::aggregate(
        errors, [](const model::ComboError &e) { return e.aae_dynamic; });
    const auto chip = model::aggregate(
        errors, [](const model::ComboError &e) { return e.aae_chip; });
    std::printf("dynamic power model AAE: %.1f%% (sd %.1f%%)\n",
                dyn.mean * 100.0, dyn.stddev * 100.0);
    std::printf("chip power model AAE:    %.1f%% (sd %.1f%%)\n",
                chip.mean * 100.0, chip.stddev * 100.0);
    return 0;
}

int
cmdFleet(const Options &opt)
{
    if (opt.fleet_sessions == 0 || opt.intervals == 0) {
        std::fprintf(stderr, "fleet: --fleet and --intervals must be "
                             "positive\n");
        return 1;
    }
    static const std::vector<std::vector<std::string>> mixes = {
        {"429.mcf", "458.sjeng"},
        {"416.gamess", "swaptions"},
        {"EP", "CG"},
        {"458.sjeng", "416.gamess"},
    };

    runtime::FleetSpec spec;
    spec.cfg = platformOf(opt.platform);
    spec.training_seed = opt.seed;
    spec.training_combos = trainingSet(opt.quick);
    spec.store.emplace();
    spec.warmup = 2;
    spec.intervals = opt.intervals;
    if (opt.mix.empty()) {
        for (std::size_t i = 0; i < opt.fleet_sessions; ++i) {
            runtime::FleetSessionSpec ss;
            ss.seed = opt.seed + 100 + i;
            ss.pg = spec.cfg.pg_supported && (i % 2) == 0;
            ss.one_per_cu = mixes[i % mixes.size()];
            spec.sessions.push_back(std::move(ss));
        }
    } else {
        // Heterogeneous fleet: one session per mix unit, each carrying
        // its own ChipConfig; the default platform is ignored and the
        // first mix entry becomes the fleet default.
        const auto entries = parseMix(opt.mix);
        spec.cfg = entries.front().cfg;
        // Number sessions per alias, so an alias listed twice still
        // yields unique session names.
        std::map<std::string, std::size_t> per_alias;
        std::size_t i = 0;
        for (const auto &entry : entries) {
            for (std::size_t k = 0; k < entry.count; ++k, ++i) {
                runtime::FleetSessionSpec ss;
                ss.name = entry.alias + "-" +
                          std::to_string(per_alias[entry.alias]++);
                ss.seed = opt.seed + 100 + i;
                ss.pg = entry.cfg.pg_supported && (i % 2) == 0;
                ss.one_per_cu = mixes[i % mixes.size()];
                ss.cfg = entry.cfg;
                spec.sessions.push_back(std::move(ss));
            }
        }
    }

    if (opt.tenants > 0) {
        // Split the first session's chip between K tenants, one slice
        // of CUs each, with one looping program per tenant. Eqs. 7-8
        // attribution then lands in the session summary.
        auto &first = spec.sessions.front();
        const sim::ChipConfig &cfg = first.cfg ? *first.cfg : spec.cfg;
        if (!cfg.pg_supported) {
            std::fprintf(stderr,
                         "fleet: --tenants needs a power-gating "
                         "platform for the first session ('%s' has "
                         "none); put an fx entry first\n",
                         cfg.name.c_str());
            return 1;
        }
        if (opt.tenants > cfg.n_cus) {
            std::fprintf(stderr,
                         "fleet: --tenants %zu exceeds the %zu CUs of "
                         "'%s'\n",
                         opt.tenants, cfg.n_cus, cfg.name.c_str());
            return 1;
        }
        first.one_per_cu.clear();
        for (std::size_t t = 0; t < opt.tenants; ++t) {
            runtime::TenantSpec ts;
            ts.name = "tenant" + std::to_string(t);
            for (std::size_t cu = t; cu < cfg.n_cus; cu += opt.tenants)
                for (std::size_t c = 0; c < cfg.cores_per_cu; ++c)
                    ts.cores.push_back(cu * cfg.cores_per_cu + c);
            ts.jobs.push_back({ts.cores.front(),
                               mixes[t % mixes.size()].front(), true});
            first.tenants.push_back(std::move(ts));
        }
    }

    if (!opt.faults.empty()) {
        const sim::FaultPlan plan = sim::FaultPlan::parse(opt.faults);
        std::printf("fault plan: %s\n", plan.describe().c_str());
        for (auto &ss : spec.sessions)
            ss.faults = plan;
    }
    spec.record_path = opt.record_path;
    spec.replay_path = opt.replay_path;

    if (opt.budget_w <= 0.0 &&
        (!opt.budget_drop.empty() || !opt.tiers.empty() ||
         !opt.priority_csv.empty() || opt.slo_floor_w > 0.0 ||
         !opt.arbiter_policy.empty())) {
        std::fprintf(stderr, "fleet: --budget-drop/--tiers/--priority/"
                             "--slo-floor/--arbiter require "
                             "--budget W\n");
        return 1;
    }
    if (opt.budget_w > 0.0) {
        runtime::ArbiterSpec aspec;
        std::vector<std::pair<std::size_t, double>> points = {
            {0, opt.budget_w}};
        if (!opt.budget_drop.empty()) {
            const auto at = opt.budget_drop.find('@');
            double drop_w = 0.0;
            std::size_t drop_i = 0;
            if (at != std::string::npos && at > 0 &&
                at + 1 < opt.budget_drop.size()) {
                drop_w = parseNumber<double>(
                    "--budget-drop", opt.budget_drop.substr(0, at));
                drop_i = parseNumber<std::size_t>(
                    "--budget-drop", opt.budget_drop.substr(at + 1));
            }
            if (drop_w <= 0.0 || drop_i == 0 ||
                drop_i >= opt.intervals) {
                std::fprintf(stderr,
                             "fleet: bad --budget-drop '%s' (want "
                             "W@I with W > 0 and 0 < I < "
                             "--intervals)\n",
                             opt.budget_drop.c_str());
                return 1;
            }
            points.push_back({drop_i, drop_w});
        }
        aspec.budget =
            ppep::governor::CapSchedule(std::move(points));
        if (!opt.tiers.empty()) {
            const auto colon = opt.tiers.find(':');
            std::size_t n_tiers = 0;
            if (colon != std::string::npos && colon > 0 &&
                colon + 1 < opt.tiers.size())
                n_tiers = parseNumber<std::size_t>(
                    "--tiers", opt.tiers.substr(colon + 1));
            if (n_tiers == 0 || n_tiers > spec.sessions.size()) {
                std::fprintf(stderr,
                             "fleet: bad --tiers '%s' (want NAME:K "
                             "with 0 < K <= sessions)\n",
                             opt.tiers.c_str());
                return 1;
            }
            const std::string name = opt.tiers.substr(0, colon);
            for (std::size_t t = 0; t < n_tiers; ++t)
                aspec.tiers.push_back(
                    {name + std::to_string(t),
                     opt.budget_w / static_cast<double>(n_tiers)});
        }
        if (!opt.arbiter_policy.empty() &&
            opt.arbiter_policy != "single-pass" &&
            opt.arbiter_policy != "iterative") {
            std::fprintf(stderr,
                         "fleet: unknown --arbiter '%s' (single-pass "
                         "or iterative)\n",
                         opt.arbiter_policy.c_str());
            return 1;
        }
        aspec.iterative = opt.arbiter_policy == "iterative";
        spec.arbiter = std::move(aspec);
        if (!opt.priority_csv.empty()) {
            std::vector<double> prio;
            std::size_t pos = 0;
            while (pos <= opt.priority_csv.size()) {
                const auto comma = opt.priority_csv.find(',', pos);
                const std::string tok = opt.priority_csv.substr(
                    pos, comma == std::string::npos
                             ? std::string::npos
                             : comma - pos);
                pos = comma == std::string::npos
                          ? opt.priority_csv.size() + 1
                          : comma + 1;
                if (tok.empty()) {
                    std::fprintf(stderr,
                                 "fleet: empty entry in --priority "
                                 "'%s'\n",
                                 opt.priority_csv.c_str());
                    return 1;
                }
                const double p = parseNumber<double>("--priority", tok);
                if (p < 0.0) {
                    std::fprintf(stderr,
                                 "fleet: --priority weights must be "
                                 ">= 0 (got %s)\n",
                                 tok.c_str());
                    return 1;
                }
                prio.push_back(p);
            }
            for (std::size_t i = 0; i < spec.sessions.size(); ++i)
                spec.sessions[i].priority = prio[i % prio.size()];
        }
        if (opt.slo_floor_w > 0.0)
            for (auto &ss : spec.sessions)
                ss.slo_floor_w = opt.slo_floor_w;
    }

    const std::size_t n_sessions = spec.sessions.size();
    runtime::Fleet fleet(std::move(spec));
    std::printf("training/loading models (seed %llu)...\n",
                static_cast<unsigned long long>(opt.seed));
    fleet.prepare();
    std::printf("%zu model entr%s for %zu sessions\n",
                fleet.modelEntryCount(),
                fleet.modelEntryCount() == 1 ? "y" : "ies", n_sessions);
    if (!opt.replay_path.empty())
        std::printf("replaying %zu sessions x %zu intervals from "
                    "'%s' (zero simulation)...\n",
                    n_sessions, opt.intervals,
                    opt.replay_path.c_str());
    else
        std::printf("running %zu sessions x %zu intervals on %zu "
                    "thread(s)...\n",
                    n_sessions, opt.intervals, opt.threads);
    const auto res = fleet.run(opt.threads);

    util::Table t("\nFleet sessions:");
    t.setHeader({"session", "seed", "intervals", "mean W", "energy J",
                 "digest"});
    for (const auto &s : res.sessions) {
        char digest[32];
        std::snprintf(digest, sizeof(digest), "%016llx",
                      static_cast<unsigned long long>(
                          s.telemetry_digest));
        t.addRow({s.name, std::to_string(s.seed),
                  s.completed ? std::to_string(s.intervals)
                              : ("FAILED: " + s.error),
                  util::Table::num(s.summary.mean_power_w, 1),
                  util::Table::num(s.summary.energy_j, 1), digest});
    }
    t.print(std::cout);
    for (const auto &s : res.sessions) {
        if (!s.completed || s.summary.tenant_names.empty())
            continue;
        std::printf("\nsession %s tenants:\n", s.name.c_str());
        for (std::size_t i = 0; i < s.summary.tenant_names.size();
             ++i) {
            std::printf("  %-10s %8.1f J  mean %6.2f W",
                        s.summary.tenant_names[i].c_str(),
                        s.summary.tenant_energy_j[i],
                        s.summary.tenant_mean_power_w[i]);
            if (i < s.tenant_throttled_w.size())
                std::printf("  throttled %5.2f W",
                            s.tenant_throttled_w[i]);
            std::printf("\n");
        }
        std::printf("  %-10s %8.1f J\n", "unowned",
                    s.summary.unattributed_energy_j);
    }
    if (res.arbiter.active) {
        const auto &ar = res.arbiter;
        std::printf("\narbitration (%s): final budget %.1f W, mean "
                    "headroom %.1f W, mean decide %.1f us\n",
                    ar.policy.c_str(), ar.final_budget_w,
                    ar.mean_headroom_w, ar.mean_decide_s * 1e6);
        std::printf("  violations %zu/%zu interval(s), infeasible "
                    "%zu, cap-sum self-check failures %zu\n",
                    ar.violation_intervals, ar.intervals,
                    ar.infeasible_intervals, ar.cap_sum_violations);
        if (ar.budget_drops > 0)
            std::printf("  %zu budget drop(s), re-settled in %.1f "
                        "interval(s) mean (max %zu)\n",
                        ar.budget_drops, ar.mean_settle_intervals,
                        ar.max_settle_intervals);
        util::Table at("\nPer-session allocation:");
        at.setHeader(
            {"session", "priority", "mean cap W", "final cap W",
             "throttled W"});
        const auto &sessions = fleet.spec().sessions;
        for (std::size_t i = 0; i < res.sessions.size(); ++i) {
            const auto &s = res.sessions[i];
            const bool capped =
                s.final_cap_w < 0.5 * std::numeric_limits<double>::max();
            at.addRow({s.name,
                       util::Table::num(sessions[i].priority, 2),
                       capped ? util::Table::num(s.mean_cap_w, 1)
                              : "uncapped",
                       capped ? util::Table::num(s.final_cap_w, 1)
                              : "uncapped",
                       util::Table::num(s.mean_throttled_w, 2)});
        }
        at.print(std::cout);
    }
    if (!opt.faults.empty()) {
        // Read the MAE with its denominator: it is taken over the
        // intervals that carried a prediction, and degraded intervals
        // carry none.
        std::printf("\nhealth:\n");
        for (const auto &s : res.sessions) {
            if (!s.completed)
                continue;
            std::printf("  %-10s divergence EWMA %.2f W, power MAE "
                        "%.3f W over %zu predicted intervals, %zu "
                        "degraded\n",
                        s.name.c_str(), s.summary.final_divergence_ewma_w,
                        s.summary.power_mae_w,
                        s.summary.predicted_intervals,
                        s.summary.degraded_intervals);
        }
    }
    std::printf("\n%zu/%zu sessions completed in %.3f s "
                "(%.2f sessions/s, %.1f intervals/s)\n",
                res.completed, res.sessions.size(), res.wall_s,
                res.sessions_per_s, res.intervals_per_s);
    std::printf("fleet mean power %.1f W, total energy %.1f J\n",
                res.mean_power_w, res.energy_j);
    if (!opt.record_path.empty())
        std::printf("recorded %zu stream(s) to '%s'; replay with "
                    "the same fleet options plus --replay\n",
                    res.completed, opt.record_path.c_str());
    if (!opt.replay_path.empty())
        std::printf("replay digests above are bit-comparable to the "
                    "recording run's (same table, same values when "
                    "the replay is faithful)\n");
    return res.failed == 0 ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    const Options opt = parse(argc, argv);
    if (opt.command == "list")
        return cmdList();
    if (opt.command == "train")
        return cmdTrain(opt);
    if (opt.command == "predict")
        return cmdPredict(opt);
    if (opt.command == "explore")
        return cmdExplore(opt);
    if (opt.command == "validate")
        return cmdValidate(opt);
    if (opt.command == "fleet")
        return cmdFleet(opt);
    std::fprintf(stderr, "unknown command '%s'\n", opt.command.c_str());
    usage(1);
}
