/**
 * @file
 * Benchmark program: runs one workload for a fixed time budget, checks
 * every operation's output, and prints the metrics as one JSON object
 * on the last line of standard output.
 *
 *   dramscope_perfbench --workload <name> --seed <n> --seconds <s>
 *                       --trace <0|1> [--reference <file>]
 *                       [--spans <file>] [--git-sha <sha>]
 *                       [--src-hash <hash>] [--emit-reference]
 *
 * --trace 0 reports the end-to-end metrics of untraced rounds.
 * --trace 1 spends half the budget on untraced rounds and half on
 * traced ones, reports the per-layer metrics of the traced rounds,
 * their overhead against the untraced ones, and writes the spans.
 * Usually launched through run.py, which builds the binary first.
 */

#include <malloc.h>
#include <sched.h>
#include <sys/resource.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <climits>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <mutex>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "workloads.h"

using namespace perfbench;

namespace {

/** Seed whose digests are committed in reference_digests.txt. */
constexpr uint64_t kDefaultSeed = 1;

/** Environment knobs of the library that would change what runs. */
const char *const kLibraryEnv[] = {
    "DRAMSCOPE_FASTPATH", "DRAMSCOPE_LINT", "DRAMSCOPE_JOBS",
    "DRAMSCOPE_BENCH_SCALE", "DRAMSCOPE_CSV_DIR",
};

struct Args
{
    std::string workload;
    uint64_t seed = kDefaultSeed;
    double seconds = 10.0;
    bool trace = false;
    std::string reference;
    std::string spans;
    std::string gitSha = "unknown";
    std::string srcHash = "unknown";
    bool emitReference = false;
};

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr, "dramscope_perfbench: %s\n", why);
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        const std::string key = argv[i];
        if (key == "--emit-reference") {
            a.emitReference = true;
            continue;
        }
        if (i + 1 >= argc)
            usage(("missing value for " + key).c_str());
        const std::string val = argv[++i];
        char *end = nullptr;
        if (key == "--workload") {
            a.workload = val;
        } else if (key == "--seed") {
            a.seed = std::strtoull(val.c_str(), &end, 10);
        } else if (key == "--seconds") {
            a.seconds = std::strtod(val.c_str(), &end);
        } else if (key == "--trace") {
            a.trace = std::strtoul(val.c_str(), &end, 10) != 0;
        } else if (key == "--reference") {
            a.reference = val;
        } else if (key == "--spans") {
            a.spans = val;
        } else if (key == "--git-sha") {
            a.gitSha = val;
        } else if (key == "--src-hash") {
            a.srcHash = val;
        } else {
            usage(("unknown flag " + key).c_str());
        }
        if (end != nullptr && (*end != '\0' || end == val.c_str()))
            usage(("malformed number for " + key).c_str());
    }
    if (a.workload.empty())
        usage("--workload is required");
    if (!(a.seconds > 0.0))
        usage("--seconds must be positive");
    return a;
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/**
 * Runs rounds until the next one would overrun @p budget seconds (at
 * least @p min_rounds).  The run's first round is untraced and runs
 * the workload's one-off checks.
 */
std::vector<RoundResult>
runRounds(const WorkloadDef &wl, const Settings &settings, bool traced,
          double budget, size_t min_rounds)
{
    using Clock = std::chrono::steady_clock;
    const auto start = Clock::now();
    std::vector<RoundResult> out;
    double longest = 0.0;
    for (;;) {
        const auto t0 = Clock::now();
        {
            Round round(traced, !traced && out.empty());
            wl.run(settings, round);
            out.push_back(std::move(round.result()));
        }
        const auto t1 = Clock::now();
        longest = std::max(longest,
                           std::chrono::duration<double>(t1 - t0).count());
        const double elapsed =
            std::chrono::duration<double>(t1 - start).count();
        if (out.size() >= min_rounds && elapsed + longest > budget)
            break;
    }
    return out;
}

/** Reference digests: "<workload> <op> <hex>" and sim lines. */
struct Reference
{
    std::map<std::string, std::string> entries;  //!< "<op>" -> value.
    bool found = false;
};

Reference
loadReference(const std::string &path, const std::string &workload)
{
    Reference ref;
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream is(line);
        std::string wl, key, value;
        is >> wl >> key;
        std::getline(is, value);
        value.erase(0, value.find_first_not_of(' '));
        if (wl != workload)
            continue;
        ref.entries[key] = value;
        ref.found = true;
    }
    return ref;
}

std::string
hex(uint64_t v)
{
    char buf[24];
    std::snprintf(buf, sizeof(buf), "%016llx", (unsigned long long)v);
    return buf;
}

/**
 * The exact simulated counts, space separated; flip totals print as
 * "-" when @p flips is false (see WorkloadDef::parallelSweep).
 */
std::string
simLine(const SimCounts &s, bool flips)
{
    auto num = [](uint64_t v) { return std::to_string(v); };
    return num(s.cmds) + " " + num(s.acts) + " " +
           (flips ? num(s.disturbFlips) + " " + num(s.retentionFlips)
                  : std::string("- -")) +
           " " + num(s.violations);
}

/** Collects result metrics in output order. */
class Metrics
{
  public:
    void
    set(const std::string &name, double value, const char *unit)
    {
        entries_.push_back({name, value, unit});
    }

    std::string
    json() const
    {
        std::string out = "{";
        char buf[64];
        for (size_t i = 0; i < entries_.size(); ++i) {
            const Entry &e = entries_[i];
            std::snprintf(buf, sizeof(buf), "%.17g",
                          std::isfinite(e.value) ? e.value : 0.0);
            out += (i ? ", \"" : "\"") + e.name + "\": {\"value\": " + buf +
                   ", \"unit\": \"" + e.unit + "\"}";
        }
        return out + "}";
    }

  private:
    struct Entry
    {
        std::string name;
        double value;
        const char *unit;
    };
    std::vector<Entry> entries_;
};

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

/** One per-layer metric value. */
struct LayerValue
{
    std::string name;
    double value;
    const char *unit;
};

/**
 * Per-layer metrics of one traced round, in BENCHMARK.json order
 * (trace.overhead, which needs the untraced rounds, comes last).
 */
std::vector<LayerValue>
layerMetrics(const RoundResult &r)
{
    struct Agg
    {
        double s = 0.0, calls = 0.0, cpuS = 0.0, deviceS = 0.0;
    };
    std::map<std::string, Agg> agg;
    for (const Span &sp : r.spans) {
        if (sp.name.rfind("op:", 0) == 0)
            continue;
        Agg &a = agg[sp.name];
        a.s += sp.seconds();
        a.calls += 1.0;
        a.cpuS += sp.cpuS;
        a.deviceS += double(sp.deviceIncl.totalNs()) * 1e-9;
    }
    auto count = [&](const std::string &key) {
        const auto it = r.counts.find(key);
        return it == r.counts.end() ? 0.0 : it->second;
    };

    std::vector<LayerValue> m;
    auto put = [&](const std::string &name, double value, const char *unit) {
        m.push_back({name, value, unit});
    };
    for (const std::string name : {"mc.workload", "mc.schedule"}) {
        put(name + ".s", agg[name].s, "s");
        put(name + ".calls", agg[name].calls, "count");
    }
    put("mc.schedule.req_per_s",
        ratio(count("mc.requests"), agg["mc.schedule"].s), "1/s");
    put("mc.rowhit_ratio", ratio(count("mc.rowhits"), count("mc.served")),
        "ratio");
    put("mc.mit_cmds", count("mc.mit_cmds"), "count");
    put("mc.max_row_acts", count("mc.max_row_acts"), "count");
    for (const std::string name : {"lint.lint", "lint.certify"}) {
        put(name + ".s", agg[name].s, "s");
        put(name + ".calls", agg[name].calls, "count");
        put(name + ".ns_per_cmd",
            ratio(agg[name].s * 1e9, count(name + ".cmds")), "ns");
    }
    const Agg &run = agg["host.run"];
    put("host.run.s", run.s, "s");
    put("host.run.calls", run.calls, "count");
    put("host.run.cmds", count("host.run.cmds"), "count");
    put("host.run.self_s", run.s - run.deviceS, "s");

    double core_self = 0.0;
    for (const std::string name :
         {"charact.ber", "charact.gate", "charact.pattern", "charact.hcnt",
          "re.adjacency", "re.subarray", "re.aib_check", "re.coupled",
          "re.polarity", "re.retention"}) {
        put(name + ".s", agg[name].s, "s");
        // CPU time, so work spread over sweep workers is comparable
        // with the device time those workers spent.
        core_self += agg[name].cpuS - agg[name].deviceS;
    }
    put("core.self_s", core_self, "s");
    put("sweep.replicas", count("sweep.replicas"), "count");
    double busy_max = 0.0, busy_sum = 0.0;
    for (const double b : r.replicaBusyS) {
        busy_max = std::max(busy_max, b);
        busy_sum += b;
    }
    put("sweep.replica_busy.max_over_mean",
        r.replicaBusyS.empty()
            ? 0.0
            : ratio(busy_max, busy_sum / double(r.replicaBusyS.size())),
        "ratio");

    for (size_t k = 0; k < kCmdKinds; ++k) {
        const std::string p = std::string("device.") + cmdName(Cmd(k));
        const double calls = double(r.device.calls[k]);
        const double s = double(r.device.ns[k]) * 1e-9;
        put(p + ".calls", calls, "count");
        put(p + ".s", s, "s");
        put(p + ".us_per_call", ratio(s * 1e6, calls), "us");
    }
    const double train_acts = double(r.device.trainActs);
    put("device.actMany.acts", train_acts, "count");
    put("device.train_act_share",
        ratio(train_acts,
              train_acts + double(r.device.calls[size_t(Cmd::Act)])),
        "ratio");
    put("device.busy_share", ratio(double(r.device.totalNs()) * 1e-9, r.cpuS),
        "ratio");

    put("sim.cmds", double(r.sim.cmds), "count");
    put("sim.acts", double(r.sim.acts), "count");
    put("sim.disturb_flips", double(r.sim.disturbFlips), "count");
    put("sim.retention_flips", double(r.sim.retentionFlips), "count");
    put("sim.violations", double(r.sim.violations), "count");
    return m;
}

unsigned
cpuCount()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) == 0)
        return unsigned(CPU_COUNT(&set));
    return 0;
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return double(ru.ru_maxrss) / 1024.0;
}

/**
 * Moves the constructing thread to the next allowed CPU every 50 ms
 * until destroyed, then restores its affinity.  On a shared host each
 * CPU's speed drifts with its neighbours' load for tens of seconds at
 * a time; a single-threaded run that stayed on one CPU would measure
 * that CPU's current load.  Rotating samples every CPU evenly.  A
 * migration costs an L2 refill, well under 0.1% of the period.
 */
class CpuRotation
{
  public:
    CpuRotation() : tid_(pid_t(syscall(SYS_gettid)))
    {
        CPU_ZERO(&original_);
        if (sched_getaffinity(tid_, sizeof(original_), &original_) != 0)
            return;
        for (int c = 0; c < CPU_SETSIZE; ++c) {
            if (CPU_ISSET(c, &original_))
                cpus_.push_back(c);
        }
        if (cpus_.size() > 1)
            thread_ = std::thread([this] { loop(); });
    }

    ~CpuRotation()
    {
        {
            std::lock_guard<std::mutex> lock(mu_);
            stop_ = true;
        }
        cv_.notify_all();
        if (thread_.joinable())
            thread_.join();
        sched_setaffinity(tid_, sizeof(original_), &original_);
    }

    CpuRotation(const CpuRotation &) = delete;
    CpuRotation &operator=(const CpuRotation &) = delete;

  private:
    void
    loop()
    {
        std::unique_lock<std::mutex> lock(mu_);
        for (size_t k = 0;; ++k) {
            cpu_set_t one;
            CPU_ZERO(&one);
            CPU_SET(cpus_[k % cpus_.size()], &one);
            sched_setaffinity(tid_, sizeof(one), &one);
            if (cv_.wait_for(lock, std::chrono::milliseconds(50),
                             [this] { return stop_; }))
                return;
        }
    }

    pid_t tid_;
    cpu_set_t original_;
    std::vector<int> cpus_;
    std::mutex mu_;
    std::condition_variable cv_;
    bool stop_ = false;
    std::thread thread_;
};

} // namespace

int
main(int argc, char **argv)
{
    // Pin the library's environment knobs: fast-path mode and job
    // counts are set explicitly below, never inherited.
    for (const char *name : kLibraryEnv)
        unsetenv(name);
    // Keep freed memory in the heap.  With glibc's adaptive defaults,
    // whether a round re-faults its pages depends on the allocation
    // history (re_scan set-up: 0.3 ms or 5 ms, run to run).
    mallopt(M_MMAP_THRESHOLD, 32 << 20);
    mallopt(M_TRIM_THRESHOLD, INT_MAX);

    const Args args = parseArgs(argc, argv);
    const WorkloadDef *wl = nullptr;
    for (const WorkloadDef &w : workloads()) {
        if (args.workload == w.name)
            wl = &w;
    }
    if (!wl)
        usage(("unknown workload " + args.workload).c_str());
    const Settings settings{args.seed};

    std::vector<RoundResult> rounds;
    size_t untraced_rounds = 0;
    {
        // Sweep workers span every CPU already, and would inherit a
        // single-CPU mask from this thread.
        std::optional<CpuRotation> rotation;
        if (!wl->parallelSweep)
            rotation.emplace();
        // Untraced rounds: the first warms the allocator and caches
        // and runs the one-off checks; it is checked but not timed,
        // so there are at least two.
        const double untraced_budget =
            args.trace ? args.seconds / 2 : args.seconds;
        rounds = runRounds(*wl, settings, false, untraced_budget, 2);
        untraced_rounds = rounds.size();
        if (args.trace) {
            auto traced = runRounds(*wl, settings, true, args.seconds / 2, 1);
            for (auto &r : traced)
                rounds.push_back(std::move(r));
        }
    }

    // Output checks: every operation passed, every round (traced or
    // not) repeated the first one's digests and simulated counts, and
    // the default seed matches the committed reference.
    uint64_t attempted = 0, failed = 0;
    std::vector<std::string> problems;
    const RoundResult &first = rounds.front();
    const bool exact_flips = !wl->parallelSweep;
    for (size_t i = 0; i < rounds.size(); ++i) {
        const RoundResult &r = rounds[i];
        for (size_t k = 0; k < r.ops.size(); ++k) {
            const OpRecord &op = r.ops[k];
            ++attempted;
            if (!op.ok) {
                ++failed;
                problems.push_back(op.name + ": " + op.error);
            } else if (k >= first.ops.size() ||
                       op.digest != first.ops[k].digest) {
                problems.push_back(op.name + ": digest differs in round " +
                                   std::to_string(i));
            }
        }
        const std::string sim = simLine(r.sim, exact_flips);
        if (r.ops.size() != first.ops.size() ||
            sim != simLine(first.sim, exact_flips))
            problems.push_back("round " + std::to_string(i) +
                               ": simulated counts " + sim +
                               " differ from round 0's " +
                               simLine(first.sim, exact_flips));
    }

    if (args.emitReference) {
        for (const OpRecord &op : first.ops)
            std::printf("%s %s %s\n", wl->name, op.name.c_str(),
                        hex(op.digest).c_str());
        std::printf("%s sim %s\n", wl->name,
                    simLine(first.sim, exact_flips).c_str());
    } else if (args.seed == kDefaultSeed && !args.reference.empty()) {
        const Reference ref = loadReference(args.reference, wl->name);
        if (!ref.found)
            problems.push_back("no reference digests for this workload");
        for (const OpRecord &op : first.ops) {
            const auto it = ref.entries.find(op.name);
            if (ref.found &&
                (it == ref.entries.end() || it->second != hex(op.digest)))
                problems.push_back(op.name + ": digest differs from the "
                                             "reference");
        }
        const auto it = ref.entries.find("sim");
        if (ref.found &&
            (it == ref.entries.end() ||
             it->second != simLine(first.sim, exact_flips)))
            problems.push_back("simulated counts differ from the reference");
    }
    for (const std::string &p : problems)
        std::printf("check failed: %s\n", p.c_str());
    const bool correct = problems.empty();

    std::vector<double> wall, setup, traced_wall;
    for (size_t i = 1; i < rounds.size(); ++i) {
        if (i < untraced_rounds) {
            wall.push_back(rounds[i].wallS);
            setup.push_back(rounds[i].setupS);
        } else {
            traced_wall.push_back(rounds[i].wallS);
        }
    }
    const double wall_s = median(wall);

    Metrics metrics;
    if (!args.trace) {
        metrics.set("wall_s", wall_s, "s");
        metrics.set("setup_s", median(setup), "s");
        metrics.set("sim_cmds_per_s", ratio(double(first.sim.cmds), wall_s),
                    "1/s");
        metrics.set("peak_rss_mb", peakRssMb(), "MB");
    } else {
        // Median of every per-layer value over the traced rounds.
        std::vector<std::vector<LayerValue>> per_round;
        for (size_t i = untraced_rounds; i < rounds.size(); ++i)
            per_round.push_back(layerMetrics(rounds[i]));
        for (size_t k = 0; k < per_round.front().size(); ++k) {
            std::vector<double> values;
            for (const auto &round_values : per_round)
                values.push_back(round_values[k].value);
            metrics.set(per_round.front()[k].name, median(values),
                        per_round.front()[k].unit);
        }
        metrics.set("trace.overhead", ratio(median(traced_wall), wall_s),
                    "ratio");
        if (!args.spans.empty()) {
            if (std::FILE *f = std::fopen(args.spans.c_str(), "w")) {
                std::fprintf(f, "{\"workload\":\"%s\",\"seed\":%llu,"
                                "\"rounds\":[",
                             wl->name, (unsigned long long)args.seed);
                for (size_t i = untraced_rounds; i < rounds.size(); ++i) {
                    std::fputs(i > untraced_rounds ? "," : "", f);
                    writeSpansJson(f, rounds[i].spans);
                }
                std::fputs("]}\n", f);
                std::fclose(f);
            } else {
                std::printf("warning: cannot write spans to %s\n",
                            args.spans.c_str());
            }
        }
    }

    std::printf("rounds (wall_s, cpu_s, setup_s, traced):");
    for (size_t i = 0; i < rounds.size(); ++i)
        std::printf(" (%.4f, %.4f, %.6f, %d)", rounds[i].wallS,
                    rounds[i].cpuS, rounds[i].setupS,
                    i >= untraced_rounds ? 1 : 0);
    std::printf("\n");
    std::printf("provenance: {\"git_sha\": \"%s\", \"src_hash\": \"%s\", "
                "\"compiler\": \"%s\", \"flags\": \"%s\", "
                "\"build_type\": \"%s\", \"nproc\": %u, \"seed\": %llu, "
                "\"jobs\": %u, \"workload\": \"%s\", \"trace\": %d, "
                "\"untraced_rounds\": %zu, \"traced_rounds\": %zu, "
                "\"ops_per_round\": %zu}\n",
                args.gitSha.c_str(), args.srcHash.c_str(), PERFBENCH_COMPILER,
                PERFBENCH_FLAGS, PERFBENCH_BUILD_TYPE, cpuCount(),
                (unsigned long long)args.seed,
                wl->parallelSweep ? kSweepJobs : 1u, wl->name,
                args.trace ? 1 : 0, untraced_rounds,
                rounds.size() - untraced_rounds, first.ops.size());
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": %s}\n",
                correct ? "true" : "false", (unsigned long long)attempted,
                (unsigned long long)failed, metrics.json().c_str());
    return 0;
}
