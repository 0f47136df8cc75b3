/**
 * @file
 * lpobench — the outside-in benchmark of the lpo library.
 *
 *   lpobench --workload <module_cold|module_warm|serve_mixed>
 *            --seed N --seconds S --trace 0|1 [--work-dir DIR]
 *
 * Each workload is a closed loop driven from this one process with at
 * most four threads: the pipeline is pinned at two worker threads, so
 * the client (and for serve_mixed the server loop) keep the other two
 * of a four-core host. Inputs are a pure function of --seed; the
 * program only ever sees the generated modules.
 *
 *   module_cold  a seed-drawn stream of largeModule(., 16, 3) modules,
 *                each optimized by a fresh ModuleOptimizer (hybrid,
 *                two threads, no store, empty cache, verification
 *                ladder stopped at its first tier; see Ladder): the
 *                cost of a first pass over new code, SAT-bound, tail
 *                included.
 *   module_warm  one long-lived ModuleOptimizer whose verify cache was
 *                filled in set-up re-optimizes fresh parses of a fixed
 *                set of largeModule(., 16, 3) modules in seeded order:
 *                the solver is bypassed, so propose, extract, patch and
 *                dce carry the time.
 *   serve_mixed  an in-process serve::Server over a store filled in
 *                set-up answers a seeded request stream: seven in eight
 *                repeat a catalogued module (catalog replay, no SAT),
 *                one in eight asks for a module whose verdicts are
 *                durable but whose rewrites the catalog lacks (LLM and
 *                e-graph legs, new catalog records journaled). The
 *                client keeps two requests outstanding.
 *
 * Every timing in the end-to-end metrics but setup_s is reference
 * time, not wall time: processor time of this process (all threads),
 * which the kernel keeps free of hypervisor steal and run-queue waits,
 * scaled by the host's clock speed as a probe loop measures it (see
 * probeHost). On a shared host, steal and waits moved wall-clock
 * figures by up to half between runs of the same code, and the clock
 * speed moved processor time by 15 %. Wall figures and processor time
 * are printed beside them. Throughput figures are medians over
 * fixed-size chunks of the stream and per-call costs are exact
 * percentiles of this run's own samples, so a rare multi-second SAT
 * query (present at its natural rate) moves one chunk and one sample
 * rather than the whole run. With --trace 1 the timed phase is
 * repeated with a span around every call, and the first modules are
 * then replayed at one thread through the layer calls for the
 * per-layer metrics (see replay.h).
 *
 * The last line of standard output is one JSON object with the keys
 * correct, attempted, failed and metrics. Every correctness and repeat
 * check is named on standard output; a failed check makes the run
 * exit 1 with "correct": false.
 */
#include <malloc.h>
#include <poll.h>
#include <sys/inotify.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/module_opt.h"
#include "corpus/generator.h"
#include "ir/parser.h"
#include "ir/printer.h"
#include "llm/mock_model.h"
#include "llm/model_profile.h"
#include "opt/dce.h"
#include "mca/cost_model.h"
#include "oracle.h"
#include "replay.h"
#include "serve/server.h"
#include "serve/spool.h"
#include "spans.h"
#include "verify/cache.h"
#include "verify/persist.h"

namespace fs = std::filesystem;
using namespace lpo;
using lpobench::Clock;
using lpobench::SpanLog;

namespace {

// ---------------------------------------------------------------------
// Workload shapes. Each constant is part of the benchmark definition;
// changing one changes what every later run measures.
// ---------------------------------------------------------------------

constexpr const char *kModel = "Gemini2.0T";
/** Pipeline worker threads: two of four cores, the rest for clients. */
constexpr unsigned kPipelineThreads = 2;
/** Set-up runs per process; setup_s is their median. */
constexpr unsigned kSetupReps = 3;
/** Random inputs per changed function in the interpreter oracle. */
constexpr unsigned kOracleInputs = 16;
/** Calls of a module workload's memory pass (see memoryPass). */
constexpr unsigned kMemoryCalls = 16;

constexpr unsigned kColdFunctions = 16;
constexpr unsigned kColdBlocks = 3;
/** Pre-generated stream; runs that reach its end wrap around. */
constexpr unsigned kColdStream = 320;
/** Stream prefix whose found/patched/cycles/conflicts are reported. */
constexpr unsigned kColdCounted = 96;
constexpr unsigned kColdChunk = 4;
constexpr unsigned kColdMinCalls = 100;
constexpr unsigned kColdReplay = 12;

constexpr unsigned kWarmModules = 16;
constexpr unsigned kWarmFunctions = 16;
constexpr unsigned kWarmBlocks = 3;
constexpr unsigned kWarmMinCalls = 100;

/** A request module concatenates this many largeModule(., 4, 2)
 *  modules; see runServeMixed. */
constexpr unsigned kServeModulesPerRequest = 8;
constexpr unsigned kServeFunctions = 4;
constexpr unsigned kServeBlocks = 2;
/** Request modules whose rewrites the store's catalog holds. */
constexpr unsigned kServeCatalogued = 3;
/** Request modules with durable verdicts but no catalog entry. */
constexpr unsigned kServeUncatalogued = 1;
/** One uncatalogued request at a seeded slot of every block of this
 *  many; the rest repeat catalogued modules. */
constexpr unsigned kServeNovelEvery = 8;
constexpr unsigned kServeMaxRequests = 60000;
constexpr unsigned kServeOutstanding = 2;
constexpr unsigned kServeChunk = 50;
constexpr unsigned kServeMinRequests = 500;
constexpr unsigned kServeCounted = 500;
constexpr unsigned kServeReplay = 16;
constexpr unsigned kServePollMs = 1;

/** Layer self times must cover the replay wall to within this share. */
constexpr double kAccountingTolerance = 0.10;

/** Stream salts: each input family draws from its own sequence. */
enum Stream : uint64_t { kColdSalt = 1, kWarmOrderSalt, kSlotSalt,
                         kUncataloguedSalt, kCataloguedSalt, kOracleSalt };

// ---------------------------------------------------------------------
// Small utilities
// ---------------------------------------------------------------------

uint64_t
splitmix64(uint64_t x)
{
    x += 0x9E3779B97F4A7C15ull;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
    return x ^ (x >> 31);
}

uint64_t
drawSeed(uint64_t run_seed, Stream stream, uint64_t index)
{
    return splitmix64(splitmix64(run_seed * 0x100000001B3ull + stream) +
                      index);
}

uint64_t
fnv1a(const std::string &bytes, uint64_t hash = 1469598103934665603ull)
{
    for (unsigned char c : bytes) {
        hash ^= c;
        hash *= 1099511628211ull;
    }
    return hash;
}

std::string
hex(uint64_t value)
{
    char buf[24];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(value));
    return buf;
}

double
msBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double, std::milli>(b - a).count();
}

/**
 * Processor seconds this process has used, summed over its threads.
 * On a kernel with paravirtual steal accounting this leaves out the
 * time the hypervisor ran other guests, and it never includes waiting
 * for a core, a lock or the disk.
 */
double
cpuSeconds()
{
    struct timespec ts;
    ::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return double(ts.tv_sec) + double(ts.tv_nsec) * 1e-9;
}

double
threadCpuSeconds()
{
    struct timespec ts;
    ::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return double(ts.tv_sec) + double(ts.tv_nsec) * 1e-9;
}

/** Iterations per processor second of probeHost()'s loop that define
 *  reference speed: a round figure inside the 471-657 M/s the loop ran
 *  at on the 4-vCPU VM it was set on. Fixed: changing it rescales every
 *  reference-time metric. */
constexpr double kReferenceRate = 5.5e8;

/** One host speed probe. */
struct Probe
{
    double speed = 1; ///< host speed over reference speed
    double cpu_s = 0; ///< processor time the probe itself used
};

/**
 * Measures how fast the host's processor runs right now: a fixed chain
 * of dependent multiply-adds, owned by the benchmark and independent of
 * the library, timed in this thread's processor time. The host's clock
 * rate is not steady: on the 4-vCPU VM this benchmark was set on, the
 * loop's rate moved between 471 and 657 million iterations per
 * processor second from one second to the next, and processor time
 * per unit of work moved by 15 % between runs with it. Processor time
 * times the run's median speed is reference time: about the time the
 * same work takes on a processor that runs the loop at kReferenceRate.
 */
Probe
probeHost()
{
    constexpr uint64_t kIterations = 2'000'000;
    double start = threadCpuSeconds();
    uint64_t x = 1;
    for (uint64_t i = 0; i < kIterations; ++i) {
        x = x * 6364136223846793005ull + 1442695040888963407ull;
        asm volatile("" : "+r"(x)); // keep every step of the chain
    }
    Probe probe;
    probe.cpu_s = threadCpuSeconds() - start;
    probe.speed = kIterations / probe.cpu_s / kReferenceRate;
    return probe;
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** Exact nearest-rank percentiles of one run's own samples. */
struct Percentiles
{
    size_t n = 0;
    double p50 = 0, p90 = 0, p99 = 0, min = 0, max = 0;
    size_t beyond_p90 = 0, beyond_p99 = 0;
};

Percentiles
percentiles(std::vector<double> v)
{
    Percentiles p;
    p.n = v.size();
    if (v.empty())
        return p;
    std::sort(v.begin(), v.end());
    auto rank = [&](double q) {
        size_t r = static_cast<size_t>(std::ceil(q * v.size()));
        return std::max<size_t>(r, 1);
    };
    p.p50 = v[rank(0.50) - 1];
    p.p90 = v[rank(0.90) - 1];
    p.p99 = v[rank(0.99) - 1];
    p.beyond_p90 = v.size() - rank(0.90);
    p.beyond_p99 = v.size() - rank(0.99);
    p.min = v.front();
    p.max = v.back();
    return p;
}

std::string
generateModule(uint64_t seed, unsigned functions, unsigned blocks)
{
    ir::Context context;
    corpus::CorpusGenerator generator(context);
    return ir::printModule(
        *generator.largeModule(seed, functions, blocks));
}

bool
readFile(const std::string &path, std::string *out)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return false;
    std::ostringstream bytes;
    bytes << in.rdbuf();
    *out = bytes.str();
    return static_cast<bool>(in) || in.eof();
}

/**
 * Peak resident set of this process since the last restartPeakRss(),
 * or since it started, from VmHWM. getrusage's ru_maxrss is not used:
 * it cannot be reset, and Linux carries it across execve, so it would
 * report the launching process's peak whenever that was larger.
 */
double
peakRssMb()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line))
        if (line.compare(0, 6, "VmHWM:") == 0)
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    return 0.0;
}

/**
 * Returns freed heap to the system, then restarts VmHWM from the
 * resident set that is left.
 */
void
restartPeakRss()
{
    ::malloc_trim(0);
    std::ofstream("/proc/self/clear_refs") << "5";
}

/**
 * Host CPU counters from /proc/stat, to report how much time the
 * hypervisor took away (steal) while a phase was timed. Printed only:
 * wall-clock metrics include it, and on a shared host it is the main
 * reason two runs of one seed differ.
 */
std::vector<uint64_t>
hostCpuTicks()
{
    std::ifstream stat("/proc/stat");
    std::string cpu;
    stat >> cpu;
    std::vector<uint64_t> ticks;
    uint64_t value = 0;
    while (stat >> value && ticks.size() < 8)
        ticks.push_back(value);
    return ticks;
}

void
printSteal(const std::vector<uint64_t> &before)
{
    std::vector<uint64_t> after = hostCpuTicks();
    if (before.size() < 8 || after.size() < 8)
        return;
    uint64_t total = 0;
    for (size_t i = 0; i < 8; ++i)
        total += after[i] - before[i];
    if (total)
        std::printf("host: steal %.1f%% of CPU time during the timed "
                    "phase\n",
                    100.0 * double(after[7] - before[7]) / double(total));
}

// ---------------------------------------------------------------------
// Checks and the result report
// ---------------------------------------------------------------------

class Checks
{
  public:
    void expect(bool ok, const std::string &name,
                const std::string &detail = "")
    {
        Entry &entry = entries_[name];
        ++entry.runs;
        if (!ok && entry.first_failure.empty())
            entry.first_failure = detail.empty() ? "failed" : detail;
        if (!ok)
            ++entry.failures;
    }

    bool allPassed() const
    {
        for (const auto &[name, entry] : entries_)
            if (entry.failures)
                return false;
        return true;
    }

    void print() const
    {
        for (const auto &[name, entry] : entries_) {
            if (entry.failures)
                std::printf("check %-24s FAILED (%llu of %llu): %s\n",
                            name.c_str(),
                            (unsigned long long)entry.failures,
                            (unsigned long long)entry.runs,
                            entry.first_failure.c_str());
            else
                std::printf("check %-24s ok (%llu)\n", name.c_str(),
                            (unsigned long long)entry.runs);
        }
    }

    void printFailuresToStderr() const
    {
        for (const auto &[name, entry] : entries_)
            if (entry.failures)
                std::fprintf(stderr, "lpobench: check %s failed: %s\n",
                             name.c_str(), entry.first_failure.c_str());
    }

  private:
    struct Entry
    {
        uint64_t runs = 0;
        uint64_t failures = 0;
        std::string first_failure;
    };
    std::map<std::string, Entry> entries_;
};

struct Metric
{
    std::string name;
    double value = 0;
    std::string unit;
    bool integer = false;
    std::string note;
};

class Report
{
  public:
    void add(std::vector<Metric> *list, const std::string &name,
             double value, const std::string &unit,
             const std::string &note = "")
    {
        list->push_back({name, value, unit, false, note});
    }
    void addCount(std::vector<Metric> *list, const std::string &name,
                  uint64_t value, const std::string &unit = "count",
                  const std::string &note = "")
    {
        list->push_back(
            {name, static_cast<double>(value), unit, true, note});
    }

    std::vector<Metric> end_to_end;
    std::vector<Metric> per_layer;
    uint64_t attempted = 0;
    uint64_t failed = 0;
};

std::string
formatValue(const Metric &metric)
{
    char buf[64];
    if (metric.integer)
        std::snprintf(buf, sizeof buf, "%llu",
                      static_cast<unsigned long long>(metric.value));
    else if (!std::isfinite(metric.value))
        std::snprintf(buf, sizeof buf, "0");
    else
        std::snprintf(buf, sizeof buf, "%.17g", metric.value);
    return buf;
}

void
printMetrics(const char *title, const std::vector<Metric> &metrics)
{
    std::printf("%s:\n", title);
    for (const Metric &metric : metrics)
        std::printf("  %-24s %s %s%s%s\n", metric.name.c_str(),
                    formatValue(metric).c_str(), metric.unit.c_str(),
                    metric.note.empty() ? "" : "  ",
                    metric.note.c_str());
}

void
printResultLine(bool correct, const Report &report, bool trace)
{
    const std::vector<Metric> &metrics =
        trace ? report.per_layer : report.end_to_end;
    std::string line = "{\"correct\": ";
    line += correct ? "true" : "false";
    line += ", \"attempted\": " + std::to_string(report.attempted);
    line += ", \"failed\": " + std::to_string(report.failed);
    line += ", \"metrics\": {";
    for (size_t i = 0; i < metrics.size(); ++i) {
        if (i)
            line += ", ";
        line += "\"" + metrics[i].name + "\": {\"value\": " +
                formatValue(metrics[i]) + ", \"unit\": \"" +
                metrics[i].unit + "\"}";
    }
    line += "}}";
    std::printf("%s\n", line.c_str());
}

// ---------------------------------------------------------------------
// Module calls
// ---------------------------------------------------------------------

/**
 * Which verification ladder an optimizer runs.
 *
 * The module default ladder escalates a query through 50k, 200k and
 * 2M conflicts. Under it about one largeModule(., 4, 2) in a few
 * hundred holds a query that takes 10 s or more at two threads, and
 * some take minutes (106 s for 262k conflicts; 177 s for one 4x3
 * module), which no 180-second run can hold. The module workloads
 * therefore stop at the default's first tier: such a query still
 * costs its full 50k conflicts (the tail stays in, at its natural
 * rate) and then falls back to concrete testing, as the ladder's
 * last tier does. serve::Server exposes no ladder, so serve_mixed and
 * its references run the default (see requestModule).
 */
enum class Ladder { FirstTier, ModuleDefault };

constexpr uint64_t kFirstTierConflicts = 50'000;

core::ModuleOptOptions
moduleOptions(unsigned threads, Ladder ladder)
{
    core::ModuleOptOptions options;
    options.pipeline.proposer = core::ProposerKind::Hybrid;
    options.pipeline.num_threads = threads;
    if (ladder == Ladder::FirstTier)
        options.pipeline.refine.budget_tiers = {kFirstTierConflicts};
    return options;
}

/** Options of the one-thread replay optimizer (dce done by the
 *  benchmark so it can be timed on its own). */
core::ModuleOptOptions
replayOptions(Ladder ladder, const std::string &store_path = "")
{
    core::ModuleOptOptions options = moduleOptions(1, ladder);
    options.pipeline.refine.num_threads = 1;
    options.pipeline.store_path = store_path;
    options.run_dce = false;
    return options;
}

/** What one optimize() call produced. */
struct CallResult
{
    double latency_ms = 0;
    double cpu_ms = 0;
    uint64_t unique = 0;
    uint64_t found = 0;
    uint64_t patched = 0;
    uint64_t conflicts = 0;
    uint64_t attempted = 0;
    uint64_t failed = 0;
    double cycles_before = 0;
    double cycles_after = 0;
    std::string output;
    std::vector<core::CaseStatus> statuses;
    TaskGraphStats sched;
};

TaskGraphStats
schedDelta(const TaskGraphStats &after, const TaskGraphStats &before)
{
    TaskGraphStats d;
    d.tasks_run = after.tasks_run - before.tasks_run;
    d.tasks_cancelled = after.tasks_cancelled - before.tasks_cancelled;
    d.steals = after.steals - before.steals;
    d.steal_attempts = after.steal_attempts - before.steal_attempts;
    d.max_queue_depth = after.max_queue_depth;
    d.idle_ns = after.idle_ns - before.idle_ns;
    return d;
}

CallResult
summarize(const core::ModuleOptResult &result,
          const core::PipelineStats &before)
{
    CallResult call;
    call.unique = result.unique_sequences;
    call.patched = result.patched_rewrites;
    call.cycles_before = result.cycles_before;
    call.cycles_after = result.cycles_after;
    call.conflicts = result.pipeline.sat_conflicts - before.sat_conflicts;
    call.sched = schedDelta(result.pipeline.scheduler, before.scheduler);
    for (const core::CaseOutcome &outcome : result.outcomes) {
        call.statuses.push_back(outcome.status);
        if (outcome.found())
            ++call.found;
        if (outcome.status == core::CaseStatus::Error ||
            outcome.status == core::CaseStatus::Degraded ||
            outcome.status == core::CaseStatus::Skipped)
            ++call.failed;
    }
    call.failed += result.patch_failures + result.invalid_functions;
    call.attempted = result.outcomes.size() + result.patched_rewrites +
                     result.patch_failures;
    return call;
}

/** Parse @p text fresh, optimize it, print the result. */
CallResult
optimizeText(core::ModuleOptimizer &optimizer, const std::string &text)
{
    ir::Context context;
    auto module = ir::parseModule(context, text);
    if (!module.ok()) {
        std::fprintf(stderr, "lpobench: generated module does not parse: %s\n",
                     module.error().toString().c_str());
        std::exit(2);
    }
    core::PipelineStats before = optimizer.pipelineStats();
    auto start = Clock::now();
    double cpu_start = cpuSeconds();
    core::ModuleOptResult result = optimizer.optimize(**module, 1);
    double cpu_end = cpuSeconds();
    auto end = Clock::now();
    CallResult call = summarize(result, before);
    call.latency_ms = msBetween(start, end);
    call.cpu_ms = (cpu_end - cpu_start) * 1e3;
    call.output = ir::printModule(**module);
    return call;
}

bool
sameCounts(const CallResult &a, const CallResult &b)
{
    return a.found == b.found && a.patched == b.patched &&
           a.conflicts == b.conflicts && a.output == b.output &&
           a.statuses == b.statuses;
}

/** A timed closed loop of optimize() calls. */
struct ModulePhase
{
    std::vector<CallResult> calls;
    /** Per chunk: unique sequences and calls per processor second. */
    std::vector<double> chunk_seq_rate;
    std::vector<double> chunk_call_rate;
    /** Per chunk: calls per wall second (printed only). */
    std::vector<double> chunk_wall_rate;
    /** Host speed, probed before each chunk (see probeHost). */
    std::vector<double> speeds;
    double wall_s = 0;
    double cpu_s = 0;
};

/**
 * Run @p call(i) for i = 0, 1, ... until at least @p seconds have
 * passed and @p min_calls calls are done, stopping only at chunk
 * boundaries — or exactly @p fixed_calls calls when nonzero (the
 * traced repeat of an untraced phase).
 */
ModulePhase
runModulePhase(const std::function<CallResult(size_t)> &call, size_t chunk,
               size_t min_calls, double seconds, size_t fixed_calls,
               SpanLog &log)
{
    ModulePhase phase;
    phase.speeds.push_back(probeHost().speed);
    auto start = Clock::now();
    double cpu_start = cpuSeconds();
    auto chunk_start = start;
    double chunk_cpu_start = cpu_start;
    uint64_t chunk_seqs = 0;
    for (size_t i = 0;; ++i) {
        if (fixed_calls ? i == fixed_calls
                        : (i % chunk == 0 && i >= min_calls &&
                           msBetween(start, Clock::now()) >= seconds * 1e3))
            break;
        CallResult result;
        {
            SpanLog::Scope span(log, "optimize", i);
            result = call(i);
        }
        chunk_seqs += result.unique;
        phase.calls.push_back(std::move(result));
        if ((i + 1) % chunk == 0) {
            auto now = Clock::now();
            double cpu_now = cpuSeconds();
            double wall = msBetween(chunk_start, now) / 1e3;
            double cpu = cpu_now - chunk_cpu_start;
            phase.chunk_seq_rate.push_back(chunk_seqs / cpu);
            phase.chunk_call_rate.push_back(chunk / cpu);
            phase.chunk_wall_rate.push_back(chunk / wall);
            phase.speeds.push_back(probeHost().speed);
            chunk_start = Clock::now();
            chunk_cpu_start = cpuSeconds();
            chunk_seqs = 0;
        }
    }
    phase.wall_s = msBetween(start, Clock::now()) / 1e3;
    phase.cpu_s = cpuSeconds() - cpu_start;
    return phase;
}

/** Interpreter + validity oracle over distinct (input, output) pairs. */
void
checkOutputs(Checks &checks, const std::vector<std::string> &inputs,
             const std::vector<std::string> &outputs, uint64_t seed)
{
    for (size_t i = 0; i < inputs.size(); ++i) {
        lpobench::OracleReport report = lpobench::checkAgainstOriginal(
            inputs[i], outputs[i], drawSeed(seed, kOracleSalt, i),
            kOracleInputs);
        checks.expect(report.invalid.empty(), "valid_ir",
                      "module " + std::to_string(i) + ": " + report.invalid);
        checks.expect(report.mismatch.empty(), "interp_oracle",
                      "module " + std::to_string(i) + ": " +
                          report.mismatch);
    }
}

Percentiles
printPercentiles(const char *label, const char *what,
                 const std::vector<double> &samples)
{
    Percentiles p = percentiles(samples);
    std::printf("%s per %s: n=%zu p50=%.4f p90=%.4f p99=%.4f min=%.4f "
                "max=%.4f ms (samples beyond p90: %zu, beyond p99: %zu)\n",
                label, what, p.n, p.p50, p.p90, p.p99, p.min, p.max,
                p.beyond_p90, p.beyond_p99);
    return p;
}

/**
 * ref_p50_ms and ref_p90_ms: the processor time of each call or request
 * at reference speed, i.e. times the run's median host speed @p speed.
 * Processor time and wall-clock latency are printed beside them.
 */
void
addCostMetrics(Report &report, Checks &checks,
               const std::vector<double> &cpu_ms,
               const std::vector<double> &wall_ms, double speed,
               const char *what)
{
    std::vector<double> ref_ms;
    for (double ms : cpu_ms)
        ref_ms.push_back(ms * speed);
    printPercentiles("wall latency", what, wall_ms);
    printPercentiles("processor time", what, cpu_ms);
    Percentiles p = printPercentiles("reference time", what, ref_ms);
    checks.expect(p.beyond_p90 >= 10, "samples_beyond_p90",
                  std::to_string(p.beyond_p90) + " samples beyond p90");
    checks.expect(p.p50 >= p.min && p.p90 <= p.max && p.p99 <= p.max,
                  "percentiles_in_range");
    std::string n = "n=" + std::to_string(p.n);
    report.add(&report.end_to_end, "ref_p50_ms", p.p50, "ref_ms", n);
    report.add(&report.end_to_end, "ref_p90_ms", p.p90, "ref_ms",
               n + ", " + std::to_string(p.beyond_p90) + " beyond");
}

void
printChunkRates(const char *label, const char *calls_what,
                std::vector<double> rates)
{
    std::sort(rates.begin(), rates.end());
    if (!rates.empty())
        std::printf("chunk rates (%s per %s): min %.4g p25 %.4g p50 %.4g "
                    "p75 %.4g max %.4g\n",
                    calls_what, label, rates.front(), rates[rates.size() / 4],
                    rates[rates.size() / 2], rates[rates.size() * 3 / 4],
                    rates.back());
}

/** The run's median host speed (see probeHost), printed with its range. */
double
hostSpeed(std::vector<double> speeds)
{
    std::sort(speeds.begin(), speeds.end());
    std::printf("host speed: %zu probes, min %.3f p50 %.3f max %.3f of "
                "reference\n",
                speeds.size(), speeds.front(), median(speeds), speeds.back());
    return median(speeds);
}

/** seq_per_ref_s and req_per_ref_s: chunk medians per processor second
 *  at reference speed, i.e. divided by the run's host speed. */
void
addThroughputMetrics(Report &report, const std::vector<double> &seq_rates,
                     const std::vector<double> &call_rates,
                     const std::vector<double> &wall_rates, double speed,
                     const char *calls_what)
{
    std::string note = "median of " + std::to_string(seq_rates.size()) +
                       " chunks";
    printChunkRates("wall second", calls_what, wall_rates);
    printChunkRates("processor second", calls_what, call_rates);
    report.add(&report.end_to_end, "seq_per_ref_s",
               median(seq_rates) / speed, "1/ref_s", note);
    report.add(&report.end_to_end, "req_per_ref_s",
               median(call_rates) / speed, "1/ref_s",
               note + " (" + calls_what + ")");
}

/**
 * peak_rss_mb of a module workload, measured in its own pass before the
 * timed phase so the timings are untouched: @p calls calls, each
 * started from a trimmed heap with VmHWM restarted; returns the median
 * of their peaks.
 *
 * The whole run's peak is the one module with the largest SAT query
 * among however many the run reached, so it moved with the seed and
 * the host's speed. Peaks without the trim carried whatever the
 * allocator had kept from earlier calls, which moved from run to run
 * with the arena each new pipeline thread picked (module_warm: 8.8-13.1
 * MB over ten runs of one set).
 */
double
memoryPass(const std::function<CallResult(size_t)> &call, size_t calls)
{
    std::vector<double> peaks;
    for (size_t i = 0; i < calls; ++i) {
        restartPeakRss();
        call(i);
        peaks.push_back(peakRssMb());
    }
    std::vector<double> sorted = peaks;
    std::sort(sorted.begin(), sorted.end());
    std::printf("peak resident set per call: min %.2f p50 %.2f max %.2f "
                "MB\n",
                sorted.front(), median(sorted), sorted.back());
    return median(peaks);
}

void
addOutputMetrics(Report &report, uint64_t found, uint64_t patched,
                 double cycles_before, double cycles_after,
                 const std::string &over)
{
    report.addCount(&report.end_to_end, "found", found, "count", over);
    report.addCount(&report.end_to_end, "patched_rewrites", patched,
                    "count", over);
    report.add(&report.end_to_end, "cycles_saved_pct",
               cycles_before > 0
                   ? 100.0 * (cycles_before - cycles_after) / cycles_before
                   : 0.0,
               "%", over);
}

// ---------------------------------------------------------------------
// The traced replay shared by every workload
// ---------------------------------------------------------------------

/** Everything the per-layer metrics are built from. */
struct LayerInputs
{
    lpobench::ReplayCounts replay;
    core::PipelineStats replay_pipeline; ///< one-thread optimizer deltas
    uint64_t patched = 0;
    uint64_t rollbacks = 0;
    uint64_t dce_removed = 0;
    uint64_t mca_after_calls = 0;
    uint64_t cache_hits = 0;
    uint64_t cache_misses = 0;
    TaskGraphStats sched; ///< traced timed phase, pipeline threads
    uint64_t store_cache_flushed = 0;
    uint64_t store_catalog_flushed = 0;
    uint64_t store_bytes = 0;
    double overhead_pct = 0;
};

void
addPipelineDelta(core::PipelineStats *sum, const core::PipelineStats &after,
                 const core::PipelineStats &before)
{
    sum->sat_solves += after.sat_solves - before.sat_solves;
    sum->sat_conflicts += after.sat_conflicts - before.sat_conflicts;
    sum->sat_propagations +=
        after.sat_propagations - before.sat_propagations;
    sum->sat_escalations += after.sat_escalations - before.sat_escalations;
    sum->degraded_verdicts +=
        after.degraded_verdicts - before.degraded_verdicts;
}

/**
 * The tail of one replayed module: run the real optimize() at one
 * thread with run_dce=false, sweep dead code and re-price from here,
 * print, and compare with the replay's statuses and with the timed
 * run's output for the same module.
 */
void
replayOptimize(SpanLog &log, Checks &checks, LayerInputs &layers,
               core::ModuleOptimizer &optimizer, const std::string &text,
               const std::vector<core::CaseStatus> &replay_statuses,
               const std::string &expected_output, uint64_t id,
               std::string *printed)
{
    ir::Context context;
    std::unique_ptr<ir::Module> module;
    {
        SpanLog::Scope span(log, "serve.parse", id);
        module = ir::parseModule(context, text).take();
    }
    core::PipelineStats before = optimizer.pipelineStats();
    core::ModuleOptResult result;
    {
        SpanLog::Scope span(log, "core.optimize", id);
        result = optimizer.optimize(*module, 1);
    }
    addPipelineDelta(&layers.replay_pipeline, optimizer.pipelineStats(),
                     before);
    layers.patched += result.patched_rewrites;
    layers.rollbacks += result.functions_rolled_back;

    std::vector<core::CaseStatus> statuses;
    for (const core::CaseOutcome &outcome : result.outcomes)
        statuses.push_back(outcome.status);
    checks.expect(statuses == replay_statuses, "replay_statuses",
                  "module " + std::to_string(id) +
                      ": layer replay disagrees with optimize() outcomes");

    std::set<size_t> changed;
    for (const core::PatchRecord &patch : result.patches)
        changed.insert(patch.function_index);
    {
        SpanLog::Scope span(log, "dce", id);
        for (const auto &fn : module->functions())
            layers.dce_removed += opt::removeDeadInstructions(*fn);
    }
    {
        SpanLog::Scope span(log, "mca", id);
        for (size_t index : changed) {
            mca::analyzeFunction(*module->functions()[index]);
            ++layers.mca_after_calls;
        }
    }
    {
        SpanLog::Scope span(log, "serve.print", id);
        *printed = ir::printModule(*module);
    }
    {
        SpanLog::Scope span(log, "serve.flush", id);
        optimizer.flushStore();
    }
    checks.expect(*printed == expected_output, "replay_dce_bytes",
                  "module " + std::to_string(id) +
                      ": run_dce=false + removeDeadInstructions differs "
                      "from run_dce=true");
}

/**
 * Replay one module through the layer calls and then through the real
 * optimize(); the caller opens the enclosing "module" span. Returns
 * the printed result.
 */
std::string
replayModule(SpanLog &log, Checks &checks, LayerInputs &layers,
             lpobench::LayerReplay &replay, verify::VerifyCache *cache,
             core::ModuleOptimizer &optimizer, const std::string &text,
             const std::string &expected_output, uint64_t id)
{
    ir::Context context;
    std::unique_ptr<ir::Module> module;
    {
        SpanLog::Scope span(log, "serve.parse", id);
        module = ir::parseModule(context, text).take();
    }
    verify::VerifyCache::Stats before = cache->stats();
    std::vector<core::CaseStatus> statuses;
    {
        SpanLog::Scope span(log, "replay", id);
        statuses = replay.replayModule(*module, id, cache);
    }
    verify::VerifyCache::Stats after = cache->stats();
    layers.cache_hits += after.hits - before.hits;
    layers.cache_misses += after.misses - before.misses;
    std::string printed;
    replayOptimize(log, checks, layers, optimizer, text, statuses,
                   expected_output, id, &printed);
    return printed;
}

void
addLayerMetrics(Report &report, Checks &checks, const SpanLog &log,
                const LayerInputs &in)
{
    std::map<std::string, double> self = log.selfMsByName();
    std::map<std::string, double> total = log.totalMsByName();
    const lpobench::ReplayCounts &c = in.replay;
    auto ratio = [](double num, double den) {
        return den > 0 ? num / den : 0.0;
    };
    std::vector<Metric> *L = &report.per_layer;

    // Replay accounting: the module spans' own (glue) time is what no
    // layer claims.
    double replay_wall = total["module"];
    double unaccounted = self["module"];
    double unaccounted_pct = 100.0 * ratio(unaccounted, replay_wall);
    std::printf("replay: wall %.3f ms, unaccounted %.3f ms (%.2f%%, "
                "tolerance %.0f%%)\n",
                replay_wall, unaccounted, unaccounted_pct,
                100 * kAccountingTolerance);
    checks.expect(replay_wall > 0 &&
                      unaccounted <= kAccountingTolerance * replay_wall,
                  "layer_accounting",
                  "unaccounted " + std::to_string(unaccounted_pct) + "%");

    std::vector<double> verify_ms = log.durationsMs("verify");
    Percentiles verify_p = percentiles(verify_ms);
    double replayed = total["replay"] - total["verify.encode"];
    double verify_busy_ms = self["verify"] + self["verify.session"];

    report.addCount(L, "extract.calls", c.extract_calls);
    report.add(L, "extract.busy_ms", self["extract"], "ms");
    report.addCount(L, "extract.seq_considered", c.seq_considered);
    report.addCount(L, "extract.seq_unique", c.seq_unique);
    report.addCount(L, "llm.calls", c.llm_calls);
    report.add(L, "llm.busy_ms", self["llm"], "ms");
    report.add(L, "llm.yield", ratio(c.llm_found, c.llm_calls), "ratio");
    report.addCount(L, "egraph.calls", c.egraph_calls);
    report.add(L, "egraph.busy_ms", self["egraph"], "ms");
    report.add(L, "egraph.yield", ratio(c.egraph_found, c.egraph_calls),
               "ratio");
    report.addCount(L, "catalog.calls", c.catalog_calls);
    report.add(L, "catalog.hit_ratio",
               ratio(c.catalog_found, c.catalog_calls), "ratio");
    report.addCount(L, "opt.calls", c.opt_calls);
    report.add(L, "opt.busy_ms", self["opt"], "ms");
    report.addCount(L, "opt.syntax_errors", c.opt_syntax_errors);
    report.add(L, "dce.busy_ms", self["dce"], "ms");
    report.addCount(L, "dce.removed", in.dce_removed);
    report.addCount(L, "gate.calls", c.gate_calls);
    report.addCount(L, "gate.rejects", c.gate_rejects);
    report.addCount(L, "verify.calls", c.verify_calls);
    report.add(L, "verify.busy_ms", verify_busy_ms, "ms");
    report.add(L, "verify.p50_us", verify_p.p50 * 1e3, "us");
    report.add(L, "verify.max_ms", verify_p.max, "ms");
    report.add(L, "verify.cache_hit_ratio",
               ratio(in.cache_hits, in.cache_hits + in.cache_misses),
               "ratio");
    report.add(L, "verify.encode_ms", self["verify.encode"], "ms");
    report.addCount(L, "verify.vars", c.encoded_vars);
    report.addCount(L, "verify.clauses", c.encoded_clauses);
    report.addCount(L, "smt.solves", in.replay_pipeline.sat_solves);
    report.addCount(L, "smt.conflicts", in.replay_pipeline.sat_conflicts);
    report.addCount(L, "smt.conflicts_max", c.case_conflicts_max);
    report.add(L, "smt.props_per_s",
               ratio(c.sat_propagations, verify_busy_ms / 1e3), "1/s");
    report.addCount(L, "smt.escalations", in.replay_pipeline.sat_escalations);
    report.addCount(L, "smt.degraded", in.replay_pipeline.degraded_verdicts);
    report.addCount(L, "mca.calls", c.mca_calls + in.mca_after_calls);
    report.add(L, "mca.busy_ms", self["mca"], "ms");
    report.addCount(L, "core.patched", in.patched);
    report.addCount(L, "core.rollbacks", in.rollbacks);
    report.add(L, "core.other_ms", total["core.optimize"] - replayed, "ms");
    report.addCount(L, "sched.tasks", in.sched.tasks_run);
    report.addCount(L, "sched.steals", in.sched.steals);
    report.add(L, "sched.idle_ms", in.sched.idle_ns / 1e6, "ms");
    report.addCount(L, "sched.max_queue_depth", in.sched.max_queue_depth);
    report.add(L, "serve.claim_ms", self["serve.claim"], "ms");
    report.add(L, "serve.parse_ms", self["serve.parse"], "ms");
    report.add(L, "serve.optimize_ms", total["core.optimize"], "ms");
    report.add(L, "serve.print_ms", self["serve.print"], "ms");
    report.add(L, "serve.respond_ms", self["serve.respond"], "ms");
    report.add(L, "serve.flush_ms", self["serve.flush"], "ms");
    report.addCount(L, "store.cache_flushed", in.store_cache_flushed);
    report.addCount(L, "store.catalog_flushed", in.store_catalog_flushed);
    report.addCount(L, "store.bytes", in.store_bytes, "bytes");
    report.add(L, "replay.wall_ms", replay_wall, "ms");
    report.add(L, "replay.unaccounted_pct", unaccounted_pct, "%");
    report.add(L, "trace.overhead_pct", in.overhead_pct, "%");
}

double
overheadPct(double untraced_s, double traced_s, size_t calls)
{
    double pct = untraced_s > 0 ? 100.0 * (traced_s - untraced_s) / untraced_s
                                : 0.0;
    std::printf("tracing overhead: %zu calls untraced %.4f s, traced %.4f "
                "s (%+.2f%%)\n",
                calls, untraced_s, traced_s, pct);
    return pct;
}

// ---------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------

struct RunOptions
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    std::string work_dir = ".bench_build/work";
    std::string trace_dir = ".bench_build/traces";
};

/**
 * Set-up, repeated kSetupReps times; returns the median processor
 * seconds of one set-up (wall seconds are printed beside them).
 */
double
timedSetup(const std::function<void(unsigned)> &setup)
{
    std::vector<double> cpu, wall;
    for (unsigned rep = 0; rep < kSetupReps; ++rep) {
        auto start = Clock::now();
        double cpu_start = cpuSeconds();
        setup(rep);
        cpu.push_back(cpuSeconds() - cpu_start);
        wall.push_back(msBetween(start, Clock::now()) / 1e3);
    }
    for (const auto &[label, seconds] :
         {std::pair{"processor", &cpu}, std::pair{"wall", &wall}}) {
        std::printf("setup: %u runs, %s median %.4f s (", kSetupReps, label,
                    median(*seconds));
        for (size_t i = 0; i < seconds->size(); ++i)
            std::printf("%s%.4f", i ? " " : "", (*seconds)[i]);
        std::printf(")\n");
    }
    return median(cpu);
}

void
writeTrace(const SpanLog &log, const RunOptions &options)
{
    std::error_code ec;
    fs::create_directories(options.trace_dir, ec);
    std::string path = options.trace_dir + "/" + options.workload +
                       "-seed" + std::to_string(options.seed) + ".json";
    if (log.writeChromeTrace(path))
        std::printf("trace: %zu spans written to %s\n", log.spans().size(),
                    path.c_str());
    else
        std::printf("trace: cannot write %s\n", path.c_str());
}

void
runModuleCold(const RunOptions &options, Report &report, Checks &checks,
              SpanLog &log)
{
    llm::MockModel model(llm::modelByName(kModel), 1);
    std::vector<std::string> stream;
    std::set<uint64_t> digests;
    double setup_s = timedSetup([&](unsigned) {
        stream.clear();
        uint64_t digest = fnv1a("");
        for (unsigned i = 0; i < kColdStream; ++i) {
            stream.push_back(generateModule(
                drawSeed(options.seed, kColdSalt, i), kColdFunctions,
                kColdBlocks));
            digest = fnv1a(stream.back(), digest);
        }
        digests.insert(digest);
    });
    checks.expect(digests.size() == 1, "repeat_inputs",
                  "set-up runs generated different streams");
    std::printf("inputs: %u modules of largeModule(., %u, %u), digest %s\n",
                kColdStream, kColdFunctions, kColdBlocks,
                hex(*digests.begin()).c_str());

    auto coldCall = [&](size_t i) {
        core::ModuleOptimizer optimizer(model,
                                        moduleOptions(kPipelineThreads,
                                                      Ladder::FirstTier));
        return optimizeText(optimizer, stream[i % stream.size()]);
    };
    // Untimed first call: warms the allocator and page cache, and is
    // compared with the timed phase's first call (repeat check).
    CallResult first = coldCall(0);
    double peak_rss_mb = memoryPass(coldCall, kMemoryCalls);

    SpanLog untraced(false);
    std::vector<uint64_t> ticks = hostCpuTicks();
    ModulePhase phase = runModulePhase(coldCall, kColdChunk, kColdMinCalls,
                                       options.seconds, 0, untraced);
    printSteal(ticks);
    checks.expect(sameCounts(first, phase.calls[0]), "repeat_counts",
                  "module 0 optimized twice gave different results");
    for (size_t i = stream.size(); i < phase.calls.size(); ++i)
        checks.expect(sameCounts(phase.calls[i - stream.size()],
                                 phase.calls[i]),
                      "repeat_counts",
                      "module " + std::to_string(i % stream.size()) +
                          " differed on its second pass");

    std::vector<double> cpu_ms, wall_ms;
    uint64_t found = 0, patched = 0, conflicts = 0;
    double before = 0, after = 0;
    for (size_t i = 0; i < phase.calls.size(); ++i) {
        const CallResult &call = phase.calls[i];
        cpu_ms.push_back(call.cpu_ms);
        wall_ms.push_back(call.latency_ms);
        report.attempted += call.attempted;
        report.failed += call.failed;
        if (i < kColdCounted) {
            found += call.found;
            patched += call.patched;
            conflicts += call.conflicts;
            before += call.cycles_before;
            after += call.cycles_after;
        }
    }
    size_t distinct = std::min(phase.calls.size(), stream.size());
    std::vector<std::string> inputs(stream.begin(),
                                    stream.begin() + distinct);
    std::vector<std::string> outputs;
    for (size_t i = 0; i < distinct; ++i)
        outputs.push_back(phase.calls[i].output);
    checkOutputs(checks, inputs, outputs, options.seed);

    std::printf("timed: %zu optimize() calls in %.3f s (%.3f processor "
                "s), %zu chunks of %u\n",
                phase.calls.size(), phase.wall_s, phase.cpu_s,
                phase.chunk_seq_rate.size(), kColdChunk);
    std::printf("repeat key (first %u modules): found=%llu patched=%llu "
                "smt.conflicts=%llu\n",
                kColdCounted, (unsigned long long)found,
                (unsigned long long)patched, (unsigned long long)conflicts);
    report.add(&report.end_to_end, "setup_s", setup_s, "s",
               "processor time, median of " + std::to_string(kSetupReps));
    double speed = hostSpeed(phase.speeds);
    addThroughputMetrics(report, phase.chunk_seq_rate,
                         phase.chunk_call_rate, phase.chunk_wall_rate, speed,
                         "modules");
    addCostMetrics(report, checks, cpu_ms, wall_ms, speed,
                   "optimize() call");
    addOutputMetrics(report, found, patched, before, after,
                     "first " + std::to_string(kColdCounted) + " modules");
    report.add(&report.end_to_end, "peak_rss_mb", peak_rss_mb, "MB",
               "median of " + std::to_string(kMemoryCalls) + " calls");

    if (!options.trace)
        return;

    // Traced repeat of the same calls, then the one-thread replay.
    ModulePhase traced = runModulePhase(coldCall, kColdChunk, 0, 0,
                                        phase.calls.size(), log);
    LayerInputs layers;
    layers.overhead_pct =
        overheadPct(phase.wall_s, traced.wall_s, phase.calls.size());
    for (const CallResult &call : traced.calls)
        layers.sched += call.sched;
    lpobench::LayerReplay replay(log, model,
                                 replayOptions(Ladder::FirstTier), nullptr);
    for (unsigned i = 0; i < kColdReplay && i < phase.calls.size(); ++i) {
        // Cold: every module gets a fresh cache and a fresh optimizer.
        SpanLog::Scope module_span(log, "module", i);
        verify::VerifyCache cache;
        core::ModuleOptimizer optimizer(model,
                                        replayOptions(Ladder::FirstTier));
        replayModule(log, checks, layers, replay, &cache, optimizer,
                     stream[i], phase.calls[i].output, i);
    }
    layers.replay = replay.counts();
    addLayerMetrics(report, checks, log, layers);
}

/** The seeded order in which timed pass @p pass visits the modules. */
std::vector<size_t>
passOrder(uint64_t seed, size_t pass, size_t count)
{
    std::vector<size_t> order(count);
    for (size_t i = 0; i < count; ++i)
        order[i] = i;
    for (size_t i = count; i > 1; --i)
        std::swap(order[i - 1],
                  order[drawSeed(seed, kWarmOrderSalt, pass * count + i) % i]);
    return order;
}

void
runModuleWarm(const RunOptions &options, Report &report, Checks &checks,
              SpanLog &log)
{
    llm::MockModel model(llm::modelByName(kModel), 1);
    std::vector<std::string> texts;
    std::unique_ptr<core::ModuleOptimizer> optimizer;
    std::vector<std::vector<CallResult>> fills;
    double setup_s = timedSetup([&](unsigned) {
        // Generate the set, then fill a fresh optimizer's verify cache
        // by optimizing every module once (the cold pass).
        texts.clear();
        for (unsigned i = 0; i < kWarmModules; ++i)
            texts.push_back(
                generateModule(i + 1, kWarmFunctions, kWarmBlocks));
        optimizer = std::make_unique<core::ModuleOptimizer>(
            model, moduleOptions(kPipelineThreads, Ladder::FirstTier));
        std::vector<CallResult> fill;
        for (const std::string &text : texts)
            fill.push_back(optimizeText(*optimizer, text));
        fills.push_back(std::move(fill));
    });
    for (size_t rep = 1; rep < fills.size(); ++rep)
        for (size_t i = 0; i < texts.size(); ++i)
            checks.expect(sameCounts(fills[0][i], fills[rep][i]),
                          "repeat_counts",
                          "module " + std::to_string(i) +
                              " differed between set-up runs");
    uint64_t digest = fnv1a("");
    for (const std::string &text : texts)
        digest = fnv1a(text, digest);
    std::printf("inputs: %u modules of largeModule(., %u, %u), digest %s\n",
                kWarmModules, kWarmFunctions, kWarmBlocks,
                hex(digest).c_str());
    const std::vector<CallResult> &cold = fills.back();

    // Each warm call is compared with the cold pass as it completes and
    // keeps no output, so memory does not grow with the run's length.
    size_t warm_mismatches = 0;
    std::vector<size_t> order;
    auto warmCall = [&](size_t i) {
        if (i % texts.size() == 0)
            order = passOrder(options.seed, i / texts.size(), texts.size());
        size_t module = order[i % texts.size()];
        CallResult call = optimizeText(*optimizer, texts[module]);
        const CallResult &reference = cold[module];
        if (call.output != reference.output ||
            call.statuses != reference.statuses)
            ++warm_mismatches;
        std::string().swap(call.output);
        std::vector<core::CaseStatus>().swap(call.statuses);
        return call;
    };
    double peak_rss_mb = memoryPass(warmCall, kMemoryCalls);
    SpanLog untraced(false);
    core::PipelineStats before = optimizer->pipelineStats();
    std::vector<uint64_t> ticks = hostCpuTicks();
    ModulePhase phase = runModulePhase(warmCall, kWarmModules, kWarmMinCalls,
                                       options.seconds, 0, untraced);
    printSteal(ticks);
    uint64_t solves = optimizer->pipelineStats().sat_solves -
                      before.sat_solves;
    checks.expect(solves == 0, "warm_zero_sat",
                  std::to_string(solves) + " SAT solves in the timed phase");

    checks.expect(warm_mismatches == 0, "warm_equals_cold",
                  std::to_string(warm_mismatches) +
                      " warm calls differ from the cold pass");
    std::vector<double> cpu_ms, wall_ms;
    for (const CallResult &call : phase.calls) {
        cpu_ms.push_back(call.cpu_ms);
        wall_ms.push_back(call.latency_ms);
        report.attempted += call.attempted;
        report.failed += call.failed;
    }
    std::vector<std::string> outputs;
    uint64_t found = 0, patched = 0, conflicts = 0;
    double cycles_before = 0, cycles_after = 0;
    for (const CallResult &call : cold) {
        outputs.push_back(call.output);
        found += call.found;
        patched += call.patched;
        conflicts += call.conflicts;
        cycles_before += call.cycles_before;
        cycles_after += call.cycles_after;
    }
    checkOutputs(checks, texts, outputs, options.seed);

    std::printf("timed: %zu optimize() calls in %.3f s (%.3f processor "
                "s), %zu passes of %u modules, %llu SAT solves\n",
                phase.calls.size(), phase.wall_s, phase.cpu_s,
                phase.chunk_seq_rate.size(), kWarmModules,
                (unsigned long long)solves);
    std::printf("repeat key (cold pass): found=%llu patched=%llu "
                "smt.conflicts=%llu\n",
                (unsigned long long)found, (unsigned long long)patched,
                (unsigned long long)conflicts);
    report.add(&report.end_to_end, "setup_s", setup_s, "s",
               "processor time, median of " + std::to_string(kSetupReps));
    double speed = hostSpeed(phase.speeds);
    addThroughputMetrics(report, phase.chunk_seq_rate,
                         phase.chunk_call_rate, phase.chunk_wall_rate, speed,
                         "modules");
    addCostMetrics(report, checks, cpu_ms, wall_ms, speed,
                   "optimize() call");
    addOutputMetrics(report, found, patched, cycles_before, cycles_after,
                     "one pass over " + std::to_string(kWarmModules) +
                         " modules");
    report.add(&report.end_to_end, "peak_rss_mb", peak_rss_mb, "MB",
               "median of " + std::to_string(kMemoryCalls) + " calls");

    if (!options.trace)
        return;

    core::PipelineStats traced_before = optimizer->pipelineStats();
    ModulePhase traced = runModulePhase(warmCall, kWarmModules, 0, 0,
                                        phase.calls.size(), log);
    LayerInputs layers;
    layers.overhead_pct =
        overheadPct(phase.wall_s, traced.wall_s, phase.calls.size());
    layers.sched = schedDelta(optimizer->pipelineStats().scheduler,
                              traced_before.scheduler);

    // Warm the replay's cache and its one-thread optimizer with one
    // untraced pass, then replay every module traced.
    SpanLog unrecorded(false);
    verify::VerifyCache cache;
    lpobench::LayerReplay filler(unrecorded, model,
                                 replayOptions(Ladder::FirstTier), nullptr);
    core::ModuleOptimizer replay_optimizer(model,
                                           replayOptions(Ladder::FirstTier));
    for (const std::string &text : texts) {
        ir::Context context;
        auto module = ir::parseModule(context, text).take();
        filler.replayModule(*module, 0, &cache);
        optimizeText(replay_optimizer, text);
    }
    lpobench::LayerReplay replay(log, model,
                                 replayOptions(Ladder::FirstTier), nullptr);
    for (size_t i = 0; i < texts.size(); ++i) {
        SpanLog::Scope module_span(log, "module", i);
        replayModule(log, checks, layers, replay, &cache, replay_optimizer,
                     texts[i], cold[i].output, i);
    }
    layers.replay = replay.counts();
    addLayerMetrics(report, checks, log, layers);
}

// ---------------------------------------------------------------------
// serve_mixed
// ---------------------------------------------------------------------

std::string
requestId(size_t index)
{
    char buf[24];
    std::snprintf(buf, sizeof buf, "r%07zu", index);
    return buf;
}

/** One response as the client saw it. */
struct Response
{
    size_t module = 0;
    /** Submit to meta file, wall clock. */
    double latency_ms = 0;
    /** Processor time since the previous response: with requests always
     *  queued, the cost of serving this one. */
    double cpu_ms = 0;
    std::string status;
    uint64_t patched = 0;
    uint64_t hash = 0;
};

/** A complete chunk of responses: where it ends, and what it took. */
struct ServeChunk
{
    size_t end = 0;
    double wall_s = 0;
    double cpu_s = 0;
};

/** A timed closed-loop phase against one in-process server. */
struct ServePhase
{
    std::vector<Response> responses;
    std::vector<ServeChunk> chunks;
    /** Host speed, probed before each chunk (see probeHost). */
    std::vector<double> speeds;
    double wall_s = 0;
    double cpu_s = 0;
    serve::ServeStats stats;
    core::PipelineStats pipeline;
    bool server_ok = true;
};

std::string
metaField(const std::string &meta, const std::string &key)
{
    std::istringstream lines(meta);
    std::string line;
    while (std::getline(lines, line))
        if (line.compare(0, key.size() + 1, key + "=") == 0)
            return line.substr(key.size() + 1);
    return "";
}

/**
 * Blocks until something is renamed into a directory (inotify), or
 * for at most a millisecond when inotify is unavailable or missed an
 * event; callers re-check their condition after every wake-up.
 */
class OutboxWatch
{
  public:
    explicit OutboxWatch(const std::string &dir)
        : fd_(::inotify_init1(IN_NONBLOCK | IN_CLOEXEC))
    {
        if (fd_ >= 0 && ::inotify_add_watch(fd_, dir.c_str(),
                                            IN_MOVED_TO | IN_CREATE) < 0) {
            ::close(fd_);
            fd_ = -1;
        }
    }
    ~OutboxWatch()
    {
        if (fd_ >= 0)
            ::close(fd_);
    }
    OutboxWatch(const OutboxWatch &) = delete;
    OutboxWatch &operator=(const OutboxWatch &) = delete;

    void wait()
    {
        if (fd_ < 0) {
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
            return;
        }
        struct pollfd pfd = {fd_, POLLIN, 0};
        if (::poll(&pfd, 1, 100) > 0) {
            char buf[4096];
            while (::read(fd_, buf, sizeof buf) > 0) {
            }
        }
    }

  private:
    int fd_;
};

/**
 * Serve @p schedule (module indices into @p texts) from a fresh server
 * on @p store_dir, keeping kServeOutstanding requests in flight, until
 * @p seconds have passed and kServeMinRequests are answered (at a chunk
 * boundary) — or exactly @p fixed_requests when nonzero.
 */
ServePhase
runServePhase(const std::string &spool_dir, const std::string &store_dir,
              const std::vector<std::string> &texts,
              const std::vector<size_t> &schedule, double seconds,
              size_t fixed_requests, SpanLog &log)
{
    ServePhase phase;
    serve::ServeOptions server_options;
    server_options.spool_root = spool_dir;
    server_options.store_path = store_dir;
    server_options.threads = kPipelineThreads;
    server_options.poll_ms = kServePollMs;
    serve::Server server(server_options);
    serve::Spool spool(spool_dir);
    std::string error;
    if (!spool.ensureLayout(&error)) {
        std::fprintf(stderr, "lpobench: spool: %s\n", error.c_str());
        std::exit(2);
    }
    // Responses are renamed into outbox/; waiting on those events keeps
    // the client off the CPU the server and its workers need.
    OutboxWatch watch(spool.outboxDir());
    std::thread server_thread([&] {
        try {
            phase.server_ok = server.run() == 0;
        } catch (const std::exception &e) {
            std::fprintf(stderr, "lpobench: server: %s\n", e.what());
            phase.server_ok = false;
        }
    });

    struct InFlight
    {
        size_t index;
        Clock::time_point submitted;
        int span;
    };
    std::deque<InFlight> in_flight;
    size_t next = 0;
    bool stopping = false;
    phase.speeds.push_back(probeHost().speed);
    auto start = Clock::now();
    double cpu_start = cpuSeconds();
    auto chunk_start = start;
    double chunk_cpu_start = cpu_start;
    double previous_cpu = cpu_start;
    size_t limit = fixed_requests ? fixed_requests : schedule.size();
    while (true) {
        while (!stopping && next < limit &&
               in_flight.size() < kServeOutstanding) {
            auto submitted = Clock::now();
            int span = log.beginDetached("request", next);
            if (!spool.submit(requestId(next), texts[schedule[next]],
                              &error)) {
                std::fprintf(stderr, "lpobench: submit: %s\n",
                             error.c_str());
                std::exit(2);
            }
            in_flight.push_back({next, submitted, span});
            ++next;
        }
        if (in_flight.empty())
            break;
        const InFlight &front = in_flight.front();
        std::string id = requestId(front.index);
        std::string meta_path = spool.metaPath(id);
        if (::access(meta_path.c_str(), F_OK) != 0) {
            watch.wait();
            continue;
        }
        auto done = Clock::now();
        double cpu_done = cpuSeconds();
        log.setEnd(front.span);
        Response response;
        response.module = schedule[front.index];
        response.latency_ms = msBetween(front.submitted, done);
        response.cpu_ms = (cpu_done - previous_cpu) * 1e3;
        previous_cpu = cpu_done;
        std::string meta, bytes;
        readFile(meta_path, &meta);
        response.status = metaField(meta, "status");
        response.patched = std::strtoull(metaField(meta, "patched").c_str(),
                                         nullptr, 10);
        if (readFile(spool.responsePath(id), &bytes))
            response.hash = fnv1a(bytes);
        ::unlink(meta_path.c_str());
        ::unlink(spool.responsePath(id).c_str());
        phase.responses.push_back(response);
        in_flight.pop_front();

        size_t answered = phase.responses.size();
        if (answered % kServeChunk == 0) {
            phase.chunks.push_back({answered,
                                    msBetween(chunk_start, done) / 1e3,
                                    cpu_done - chunk_cpu_start});
            // The server works on while the probe runs, so the probe's
            // own processor time is taken out rather than skipped.
            Probe probe = probeHost();
            phase.speeds.push_back(probe.speed);
            chunk_start = done;
            chunk_cpu_start = cpu_done + probe.cpu_s;
            previous_cpu += probe.cpu_s;
            if (!fixed_requests && answered >= kServeMinRequests &&
                msBetween(start, done) >= seconds * 1e3)
                stopping = true;
        }
        if (fixed_requests && next >= limit)
            stopping = true;
    }
    phase.wall_s = msBetween(start, Clock::now()) / 1e3;
    phase.cpu_s = cpuSeconds() - cpu_start;
    server.requestStop();
    server_thread.join();
    phase.stats = server.stats();
    if (const core::PipelineStats *stats = server.pipelineStats())
        phase.pipeline = *stats;
    return phase;
}

/** Removes a directory tree when the run ends, however it ends. */
struct ScratchDir
{
    explicit ScratchDir(std::string dir) : path(std::move(dir))
    {
        std::error_code ec;
        fs::remove_all(path, ec);
        fs::create_directories(path, ec);
    }
    ~ScratchDir()
    {
        std::error_code ec;
        fs::remove_all(path, ec);
    }
    ScratchDir(const ScratchDir &) = delete;
    ScratchDir &operator=(const ScratchDir &) = delete;
    std::string path;
};

/** Serve @p ids' modules once from a fresh spool (fills @p store_dir). */
bool
serveOnce(const std::string &spool_dir, const std::string &store_dir,
          const std::vector<std::string> &texts, size_t first, size_t last)
{
    std::error_code ec;
    fs::create_directories(spool_dir, ec);
    serve::Spool spool(spool_dir);
    if (!spool.ensureLayout())
        return false;
    for (size_t i = first; i < last; ++i)
        if (!spool.submit(requestId(i), texts[i]))
            return false;
    serve::ServeOptions server_options;
    server_options.spool_root = spool_dir;
    server_options.store_path = store_dir;
    server_options.threads = kPipelineThreads;
    server_options.queue_capacity = last - first;
    server_options.once = true;
    serve::Server server(server_options);
    return server.run() == 0 && server.stats().ok == last - first;
}

bool
copyStore(const std::string &from, const std::string &to)
{
    std::error_code ec;
    fs::remove_all(to, ec);
    fs::copy(from, to, fs::copy_options::recursive, ec);
    return !ec;
}

uint64_t
storeBytes(const std::string &dir)
{
    uint64_t bytes = 0;
    std::error_code ec;
    for (const char *file : {"verify.lpo", "catalog.lpo"}) {
        uintmax_t size = fs::file_size(dir + "/" + file, ec);
        if (!ec)
            bytes += size;
    }
    return bytes;
}

/**
 * The request mix: in every block of kServeNovelEvery requests one
 * seeded slot asks for an uncatalogued module, the rest for catalogued
 * ones, each drawn uniformly.
 */
size_t
scheduledModule(uint64_t seed, size_t request)
{
    size_t block = request / kServeNovelEvery;
    if (request % kServeNovelEvery ==
        drawSeed(seed, kSlotSalt, block) % kServeNovelEvery)
        return kServeCatalogued +
               drawSeed(seed, kUncataloguedSalt, block) % kServeUncatalogued;
    return drawSeed(seed, kCataloguedSalt, request) % kServeCatalogued;
}

/**
 * Request module @p index: the functions of largeModule(seed, 4, 2)
 * for kServeModulesPerRequest consecutive seeds, renamed apart. With
 * one small module per request the server spent as long in fsync as
 * in optimize(), so disk noise set the figures; several per request
 * keep the optimizer's share dominant. The seeds are the fixed first
 * ones, the same in every run: the server exposes no verification
 * ladder, so a set whose cold proof can take minutes cannot be run.
 */
std::string
requestModule(size_t index)
{
    std::string text;
    for (unsigned k = 0; k < kServeModulesPerRequest; ++k) {
        std::istringstream lines(generateModule(
            index * kServeModulesPerRequest + k + 1, kServeFunctions,
            kServeBlocks));
        std::string line;
        while (std::getline(lines, line)) {
            if (line.compare(0, 1, ";") == 0)
                continue; // the ModuleID header of each part
            size_t at = line.find('@');
            if (line.compare(0, 7, "define ") == 0 && at != std::string::npos)
                line.insert(at + 1, "m" + std::to_string(k) + "_");
            text += line + "\n";
        }
    }
    return text;
}

void
runServeMixed(const RunOptions &options, Report &report, Checks &checks,
              SpanLog &log)
{
    llm::MockModel model(llm::modelByName(kModel), 1);
    ScratchDir run(options.work_dir + "/serve-" +
                   std::to_string(::getpid()));
    std::vector<std::string> texts;
    std::string store_dir;
    std::set<uint64_t> digests;
    bool filled = true;
    double setup_s = timedSetup([&](unsigned rep) {
        texts.clear();
        uint64_t digest = fnv1a("");
        for (size_t i = 0; i < kServeCatalogued + kServeUncatalogued; ++i) {
            texts.push_back(requestModule(i));
            digest = fnv1a(texts.back(), digest);
        }
        digests.insert(digest);
        std::string dir = run.path + "/setup" + std::to_string(rep);
        store_dir = dir + "/store";
        // The uncatalogued modules are served first and their learned
        // rewrites dropped, so their verdicts are durable but the
        // catalog never heard of them; then the catalogued ones.
        filled = serveOnce(dir + "/spool1", store_dir, texts,
                           kServeCatalogued, texts.size()) &&
                 filled;
        std::error_code ec;
        fs::remove(store_dir + "/catalog.lpo", ec);
        filled = serveOnce(dir + "/spool2", store_dir, texts, 0,
                           kServeCatalogued) &&
                 filled;
    });
    checks.expect(filled, "serve_setup", "filling the store failed");
    checks.expect(digests.size() == 1, "repeat_inputs",
                  "set-up runs generated different modules");
    std::printf("inputs: %zu request modules of %u x largeModule(., %u, "
                "%u) (%u catalogued, %u not), digest %s; request order "
                "seeded by --seed\n",
                texts.size(), kServeModulesPerRequest, kServeFunctions,
                kServeBlocks, kServeCatalogued, kServeUncatalogued,
                hex(*digests.begin()).c_str());
    std::vector<size_t> schedule;
    for (size_t i = 0; i < kServeMaxRequests; ++i)
        schedule.push_back(scheduledModule(options.seed, i));

    SpanLog untraced(false);
    copyStore(store_dir, run.path + "/storeA");
    std::vector<uint64_t> ticks = hostCpuTicks();
    ServePhase phase =
        runServePhase(run.path + "/spoolA", run.path + "/storeA", texts,
                      schedule, options.seconds, 0, untraced);
    printSteal(ticks);
    checks.expect(phase.server_ok, "serve_clean_stop");

    // One-shot references: a fresh optimizer per distinct module.
    std::map<size_t, CallResult> refs;
    for (const Response &response : phase.responses) {
        if (refs.count(response.module))
            continue;
        core::ModuleOptimizer optimizer(
            model, moduleOptions(kPipelineThreads, Ladder::ModuleDefault));
        refs[response.module] = optimizeText(optimizer,
                                             texts[response.module]);
    }
    std::vector<std::string> inputs, outputs;
    for (const auto &[module, ref] : refs) {
        inputs.push_back(texts[module]);
        outputs.push_back(ref.output);
    }
    checkOutputs(checks, inputs, outputs, options.seed);

    std::vector<double> cpu_ms, wall_ms;
    uint64_t found = 0, patched = 0;
    double cycles_before = 0, cycles_after = 0;
    for (size_t i = 0; i < phase.responses.size(); ++i) {
        const Response &response = phase.responses[i];
        const CallResult &ref = refs[response.module];
        bool ok = response.status == "ok";
        checks.expect(ok, "serve_status_ok",
                      "request " + std::to_string(i) + " answered '" +
                          response.status + "'");
        checks.expect(response.hash == fnv1a(ref.output) &&
                          response.patched == ref.patched,
                      "serve_matches_oneshot",
                      "request " + std::to_string(i) +
                          " differs from a one-shot run of its module");
        cpu_ms.push_back(response.cpu_ms);
        wall_ms.push_back(response.latency_ms);
        ++report.attempted;
        if (!ok)
            ++report.failed;
        if (i < kServeCounted) {
            found += ref.found;
            patched += response.patched;
            cycles_before += ref.cycles_before;
            cycles_after += ref.cycles_after;
        }
    }
    std::vector<double> seq_rates, request_rates, wall_rates;
    size_t chunk_first = 0;
    for (const ServeChunk &chunk : phase.chunks) {
        uint64_t seqs = 0;
        for (size_t i = chunk_first; i < chunk.end; ++i)
            seqs += refs[phase.responses[i].module].unique;
        seq_rates.push_back(seqs / chunk.cpu_s);
        request_rates.push_back((chunk.end - chunk_first) / chunk.cpu_s);
        wall_rates.push_back((chunk.end - chunk_first) / chunk.wall_s);
        chunk_first = chunk.end;
    }
    std::printf("timed: %zu requests in %.3f s (%.3f processor s), %zu "
                "chunks of %u; server: %llu ok, %llu shed, %llu catalog "
                "finds\n",
                phase.responses.size(), phase.wall_s, phase.cpu_s,
                phase.chunks.size(), kServeChunk,
                (unsigned long long)phase.stats.ok,
                (unsigned long long)phase.stats.shed,
                (unsigned long long)phase.pipeline.found_by_catalog);
    std::printf("repeat key (first %u requests): found=%llu patched=%llu\n",
                kServeCounted, (unsigned long long)found,
                (unsigned long long)patched);
    report.add(&report.end_to_end, "setup_s", setup_s, "s",
               "processor time, median of " + std::to_string(kSetupReps));
    double speed = hostSpeed(phase.speeds);
    addThroughputMetrics(report, seq_rates, request_rates, wall_rates, speed,
                         "requests");
    addCostMetrics(report, checks, cpu_ms, wall_ms, speed, "request");
    addOutputMetrics(report, found, patched, cycles_before, cycles_after,
                     "first " + std::to_string(kServeCounted) +
                         " requests");
    // A server has no separate memory pass like the module workloads'
    // (memoryPass); its whole-run peak, set-ups included, spread 2-4 %
    // over seeds.
    report.add(&report.end_to_end, "peak_rss_mb", peakRssMb(), "MB",
               "whole run");

    if (!options.trace)
        return;

    copyStore(store_dir, run.path + "/storeB");
    ServePhase traced = runServePhase(
        run.path + "/spoolB", run.path + "/storeB", texts, schedule, 0,
        phase.responses.size(), log);
    LayerInputs layers;
    layers.overhead_pct = overheadPct(phase.wall_s, traced.wall_s,
                                      phase.responses.size());
    layers.sched = traced.pipeline.scheduler;
    layers.store_cache_flushed = traced.pipeline.store_cache_flushed;
    layers.store_catalog_flushed = traced.pipeline.store_catalog_flushed;
    layers.store_bytes = storeBytes(run.path + "/storeB");

    // One-thread replay of the first requests through the layer calls
    // and the server's own spool steps, against copies of the store.
    copyStore(store_dir, run.path + "/storeL");
    copyStore(store_dir, run.path + "/storeO");
    verify::VerifyCache cache;
    std::string warning;
    std::unique_ptr<verify::PersistentStore> store =
        verify::PersistentStore::open(run.path + "/storeL", &cache,
                                      &warning);
    checks.expect(store != nullptr, "serve_replay_store", warning);
    if (!store)
        return;
    lpobench::LayerReplay replay(log, model,
                                 replayOptions(Ladder::ModuleDefault),
                                 &store->catalog());
    core::ModuleOptimizer optimizer(
        model, replayOptions(Ladder::ModuleDefault, run.path + "/storeO"));
    serve::Spool spool(run.path + "/spoolR");
    spool.ensureLayout();
    for (size_t i = 0; i < kServeReplay && i < phase.responses.size(); ++i) {
        std::string id = requestId(i);
        spool.submit(id, texts[schedule[i]]);
        SpanLog::Scope module_span(log, "module", i);
        std::string bytes;
        {
            SpanLog::Scope span(log, "serve.claim", i);
            spool.claim(id);
            readFile(spool.workPath(id), &bytes);
        }
        std::string printed =
            replayModule(log, checks, layers, replay, &cache, optimizer,
                         bytes, refs[schedule[i]].output, i);
        {
            SpanLog::Scope span(log, "serve.respond", i);
            spool.writeResponse(id, printed);
            spool.writeMeta(id, "status=ok\nid=" + id + "\n");
            spool.complete(id);
        }
    }
    layers.replay = replay.counts();
    addLayerMetrics(report, checks, log, layers);
}

} // namespace

int
main(int argc, char **argv)
{
    RunOptions options;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "lpobench: %s needs a value\n",
                             arg.c_str());
                std::exit(2);
            }
            return argv[++i];
        };
        if (arg == "--workload")
            options.workload = value();
        else if (arg == "--seed")
            options.seed = std::strtoull(value().c_str(), nullptr, 10);
        else if (arg == "--seconds")
            options.seconds = std::strtod(value().c_str(), nullptr);
        else if (arg == "--trace")
            options.trace = value() != "0";
        else if (arg == "--work-dir")
            options.work_dir = value();
        else if (arg == "--trace-dir")
            options.trace_dir = value();
        else {
            std::fprintf(stderr, "lpobench: unknown argument %s\n",
                         arg.c_str());
            return 2;
        }
    }
    if (options.seconds <= 0) {
        std::fprintf(stderr, "lpobench: --seconds must be positive\n");
        return 2;
    }

    std::printf("lpobench: workload=%s seed=%llu seconds=%g trace=%d "
                "pipeline_threads=%u\n",
                options.workload.c_str(),
                (unsigned long long)options.seed, options.seconds,
                options.trace ? 1 : 0, kPipelineThreads);
    Report report;
    Checks checks;
    SpanLog log(options.trace);
    if (options.workload == "module_cold") {
        runModuleCold(options, report, checks, log);
    } else if (options.workload == "module_warm") {
        runModuleWarm(options, report, checks, log);
    } else if (options.workload == "serve_mixed") {
        runServeMixed(options, report, checks, log);
    } else {
        std::fprintf(stderr, "lpobench: unknown workload '%s'\n",
                     options.workload.c_str());
        return 2;
    }
    if (options.trace)
        writeTrace(log, options);

    std::printf("failed operations: %llu of %llu (failed_share %.6f)\n",
                (unsigned long long)report.failed,
                (unsigned long long)report.attempted,
                report.attempted
                    ? double(report.failed) / double(report.attempted)
                    : 0.0);
    printMetrics("end-to-end", report.end_to_end);
    if (options.trace)
        printMetrics("per-layer", report.per_layer);
    checks.print();
    bool correct = checks.allPassed() && report.attempted > 0;
    if (!correct)
        checks.printFailuresToStderr();
    std::fflush(stderr);
    printResultLine(correct, report, options.trace);
    std::fflush(stdout);
    return correct ? 0 : 1;
}
