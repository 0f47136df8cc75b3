#include "verify/refine.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cmath>
#include <cstring>
#include <limits>
#include <map>

#include "interp/exec_plan.h"
#include "ir/printer.h"
#include "support/rng.h"
#include "support/task_graph.h"
#include "support/telemetry.h"
#include "support/trace.h"
#include "verify/cache.h"
#include "verify/encoder.h"

namespace lpo::verify {

using interp::ExecFrame;
using interp::ExecPlan;
using interp::ExecutionInput;
using interp::ExecutionResult;
using interp::LaneValue;
using interp::MemoryObject;
using interp::PlanResult;
using interp::RtValue;
using ir::Type;
using smt::CircuitBuilder;
using smt::CLit;
using smt::SatResult;
using smt::SatSolver;

namespace {

unsigned
laneCount(const Type *type)
{
    return type->isVector() ? type->lanes() : 1;
}

bool
signaturesMatch(const ir::Function &src, const ir::Function &tgt)
{
    if (src.returnType() != tgt.returnType() ||
        src.numArgs() != tgt.numArgs())
        return false;
    for (unsigned i = 0; i < src.numArgs(); ++i)
        if (src.arg(i)->type() != tgt.arg(i)->type())
            return false;
    return true;
}

/** Does one concrete execution pair violate refinement? */
bool
violatesRefinement(const ExecutionResult &src, const ExecutionResult &tgt,
                   std::string *why)
{
    if (src.ub)
        return false; // source UB: anything goes
    if (tgt.ub) {
        *why = "target triggers UB where source is defined";
        return true;
    }
    if (!src.ret || !tgt.ret)
        return false;
    for (size_t lane = 0; lane < src.ret->lanes.size(); ++lane) {
        const LaneValue &s = src.ret->lanes[lane];
        const LaneValue &t = tgt.ret->lanes[lane];
        if (s.poison)
            continue; // target may refine poison to anything
        if (t.poison) {
            *why = "target is more poisonous than source";
            return true;
        }
        if (s.is_fp) {
            bool both_nan = std::isnan(s.fp) && std::isnan(t.fp);
            // Compare bit patterns so -0.0 != +0.0 is caught.
            if (!both_nan) {
                double sf = s.fp;
                double tf = t.fp;
                uint64_t sb, tb;
                static_assert(sizeof(sb) == sizeof(sf));
                std::memcpy(&sb, &sf, 8);
                std::memcpy(&tb, &tf, 8);
                if (sb != tb) {
                    *why = "value mismatch";
                    return true;
                }
            }
        } else if (s.bits.zext() != t.bits.zext()) {
            *why = "value mismatch";
            return true;
        }
    }
    return false;
}

/** Memory objects needed by pointer arguments of @p fn. */
unsigned
pointerArgCount(const ir::Function &fn)
{
    unsigned count = 0;
    for (const auto &arg : fn.args())
        if (arg->type()->isPtr())
            ++count;
    return count;
}

/**
 * Re-run the single violating @p input through the interpreter and
 * render the Alive2-style counterexample into @p result. Shared by
 * both backends and by the cache's hit path, so a cached Incorrect
 * verdict reproduces the uncached output byte for byte.
 */
void
fillCounterexample(RefinementResult &result, const ir::Function &src,
                   const ir::Function &tgt, ExecutionInput input)
{
    ExecutionResult src_run = interp::execute(src, input);
    ExecutionResult tgt_run = interp::execute(tgt, input);
    result.verdict = Verdict::Incorrect;
    Counterexample cex;
    cex.source_value = interp::describeResult(src_run);
    cex.target_value = interp::describeResult(tgt_run);
    std::string why;
    if (!violatesRefinement(src_run, tgt_run, &why))
        why = "value mismatch"; // defensive: model disagrees with interp
    result.detail = why;
    cex.input = std::move(input);
    result.counterexample = std::move(cex);
}

/** Copy the cache-safe slice of @p result into @p cached. */
void
recordVerdict(CachedVerdict *cached, const RefinementResult &result)
{
    cached->verdict = result.verdict;
    cached->backend = result.backend;
    cached->detail = result.detail;
}

// ---------------------------------------------------------------------
// SAT backend
// ---------------------------------------------------------------------

/** Bit-blasting latency (circuit construction + CNF emission). */
telemetry::Histogram
encodeHistogram()
{
    static const telemetry::Histogram h =
        telemetry::histogram("verify.encode_ns");
    return h;
}

/** Per-solve latency (one budget-ladder tier). */
telemetry::Histogram
solveHistogram()
{
    static const telemetry::Histogram h =
        telemetry::histogram("verify.solve_ns");
    return h;
}

/** Conflicts spent by one solve call (fresh and session paths). */
telemetry::Histogram
conflictsPerSolveHistogram()
{
    static const telemetry::Histogram h =
        telemetry::histogram("sat.conflicts_per_solve");
    return h;
}

/** Add @p solver's whole-lifetime counters into the telemetry (valid
 *  for fresh single-shot solvers). */
void
recordSolverWork(const RefineOptions &options, const SatSolver &solver)
{
    SatTelemetry *telemetry = options.sat_telemetry;
    if (!telemetry)
        return;
    ++telemetry->solves;
    telemetry->decisions += solver.decisions();
    telemetry->conflicts += solver.conflicts();
    telemetry->propagations += solver.propagations();
    telemetry->restarts += solver.restarts();
}

/**
 * The per-query budget schedule: the escalation ladder when
 * configured, otherwise the legacy single-shot budget. Each entry is
 * the ADDITIONAL conflicts the next solve call may spend; re-solving
 * the same solver keeps its learnt clauses and phase saving, so an
 * escalated attempt resumes the proof instead of restarting it.
 */
std::vector<uint64_t>
budgetLadder(const RefineOptions &options)
{
    if (!options.budget_tiers.empty())
        return options.budget_tiers;
    return {options.conflict_budget};
}

RefinementResult checkWithTesting(const ir::Function &src,
                                  const ir::Function &tgt,
                                  const RefineOptions &options,
                                  CachedVerdict *cached);

/**
 * Final rung of the ladder: a SAT query whose last tier was exhausted
 * degrades to the bounded concrete backend. A counterexample is sound
 * (concrete inputs don't lie), and an exhaustive sweep covering the
 * whole input space is a proof — both keep their verdicts. A sampled
 * sweep that merely found nothing is NOT a proof: it becomes
 * Verdict::Degraded, which the pipeline never patches.
 */
RefinementResult
degradeToTesting(const ir::Function &src, const ir::Function &tgt,
                 const RefineOptions &options, CachedVerdict *cached)
{
    DegradationStats *degradation = options.degradation;
    if (degradation)
        ++degradation->concrete_fallbacks;
    RefinementResult result = checkWithTesting(src, tgt, options, cached);
    if (result.verdict != Verdict::Correct)
        return result; // counterexample: sound, stands as-is
    if (result.backend == "exhaustive") {
        if (degradation)
            ++degradation->exhaustive_rescues;
        result.detail += " (after SAT budget ladder exhausted)";
    } else {
        result.verdict = Verdict::Degraded;
        result.detail = "SAT budget ladder exhausted; survived " +
                        result.detail + " (not a proof)";
        if (degradation)
            ++degradation->degraded;
    }
    recordVerdict(cached, result);
    return result;
}

RefinementResult
checkWithSat(const ir::Function &src, const ir::Function &tgt,
             const RefineOptions &options, CachedVerdict *cached)
{
    RefinementResult result;
    result.backend = "sat";

    SatSolver solver;
    solver.setInterrupt(options.interrupt);
    CircuitBuilder builder(solver, options.structural_hashing);

    std::vector<ValueEnc> args;
    {
        LPO_TRACE_SPAN(span, "encode", "sat");
        telemetry::ScopedTimer timer(encodeHistogram());
        bool encoded = encodeRefinementQuery(builder, src, tgt, &args);
        assert(encoded && "caller checked canEncode");
        (void)encoded;
    }

    const std::vector<uint64_t> tiers = budgetLadder(options);
    SatResult sat = SatResult::Unknown;
    size_t solves_run = 0;
    for (uint64_t tier_budget : tiers) {
        if (solves_run > 0 && options.degradation)
            ++options.degradation->escalations;
        uint64_t conflicts_before = solver.conflicts();
        uint64_t start_ns = telemetry::nowNanos();
        {
            LPO_TRACE_SPAN(span, "solve", "sat");
            telemetry::ScopedTimer timer(solveHistogram());
            sat = solver.solve(tier_budget);
            if (span.active())
                span.arg("conflicts",
                         solver.conflicts() - conflicts_before);
        }
        if (options.sat_telemetry)
            options.sat_telemetry->solve_ns +=
                telemetry::nowNanos() - start_ns;
        conflictsPerSolveHistogram().record(solver.conflicts() -
                                            conflicts_before);
        ++solves_run;
        if (sat != SatResult::Unknown)
            break;
    }
    // The solver's lifetime counters already span every tier; only the
    // solve count needs the extra calls added.
    recordSolverWork(options, solver);
    if (options.sat_telemetry && solves_run > 1)
        options.sat_telemetry->solves += solves_run - 1;
    if (sat == SatResult::Unknown) {
        if (!options.budget_tiers.empty())
            return degradeToTesting(src, tgt, options, cached);
        result.verdict = Verdict::Timeout;
        result.detail = "SAT conflict budget exhausted";
        recordVerdict(cached, result);
        return result;
    }
    if (sat == SatResult::Unsat) {
        result.verdict = Verdict::Correct;
        result.detail = "proved by bit-blasting";
        recordVerdict(cached, result);
        return result;
    }

    // Extract the violating input from the model, recording the raw
    // lane words so a cache hit can rebuild the identical input.
    ExecutionInput input;
    cached->replay = CachedVerdict::Replay::SatArgs;
    for (unsigned i = 0; i < src.numArgs(); ++i) {
        RtValue value;
        for (const LaneEnc &lane : args[i]) {
            APInt word = builder.modelBV(lane.bits);
            cached->arg_lane_words.push_back(word.zext());
            value.lanes.push_back(LaneValue::ofInt(word));
        }
        input.args.push_back(value);
    }
    fillCounterexample(result, src, tgt, std::move(input));
    recordVerdict(cached, result);
    return result;
}

// ---------------------------------------------------------------------
// Concrete-testing backend
// ---------------------------------------------------------------------

double
specialDouble(unsigned index)
{
    static const double values[] = {
        0.0, -0.0, 1.0, -1.0, 0.5, 2.0, 255.0,
        std::numeric_limits<double>::quiet_NaN(),
        std::numeric_limits<double>::infinity(),
        -std::numeric_limits<double>::infinity(),
        std::numeric_limits<double>::denorm_min(),
        std::numeric_limits<double>::max(),
    };
    return values[index % (sizeof(values) / sizeof(values[0]))];
}

/** Total bits of integer input space (UINT_MAX if not enumerable). */
unsigned
inputSpaceBits(const ir::Function &fn)
{
    unsigned bits = 0;
    for (const auto &arg : fn.args()) {
        const Type *type = arg->type();
        if (type->isPtr() || type->isFloat())
            return std::numeric_limits<unsigned>::max();
        if (type->isVector() && type->scalarType()->isFloat())
            return std::numeric_limits<unsigned>::max();
        bits += laneCount(type) * type->scalarType()->intWidth();
    }
    return bits;
}

/** Build an input by decoding @p index over the integer input space. */
ExecutionInput
decodeExhaustive(const ir::Function &fn, uint64_t index)
{
    ExecutionInput input;
    for (const auto &arg : fn.args()) {
        const Type *type = arg->type();
        unsigned lanes = laneCount(type);
        unsigned width = type->scalarType()->intWidth();
        RtValue value;
        for (unsigned lane = 0; lane < lanes; ++lane) {
            uint64_t mask = width == 64 ? ~uint64_t(0)
                                        : ((uint64_t(1) << width) - 1);
            value.lanes.push_back(
                LaneValue::ofInt(APInt(width, index & mask)));
            index >>= width;
        }
        input.args.push_back(value);
    }
    return input;
}

/** Special integer patterns per distinct argument width, built once
 *  per sweep instead of once per sampled lane. */
using SpecialPatternCache = std::map<unsigned, std::vector<uint64_t>>;

SpecialPatternCache
buildSpecialPatterns(const ir::Function &fn)
{
    SpecialPatternCache cache;
    for (const auto &arg : fn.args()) {
        const Type *type = arg->type();
        if (type->isPtr() || type->scalarType()->isFloat())
            continue;
        unsigned width = type->scalarType()->intWidth();
        if (!cache.count(width))
            cache.emplace(width, specialPatterns(width));
    }
    return cache;
}

/** Build a randomized input, mixing special values generously. */
ExecutionInput
randomInput(const ir::Function &fn, Rng &rng, unsigned object_bytes,
            const SpecialPatternCache &special_cache)
{
    ExecutionInput input;
    for (const auto &arg : fn.args()) {
        const Type *type = arg->type();
        if (type->isPtr()) {
            int object_id = static_cast<int>(input.memory.size());
            MemoryObject object;
            object.bytes.resize(object_bytes);
            for (uint8_t &byte : object.bytes)
                byte = static_cast<uint8_t>(rng.next());
            input.memory.push_back(std::move(object));
            input.args.push_back(
                RtValue{{LaneValue::ofPtr(object_id, 0)}});
            continue;
        }
        unsigned lanes = laneCount(type);
        RtValue value;
        for (unsigned lane = 0; lane < lanes; ++lane) {
            if (type->scalarType()->isFloat()) {
                if (rng.chance(0.5)) {
                    value.lanes.push_back(LaneValue::ofFP(
                        specialDouble(static_cast<unsigned>(rng.next()))));
                } else {
                    // Random finite double from a random bit pattern,
                    // biased toward small magnitudes.
                    double d = (rng.nextDouble() - 0.5) * 1024.0;
                    value.lanes.push_back(LaneValue::ofFP(d));
                }
                continue;
            }
            unsigned width = type->scalarType()->intWidth();
            uint64_t bits;
            if (rng.chance(0.5)) {
                const auto &specials = special_cache.at(width);
                bits = specials[rng.nextBelow(specials.size())];
            } else {
                bits = rng.next();
            }
            value.lanes.push_back(LaneValue::ofInt(APInt(width, bits)));
        }
        input.args.push_back(value);
    }
    return input;
}

/**
 * The sampled input for sweep position @p index. A pure function of
 * (seed, index) so the parallel sweep generates identical inputs
 * regardless of how indices are distributed over threads.
 */
ExecutionInput
sampledInputAt(const ir::Function &fn, const RefineOptions &options,
               uint64_t index, const SpecialPatternCache &special_cache)
{
    Rng rng(options.seed ^ ((index + 1) * 0x9e3779b97f4a7c15ull));
    return randomInput(fn, rng, options.memory_object_bytes,
                       special_cache);
}

/** violatesRefinement over in-frame plan results (no allocation). */
bool
violatesPlanRefinement(const PlanResult &src, const PlanResult &tgt)
{
    if (src.ub)
        return false; // source UB: anything goes
    if (tgt.ub)
        return true;
    if (!src.has_ret || !tgt.has_ret)
        return false;
    for (uint32_t lane = 0; lane < src.ret_lanes; ++lane) {
        const LaneValue &s = src.ret[lane];
        const LaneValue &t = tgt.ret[lane];
        if (s.poison)
            continue; // target may refine poison to anything
        if (t.poison)
            return true;
        if (s.is_fp) {
            bool both_nan = std::isnan(s.fp) && std::isnan(t.fp);
            if (!both_nan) {
                uint64_t sb, tb;
                std::memcpy(&sb, &s.fp, 8);
                std::memcpy(&tb, &t.fp, 8);
                if (sb != tb)
                    return true;
            }
        } else if (s.bits.zext() != t.bits.zext()) {
            return true;
        }
    }
    return false;
}

constexpr uint64_t kNoViolation = std::numeric_limits<uint64_t>::max();

/** Lower @p candidate into @p lowest (atomic min). */
void
recordViolation(std::atomic<uint64_t> &lowest, uint64_t candidate)
{
    uint64_t current = lowest.load(std::memory_order_relaxed);
    while (candidate < current &&
           !lowest.compare_exchange_weak(current, candidate))
        ;
}

RefinementResult
checkWithTesting(const ir::Function &src, const ir::Function &tgt,
                 const RefineOptions &options, CachedVerdict *cached)
{
    RefinementResult result;

    // Compile both functions ONCE; the sweep then runs each input
    // through the flat plans with a per-worker reusable frame.
    const ExecPlan src_plan = ExecPlan::compile(src);
    const ExecPlan tgt_plan = ExecPlan::compile(tgt);

    unsigned bits = inputSpaceBits(src);
    const bool exhaustive = bits <= options.exhaustive_bit_limit;
    const uint64_t total =
        exhaustive ? uint64_t(1) << bits : options.sample_count;
    result.backend = exhaustive ? "exhaustive" : "sampled";

    SpecialPatternCache special_cache =
        exhaustive ? SpecialPatternCache{} : buildSpecialPatterns(src);

    // The sweep runs in chunks. first_bad converges on the LOWEST
    // violating input index, so the reported counterexample is
    // independent of thread count and scheduling.
    std::atomic<uint64_t> first_bad{kNoViolation};
    auto sweep = [&](uint64_t lo, uint64_t hi) {
        ExecFrame src_frame = src_plan.makeFrame();
        ExecFrame tgt_frame = tgt_plan.makeFrame();
        for (uint64_t index = lo; index < hi; ++index) {
            // A violation at a lower index makes the rest of this
            // chunk (and every later chunk) irrelevant.
            if (first_bad.load(std::memory_order_relaxed) <= index)
                return;
            PlanResult s, t;
            if (exhaustive) {
                s = src_plan.runExhaustive(src_frame, index);
                t = tgt_plan.runExhaustive(tgt_frame, index);
            } else {
                ExecutionInput input =
                    sampledInputAt(src, options, index, special_cache);
                s = src_plan.run(src_frame, input);
                t = tgt_plan.run(tgt_frame, input);
            }
            if (violatesPlanRefinement(s, t)) {
                recordViolation(first_bad, index);
                return;
            }
        }
    };
    const uint64_t chunk = exhaustive ? 1024 : 256;
    const unsigned threads =
        options.num_threads != 0 ? options.num_threads
                                 : TaskScheduler::hardwareThreads();
    if (threads <= 1 || total <= chunk) {
        // Serial sweep, or one that fits in one chunk: run it on the
        // caller and start no threads.
        sweep(0, total);
    } else {
        // One dependency-free task per chunk, on at most one thread
        // per chunk. The caller owns slot 0's deque and pops it LIFO,
        // so submitting the chunks in descending order has it sweep
        // chunk 0 first while thieves take the high chunks, which
        // return at once after a violation at a lower index.
        const uint64_t chunks = (total + chunk - 1) / chunk;
        TaskScheduler::Options sched_options;
        sched_options.num_threads =
            unsigned(std::min<uint64_t>(threads, chunks));
        TaskScheduler scheduler(sched_options);
        TaskScope scope(scheduler);
        for (uint64_t c = chunks; c-- > 0;) {
            const uint64_t lo = c * chunk;
            const uint64_t hi = std::min(lo + chunk, total);
            scope.submit([&sweep, lo, hi] { sweep(lo, hi); });
        }
        scope.wait();
    }

    uint64_t bad = first_bad.load();
    if (bad == kNoViolation) {
        result.verdict = Verdict::Correct;
        result.detail =
            exhaustive
                ? "exhaustive over " + std::to_string(total) + " inputs"
                : "bounded testing over " + std::to_string(total) +
                      " samples";
        recordVerdict(cached, result);
        return result;
    }

    // Re-run the single failing input to render the counterexample;
    // results are described exactly once, and the input is MOVED into
    // the counterexample rather than copied. The cache records only
    // the violating index — the input is a pure function of it.
    cached->replay = CachedVerdict::Replay::TestingIndex;
    cached->index = bad;
    ExecutionInput input =
        exhaustive ? decodeExhaustive(src, bad)
                   : sampledInputAt(src, options, bad, special_cache);
    fillCounterexample(result, src, tgt, std::move(input));
    recordVerdict(cached, result);
    return result;
}

// ---------------------------------------------------------------------
// Backend dispatch, cache key, and cache-hit re-derivation
// ---------------------------------------------------------------------

/** The backend-selection logic shared by cached and uncached paths. */
RefinementResult
dispatchBackends(const ir::Function &src, const ir::Function &tgt,
                 const RefineOptions &options, CachedVerdict *cached)
{
    if (usesSatBackend(src, tgt))
        return checkWithSat(src, tgt, options, cached);
    return checkWithTesting(src, tgt, options, cached);
}

/**
 * The cache key: a version tag, the canonical alpha-renamed prints of
 * the pair, and every option that can change the verdict or its
 * rendering. num_threads is deliberately excluded — results are
 * bit-identical at any thread count by the deterministic-parallelism
 * contract.
 */
std::string
cacheKey(const ir::Function &src, const ir::Function &tgt,
         const RefineOptions &options)
{
    std::string key = "v2\x01";
    key += ir::printFunctionCanonical(src);
    key += '\x02';
    key += ir::printFunctionCanonical(tgt);
    key += '\x03';
    key += std::to_string(options.conflict_budget);
    key += ',';
    key += std::to_string(options.exhaustive_bit_limit);
    key += ',';
    key += std::to_string(options.sample_count);
    key += ',';
    key += std::to_string(options.memory_object_bytes);
    key += ',';
    key += std::to_string(options.seed);
    key += ',';
    key += options.structural_hashing ? '1' : '0';
    // The escalation ladder changes which verdict a query can reach
    // (Timeout vs Correct-at-a-higher-tier vs Degraded), so the tier
    // list is part of the key. An empty ladder leaves the key in the
    // pre-ladder format.
    for (uint64_t tier : options.budget_tiers) {
        key += ",t";
        key += std::to_string(tier);
    }
    return key;
}

/** Rebuild a full RefinementResult from a cache hit. */
RefinementResult
rederiveFromCache(const ir::Function &src, const ir::Function &tgt,
                  const RefineOptions &options, const CachedVerdict &cached)
{
    RefinementResult result;
    result.verdict = cached.verdict;
    result.backend = cached.backend;
    result.detail = cached.detail;
    if (cached.replay == CachedVerdict::Replay::None)
        return result;

    ExecutionInput input;
    if (cached.replay == CachedVerdict::Replay::TestingIndex) {
        unsigned bits = inputSpaceBits(src);
        if (bits <= options.exhaustive_bit_limit) {
            input = decodeExhaustive(src, cached.index);
        } else {
            SpecialPatternCache special_cache = buildSpecialPatterns(src);
            input = sampledInputAt(src, options, cached.index,
                                   special_cache);
        }
    } else { // SatArgs: lane-major words over the shared signature
        size_t word = 0;
        for (unsigned i = 0; i < src.numArgs(); ++i) {
            const Type *type = src.arg(i)->type();
            unsigned lanes = laneCount(type);
            unsigned width = type->scalarType()->intWidth();
            RtValue value;
            for (unsigned lane = 0; lane < lanes; ++lane) {
                assert(word < cached.arg_lane_words.size());
                value.lanes.push_back(LaneValue::ofInt(
                    APInt(width, cached.arg_lane_words[word++])));
            }
            input.args.push_back(value);
        }
    }
    fillCounterexample(result, src, tgt, std::move(input));
    return result;
}

/**
 * The precheck + cache skeleton shared by checkRefinement and
 * RefinementSession::check: signature gates first, then either a plain
 * @p compute or the cache's compute-once protocol around it. Keeping
 * both callers on this one path is what makes session-on/session-off
 * results byte-identical outside the solver itself.
 */
RefinementResult
checkCommon(const ir::Function &src, const ir::Function &tgt,
            const RefineOptions &options,
            const std::function<RefinementResult(CachedVerdict *)> &compute)
{
    RefinementResult result;
    if (!signaturesMatch(src, tgt)) {
        result.verdict = Verdict::BadSignature;
        result.detail = "source and target signatures differ";
        return result;
    }
    if (src.returnType()->isVoid()) {
        result.verdict = Verdict::Unsupported;
        result.detail = "void functions are not checked";
        return result;
    }
    // Encodable functions never take pointers, so this check is
    // equivalent to the pre-dispatch position it used to occupy.
    if (pointerArgCount(src) != pointerArgCount(tgt)) {
        result.verdict = Verdict::BadSignature;
        result.detail = "pointer argument mismatch";
        return result;
    }

    if (!options.cache) {
        CachedVerdict scratch;
        return compute(&scratch);
    }
    // Cache path: key on the alpha-renamed pair + verdict-affecting
    // options; compute at most once per key, re-derive the
    // counterexample on hits (see verify/cache.h).
    std::string key = cacheKey(src, tgt, options);
    return options.cache->lookupOrCompute(
        key,
        [&] {
            VerifyCache::Computed computed;
            computed.result = compute(&computed.cached);
            return computed;
        },
        [&](const CachedVerdict &cached) {
            return rederiveFromCache(src, tgt, options, cached);
        });
}

} // namespace

std::string
RefinementResult::feedbackMessage(const ir::Function &src) const
{
    switch (verdict) {
      case Verdict::Correct:
        return "Transformation seems to be correct!";
      case Verdict::BadSignature:
        return "ERROR: program doesn't type check!\n"
               "The proposed function must keep the original signature.";
      case Verdict::Unsupported:
        return "ERROR: unsupported instructions for verification";
      case Verdict::Timeout:
        return "ERROR: verification timed out";
      case Verdict::Degraded:
        return "ERROR: verification degraded: " + detail;
      case Verdict::Incorrect:
        break;
    }
    std::string out = "ERROR: " + detail + "\n";
    if (counterexample) {
        out += "\nExample:\n";
        out += interp::describeInput(src, counterexample->input);
        out += "Source value: " + counterexample->source_value + "\n";
        out += "Target value: " + counterexample->target_value + "\n";
    }
    return out;
}

bool
usesSatBackend(const ir::Function &src, const ir::Function &tgt)
{
    // Vector-heavy circuits can be large; fall back to testing when
    // the total bit count is excessive.
    return canEncode(src) && canEncode(tgt) && inputSpaceBits(src) <= 128;
}

std::vector<uint64_t>
specialPatterns(unsigned width)
{
    uint64_t ones = APInt::allOnes(width).zext();
    uint64_t int_min = uint64_t(1) << (width - 1);
    std::vector<uint64_t> candidates = {
        0, 1, 2, 3,
        ones,         // -1
        ones - 1,     // -2 (0 at width 1; masked and deduped below)
        int_min,      // INT_MIN (1 at width 1)
        int_min - 1,  // INT_MAX (0 at width 1)
    };
    if (width > 3) {
        candidates.push_back(ones >> 1); // INT_MAX again; deduped
        candidates.push_back(uint64_t(1) << (width / 2));
    }
    // Narrow widths degenerate several entries onto each other (at
    // width 1 everything collapses into {0, 1}); mask each candidate
    // into range and keep the first occurrence so the list is
    // well-defined and duplicate-free at every width.
    std::vector<uint64_t> out;
    for (uint64_t value : candidates) {
        value &= ones;
        bool seen = false;
        for (uint64_t prior : out)
            seen = seen || prior == value;
        if (!seen)
            out.push_back(value);
    }
    return out;
}

RefinementResult
checkRefinement(const ir::Function &src, const ir::Function &tgt,
                const RefineOptions &options)
{
    return checkCommon(src, tgt, options, [&](CachedVerdict *cached) {
        return dispatchBackends(src, tgt, options, cached);
    });
}

// ---------------------------------------------------------------------
// Incremental session
// ---------------------------------------------------------------------

struct RefinementSession::Impl
{
    const ir::Function &src;
    RefineOptions options;
    /** Source is SAT-eligible and the session is allowed to persist. */
    bool sat_possible;
    bool initialized = false;
    /** Solver latched inconsistent or another invariant broke; every
     *  later check takes the fresh path (defensive — the session
     *  formula is satisfiable by construction). */
    bool dead = false;
    SatSolver solver;
    std::unique_ptr<CircuitBuilder> builder;
    std::vector<ValueEnc> args;
    std::optional<EncodedFunction> src_enc;
    /** Cost of the source + argument encoding, credited as savings on
     *  every reuse (the fresh path re-pays it per candidate). */
    int src_vars = 0;
    uint64_t src_clauses = 0;
    uint64_t checks = 0;
    /** Selector of the previous candidate, retired at the start of the
     *  next SAT check (0 = none pending). */
    int pending_release = 0;

    Impl(const ir::Function &src_fn, const RefineOptions &opts)
        : src(src_fn), options(opts),
          sat_possible(opts.incremental_sat && canEncode(src_fn) &&
                       inputSpaceBits(src_fn) <= 128)
    {}

    void initialize();
    void releasePending();
    RefinementResult dispatch(const ir::Function &tgt,
                              CachedVerdict *cached);
};

void
RefinementSession::Impl::initialize()
{
    initialized = true;
    LPO_TRACE_SPAN(span, "encode", "sat");
    telemetry::ScopedTimer timer(encodeHistogram());
    solver.setInterrupt(options.interrupt);
    builder = std::make_unique<CircuitBuilder>(
        solver, options.structural_hashing);
    args = encodeSharedArgs(*builder, src);
    src_enc = encodeFunction(*builder, src, &args);
    assert(src_enc && "sat_possible checked canEncode");
    src_vars = solver.numVars();
    src_clauses = solver.clausesAdded();
    if (options.sat_telemetry)
        ++options.sat_telemetry->sessions;
}

void
RefinementSession::Impl::releasePending()
{
    // Retiring a candidate's selector sweeps the whole clause database
    // (releaseVar), so it is deferred from the end of that candidate's
    // check to the start of the next solver use. The sweep runs at the
    // same point of the solver's history either way — after the last
    // solve and before any later clause or solve — so the search
    // trajectory is unchanged; a session that sees one SAT candidate
    // (the pipeline's common case) never pays for it.
    if (pending_release == 0)
        return;
    solver.releaseVar(pending_release);
    pending_release = 0;
    if (solver.inconsistent())
        dead = true; // cannot happen for well-formed encodings
}

RefinementResult
RefinementSession::Impl::dispatch(const ir::Function &tgt,
                                  CachedVerdict *cached)
{
    if (!sat_possible || !usesSatBackend(src, tgt))
        return dispatchBackends(src, tgt, options, cached);
    releasePending();
    if (dead)
        return dispatchBackends(src, tgt, options, cached);
    if (!initialized) {
        // A throw mid-initialize (the injected bitblast.throw site, or
        // a genuine encoder bug) leaves src_enc unset while
        // `initialized` is already latched; poison the session so no
        // later check dereferences the half-built encoding.
        try {
            initialize();
        } catch (...) {
            dead = true;
            throw;
        }
    }
    if (solver.inconsistent()) {
        dead = true;
        return dispatchBackends(src, tgt, options, cached);
    }

    SatTelemetry *telemetry = options.sat_telemetry;
    ++checks;
    if (checks > 1 && telemetry) {
        ++telemetry->session_reuses;
        telemetry->learnts_carried += solver.learnts();
        telemetry->session_vars_saved +=
            static_cast<uint64_t>(src_vars);
        telemetry->session_clauses_saved += src_clauses;
    }

    // Encode only the candidate's cone over the shared arguments; the
    // persistent unique table answers every subcircuit the candidate
    // shares with the source or with earlier candidates.
    int act;
    {
        LPO_TRACE_SPAN(span, "encode", "sat");
        telemetry::ScopedTimer timer(encodeHistogram());
        std::optional<EncodedFunction> tgt_enc =
            encodeFunction(*builder, tgt, &args);
        assert(tgt_enc && "usesSatBackend checked canEncode");
        CLit violation =
            refinementViolation(*builder, *src_enc, *tgt_enc);

        // Guard the miter behind a fresh selector: assuming it
        // activates this candidate's query; releasing it (before the
        // next candidate) retires the query and reclaims its clauses
        // while keeping every selector-free learnt clause.
        act = solver.newActivationVar();
        builder->requireImplies(act, violation);
    }

    // The same escalation ladder as the fresh path, except the warm
    // session's carried learnts make each tier strictly stronger than
    // its cold counterpart (the documented budget-edge asymmetry).
    const std::vector<uint64_t> tiers = budgetLadder(options);
    SatResult sat = SatResult::Unknown;
    size_t solves_run = 0;
    for (uint64_t tier_budget : tiers) {
        if (solves_run > 0 && options.degradation)
            ++options.degradation->escalations;
        uint64_t decisions_before = solver.decisions();
        uint64_t conflicts_before = solver.conflicts();
        uint64_t propagations_before = solver.propagations();
        uint64_t restarts_before = solver.restarts();
        uint64_t start_ns = telemetry::nowNanos();
        {
            LPO_TRACE_SPAN(span, "solve", "sat");
            telemetry::ScopedTimer timer(solveHistogram());
            sat = solver.solveAssuming({act}, tier_budget);
            if (span.active())
                span.arg("conflicts",
                         solver.conflicts() - conflicts_before);
        }
        uint64_t solve_ns = telemetry::nowNanos() - start_ns;
        conflictsPerSolveHistogram().record(solver.conflicts() -
                                            conflicts_before);
        ++solves_run;
        if (telemetry) {
            ++telemetry->solves;
            telemetry->decisions += solver.decisions() - decisions_before;
            telemetry->conflicts += solver.conflicts() - conflicts_before;
            telemetry->propagations +=
                solver.propagations() - propagations_before;
            telemetry->restarts += solver.restarts() - restarts_before;
            telemetry->solve_ns += solve_ns;
        }
        if (sat != SatResult::Unknown)
            break;
    }
    pending_release = act;

    if (sat == SatResult::Unsat) {
        RefinementResult result;
        result.backend = "sat";
        result.verdict = Verdict::Correct;
        result.detail = "proved by bit-blasting";
        recordVerdict(cached, result);
        return result;
    }

    // Ladder exhausted inside the session: degrade exactly as the
    // fresh path would. The concrete backend is a pure function of
    // (pair, options) — no solver state involved — so going there
    // directly is byte-identical to the fresh path's degradation and
    // skips re-burning the whole ladder.
    if (sat == SatResult::Unknown && !options.budget_tiers.empty())
        return degradeToTesting(src, tgt, options, cached);

    // Sat or budget exhaustion: the *verdict* is already known, but a
    // counterexample model depends on solver state (phase saving,
    // carried learnts), so re-prove through the one-shot oracle — the
    // exact code the session-off path runs — for byte-identical
    // output. Sat instances are the cheap direction, so this keeps
    // the expensive Unsat proofs incremental without giving up the
    // determinism contract. Budget exhaustion is the pathological
    // case — the re-proof burns up to a second full budget — but a
    // query that hard is going to be reported Timeout either way and
    // the fresh run is what makes its detail string byte-identical.
    if (telemetry)
        ++telemetry->session_fallbacks;
    return checkWithSat(src, tgt, options, cached);
}

RefinementSession::RefinementSession(const ir::Function &src,
                                     const RefineOptions &options)
    : impl_(std::make_unique<Impl>(src, options))
{}

RefinementSession::~RefinementSession() = default;

RefinementResult
RefinementSession::check(const ir::Function &tgt)
{
    return checkCommon(impl_->src, tgt, impl_->options,
                       [&](CachedVerdict *cached) {
                           return impl_->dispatch(tgt, cached);
                       });
}

} // namespace lpo::verify
