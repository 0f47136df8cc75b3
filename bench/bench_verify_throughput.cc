/**
 * @file
 * Verification throughput: the pre-PR proving path (no structural
 * hashing, no result cache) vs the accelerated one, measured as
 * verified candidates/sec over the full missed-optimization corpus
 * (RQ1 + RQ2 pairs), plus the incremental-session mode over a
 * multi-candidate stream per case.
 *
 * The workload verifies every (src, tgt) pair kRounds times — the
 * shape the rewrite library actually produces, where structurally
 * identical candidates recur across sites and rounds. The baseline
 * re-proves each recurrence from scratch; the accelerated path proves
 * once and hits the verification cache afterwards, and its first
 * proof is itself cheaper because hash-consed circuits are smaller.
 *
 * Also records, for every SAT-fragment pair, the encoded query size
 * (variables/clauses) with and without structural hashing — the
 * variable count must shrink on every pair, since src and tgt share
 * argument structure at minimum. Also reports the SAT engine's own
 * speed (propagations/s and conflicts/s of the timed solve calls over
 * the candidate stream). Emits BENCH_verify.json; tools/ci.sh gates on
 * geomean_speedup against the committed baseline.
 */
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "corpus/benchmarks.h"
#include "core/json_writer.h"
#include "core/report.h"
#include "ir/parser.h"
#include "opt/opt_driver.h"
#include "smt/bitblast.h"
#include "smt/sat.h"
#include "verify/cache.h"
#include "verify/encoder.h"
#include "verify/refine.h"

using namespace lpo;
using Clock = std::chrono::steady_clock;

namespace {

constexpr unsigned kRounds = 3;
/** Measurement repetitions; per-case times keep the minimum, which
 *  de-noises the microsecond-scale fast cases on loaded runners. The
 *  cache is recreated per repetition so every rep measures the same
 *  cold-to-warm 3-round workload. */
constexpr unsigned kReps = 3;

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

struct QuerySize
{
    int vars = 0;
    uint64_t clauses = 0;
    uint64_t unique_hits = 0;
};

/** Size of the production SAT query (verify::encodeRefinementQuery). */
QuerySize
encodeQuery(const ir::Function &src, const ir::Function &tgt,
            bool structural_hashing)
{
    smt::SatSolver solver;
    smt::CircuitBuilder builder(solver, structural_hashing);
    if (!verify::encodeRefinementQuery(builder, src, tgt))
        return {};
    return {solver.numVars(), solver.clausesAdded(),
            builder.uniqueTableHits()};
}

struct CaseResult
{
    std::string name;
    std::string backend;
    double baseline_seconds = 0;
    double optimized_seconds = 0;
    QuerySize size_before;
    QuerySize size_after;
};

/**
 * The incremental-session comparison: each SAT-fragment case presents
 * a stream of distinct candidate targets — the expected target, the
 * identity, and the opt pipeline's rewrites of both, the shape LLM
 * feedback retries and hybrid fallback produce. The PR 2 path proves
 * each candidate in a fresh hash-consed solver; the session path
 * bit-blasts the source once and solves every candidate under an
 * activation-literal assumption in one persistent solver. No cache in
 * either mode: every candidate is distinct, so this measures raw
 * proving throughput.
 */
struct StreamResult
{
    std::string name;
    size_t catalog_index = 0;
    size_t candidates = 0;
    double fresh_seconds = 0;
    double session_seconds = 0;
};

} // namespace

int
main()
{
    std::vector<corpus::MissedOptBenchmark> catalog =
        corpus::rq1Benchmarks();
    for (const auto &bench : corpus::rq2Benchmarks())
        catalog.push_back(bench);

    // Parse every pair once, up front.
    std::vector<std::unique_ptr<ir::Context>> contexts;
    std::vector<std::unique_ptr<ir::Function>> srcs, tgts;
    std::vector<CaseResult> results;
    for (const auto &bench : catalog) {
        contexts.push_back(std::make_unique<ir::Context>());
        auto src = ir::parseFunction(*contexts.back(), bench.src_text);
        auto tgt = ir::parseFunction(*contexts.back(), bench.tgt_text);
        if (!src.ok() || !tgt.ok()) {
            std::fprintf(stderr, "parse failed for %s\n",
                         bench.issue_id.c_str());
            return 1;
        }
        srcs.push_back(std::move(*src));
        tgts.push_back(std::move(*tgt));
        CaseResult result;
        result.name = bench.issue_id;
        results.push_back(std::move(result));
    }

    verify::VerifyCache::Stats cache_stats;
    for (unsigned rep = 0; rep < kReps; ++rep) {
        verify::VerifyCache cache;
        for (size_t i = 0; i < catalog.size(); ++i) {
            // Pre-PR path: no unique table, every recurrence
            // re-proved.
            verify::RefineOptions baseline_options;
            baseline_options.num_threads = 1;
            baseline_options.structural_hashing = false;
            auto start = Clock::now();
            for (unsigned round = 0; round < kRounds; ++round) {
                auto verdict = verify::checkRefinement(
                    *srcs[i], *tgts[i], baseline_options);
                results[i].backend = verdict.backend;
            }
            double baseline_seconds = secondsSince(start);

            // Accelerated path: hash-consed circuits + shared cache.
            verify::RefineOptions optimized_options;
            optimized_options.num_threads = 1;
            optimized_options.cache = &cache;
            start = Clock::now();
            for (unsigned round = 0; round < kRounds; ++round)
                verify::checkRefinement(*srcs[i], *tgts[i],
                                        optimized_options);
            double optimized_seconds = secondsSince(start);

            if (rep == 0 ||
                baseline_seconds < results[i].baseline_seconds)
                results[i].baseline_seconds = baseline_seconds;
            if (rep == 0 ||
                optimized_seconds < results[i].optimized_seconds)
                results[i].optimized_seconds = optimized_seconds;
        }
        // Hit/miss counts are identical every rep (deterministic);
        // keep the last rep's.
        cache_stats = cache.stats();
    }

    double baseline_total = 0, optimized_total = 0;
    bool all_sat_queries_shrank = true;
    for (size_t i = 0; i < catalog.size(); ++i) {
        // Query-size accounting for the SAT fragment.
        if (verify::usesSatBackend(*srcs[i], *tgts[i])) {
            results[i].size_before = encodeQuery(*srcs[i], *tgts[i],
                                                 false);
            results[i].size_after = encodeQuery(*srcs[i], *tgts[i],
                                                true);
            // Any unique-table hit is a gate that would otherwise
            // have allocated a variable, so queries WITH repeated
            // subcircuits must strictly shrink; those without must at
            // least not grow.
            bool has_repetition = results[i].size_after.unique_hits > 0;
            if (results[i].size_after.vars >
                    results[i].size_before.vars ||
                (has_repetition && results[i].size_after.vars >=
                                       results[i].size_before.vars))
                all_sat_queries_shrank = false;
        }
        baseline_total += results[i].baseline_seconds;
        optimized_total += results[i].optimized_seconds;
    }

    // ----------------------------------------------------------------
    // Incremental-session mode over the multi-candidate stream.
    // ----------------------------------------------------------------
    std::vector<StreamResult> streams;
    std::vector<std::vector<std::unique_ptr<ir::Function>>> stream_cands;
    for (size_t i = 0; i < catalog.size(); ++i) {
        if (!verify::usesSatBackend(*srcs[i], *tgts[i]))
            continue;
        StreamResult stream;
        stream.name = results[i].name;
        stream.catalog_index = i;
        std::vector<std::unique_ptr<ir::Function>> cands;
        cands.push_back(ir::parseFunction(
            *contexts[i], catalog[i].tgt_text).take());
        cands.push_back(ir::parseFunction(
            *contexts[i], catalog[i].src_text).take());
        cands.push_back(opt::optimizeFunction(*srcs[i]));
        cands.push_back(opt::optimizeFunction(*tgts[i]));
        stream.candidates = cands.size();
        streams.push_back(std::move(stream));
        stream_cands.push_back(std::move(cands));
    }
    verify::RefineOptions stream_options;
    stream_options.num_threads = 1;
    for (unsigned rep = 0; rep < kReps; ++rep) {
        for (size_t s = 0; s < streams.size(); ++s) {
            size_t i = streams[s].catalog_index;

            verify::RefineOptions fresh_options = stream_options;
            fresh_options.incremental_sat = false;
            auto start = Clock::now();
            for (const auto &cand : stream_cands[s])
                verify::checkRefinement(*srcs[i], *cand, fresh_options);
            double fresh_seconds = secondsSince(start);

            verify::RefineOptions session_options = stream_options;
            session_options.incremental_sat = true;
            start = Clock::now();
            verify::RefinementSession session(*srcs[i], session_options);
            for (const auto &cand : stream_cands[s])
                session.check(*cand);
            double session_seconds = secondsSince(start);

            if (rep == 0 || fresh_seconds < streams[s].fresh_seconds)
                streams[s].fresh_seconds = fresh_seconds;
            if (rep == 0 || session_seconds < streams[s].session_seconds)
                streams[s].session_seconds = session_seconds;
        }
    }

    // SAT engine speed: every stream candidate proved once more on a
    // fresh solver, with the solve calls timed. The work (conflicts,
    // propagations) is deterministic; its rate is the engine's speed.
    verify::SatTelemetry engine;
    for (unsigned rep = 0; rep < kReps; ++rep) {
        verify::SatTelemetry pass;
        verify::RefineOptions engine_options = stream_options;
        engine_options.incremental_sat = false;
        engine_options.sat_telemetry = &pass;
        for (size_t s = 0; s < streams.size(); ++s)
            for (const auto &cand : stream_cands[s])
                verify::checkRefinement(*srcs[streams[s].catalog_index],
                                        *cand, engine_options);
        if (rep == 0 || pass.solve_ns < engine.solve_ns)
            engine = pass;
    }
    double engine_seconds = static_cast<double>(engine.solve_ns) / 1e9;
    double props_per_sec = engine.propagations / engine_seconds;
    double conflicts_per_sec = engine.conflicts / engine_seconds;
    std::printf("sat engine: %llu solves, %llu conflicts, %llu "
                "propagations in %.1f ms: %.0f propagations/s, %.0f "
                "conflicts/s\n",
                static_cast<unsigned long long>(engine.solves),
                static_cast<unsigned long long>(engine.conflicts),
                static_cast<unsigned long long>(engine.propagations),
                engine_seconds * 1e3, props_per_sec, conflicts_per_sec);

    double stream_fresh_total = 0, stream_session_total = 0;
    uint64_t stream_candidates = 0;
    std::vector<double> session_speedups;
    std::printf("\n%-14s %5s %14s %16s %9s\n", "stream", "cands",
                "fresh cand/s", "session cand/s", "speedup");
    for (const StreamResult &stream : streams) {
        double speedup = stream.fresh_seconds / stream.session_seconds;
        session_speedups.push_back(speedup);
        stream_fresh_total += stream.fresh_seconds;
        stream_session_total += stream.session_seconds;
        stream_candidates += stream.candidates;
        std::printf("%-14s %5zu %14.0f %16.0f %8.1fx\n",
                    stream.name.c_str(), stream.candidates,
                    stream.candidates / stream.fresh_seconds,
                    stream.candidates / stream.session_seconds, speedup);
    }
    double session_geomean = core::geomean(session_speedups);
    double stream_fresh_cps = stream_candidates / stream_fresh_total;
    double stream_session_cps = stream_candidates / stream_session_total;
    std::printf("stream: %llu candidates over %zu cases\n",
                static_cast<unsigned long long>(stream_candidates),
                streams.size());
    std::printf("fresh per-candidate: %10.1f verified candidates/sec\n",
                stream_fresh_cps);
    std::printf("incremental session: %10.1f verified candidates/sec\n",
                stream_session_cps);
    std::printf("session geomean speedup: %.2fx\n", session_geomean);

    const uint64_t candidates = catalog.size() * kRounds;
    double baseline_cps = candidates / baseline_total;
    double optimized_cps = candidates / optimized_total;

    std::printf("%-14s %-10s %12s %12s %9s %8s %8s\n", "case", "backend",
                "base cand/s", "opt cand/s", "speedup", "vars-",
                "vars+");
    std::vector<double> speedups;
    core::JsonWriter json;
    json.beginObject();
    json.key("benchmarks").beginArray();
    for (const CaseResult &r : results) {
        double speedup = r.baseline_seconds / r.optimized_seconds;
        speedups.push_back(speedup);
        std::printf("%-14s %-10s %12.0f %12.0f %8.1fx %8d %8d\n",
                    r.name.c_str(), r.backend.c_str(),
                    kRounds / r.baseline_seconds,
                    kRounds / r.optimized_seconds, speedup,
                    r.size_before.vars, r.size_after.vars);
        json.beginObject(core::JsonWriter::Layout::Inline);
        json.field("name", r.name);
        json.field("backend", r.backend);
        json.field("baseline_cands_per_sec",
                   kRounds / r.baseline_seconds, 1);
        json.field("optimized_cands_per_sec",
                   kRounds / r.optimized_seconds, 1);
        json.field("speedup", speedup, 2);
        json.field("sat_vars_before", r.size_before.vars);
        json.field("sat_vars_after", r.size_after.vars);
        json.field("sat_clauses_before", r.size_before.clauses);
        json.field("sat_clauses_after", r.size_after.clauses);
        json.field("unique_table_hits", r.size_after.unique_hits);
        json.endObject();
    }
    json.endArray();

    double geomean_speedup = core::geomean(speedups);
    double hit_rate = cache_stats.hitRate();
    std::printf("\ncorpus: %llu candidates over %u rounds\n",
                static_cast<unsigned long long>(candidates), kRounds);
    std::printf("baseline:  %10.1f verified candidates/sec\n",
                baseline_cps);
    std::printf("optimized: %10.1f verified candidates/sec\n",
                optimized_cps);
    std::printf("geomean speedup: %.2fx\n", geomean_speedup);
    std::printf("verify cache: %s\n",
                core::cacheSummary(cache_stats.hits, cache_stats.misses)
                    .c_str());
    std::printf("SAT vars reduced on every repeated-subcircuit query: "
                "%s\n",
                all_sat_queries_shrank ? "yes" : "NO");

    json.field("rounds", kRounds);
    json.field("baseline_cands_per_sec", baseline_cps, 1);
    json.field("optimized_cands_per_sec", optimized_cps, 1);
    json.field("cache_hits", cache_stats.hits);
    json.field("cache_misses", cache_stats.misses);
    json.field("cache_hit_rate", hit_rate, 4);
    json.field("sat_vars_reduced_on_all_queries", all_sat_queries_shrank);
    json.field("stream_cases", static_cast<uint64_t>(streams.size()));
    json.field("stream_candidates", stream_candidates);
    json.field("stream_fresh_cands_per_sec", stream_fresh_cps, 1);
    json.field("stream_session_cands_per_sec", stream_session_cps, 1);
    json.field("session_geomean_speedup", session_geomean, 2);
    json.field("sat_solves", engine.solves);
    json.field("sat_conflicts", engine.conflicts);
    json.field("sat_propagations", engine.propagations);
    json.field("sat_propagations_per_sec", props_per_sec, 0);
    json.field("sat_conflicts_per_sec", conflicts_per_sec, 0);
    json.field("geomean_speedup", geomean_speedup, 2);
    json.endObject();

    std::ofstream out("BENCH_verify.json");
    out << json.str() << "\n";
    std::printf("wrote BENCH_verify.json\n");

    if (!all_sat_queries_shrank) {
        std::fprintf(stderr,
                     "FAIL: structural hashing did not shrink every "
                     "SAT query\n");
        return 1;
    }
    if (cache_stats.hits == 0) {
        std::fprintf(stderr, "FAIL: cache hit rate is zero\n");
        return 1;
    }
    if (session_geomean < 1.5) {
        std::fprintf(stderr,
                     "FAIL: incremental sessions delivered only %.2fx "
                     "geomean over the per-candidate path (need 1.5x)\n",
                     session_geomean);
        return 1;
    }
    return 0;
}
