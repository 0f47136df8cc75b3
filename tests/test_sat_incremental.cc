// Incremental SAT tests: assumption-based solving, activation-literal
// groups with release/reclamation, unsat cores, and the
// RefinementSession determinism contract — session answers must be
// byte-identical to fresh single-shot solves, on random CNF streams
// and on the whole missed-optimization corpus, at any thread count.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "corpus/benchmarks.h"
#include "corpus/generator.h"
#include "core/pipeline.h"
#include "extract/extractor.h"
#include "ir/parser.h"
#include "ir/printer.h"
#include "llm/mock_model.h"
#include "opt/opt_driver.h"
#include "smt/bitblast.h"
#include "smt/sat.h"
#include "support/rng.h"
#include "verify/refine.h"

using namespace lpo;
using namespace lpo::smt;

namespace {

/** True iff @p clause is satisfied under the solver's model. */
bool
modelSatisfies(const SatSolver &solver, const std::vector<Lit> &clause)
{
    for (Lit lit : clause)
        if ((lit > 0) == solver.modelValue(std::abs(lit)))
            return true;
    return false;
}

} // namespace

TEST(SatIncrementalTest, ActivationGroupsToggleIndependently)
{
    SatSolver s;
    int x = s.newVar();
    int act_pos = s.newActivationVar();
    int act_neg = s.newActivationVar();
    ASSERT_TRUE(s.addBinary(-act_pos, x));  // group A: x
    ASSERT_TRUE(s.addBinary(-act_neg, -x)); // group B: !x

    EXPECT_EQ(s.solveAssuming({act_pos}), SatResult::Sat);
    EXPECT_TRUE(s.modelValue(x));
    EXPECT_EQ(s.solveAssuming({act_neg}), SatResult::Sat);
    EXPECT_FALSE(s.modelValue(x));

    // Both at once contradict; the core names only the assumptions.
    EXPECT_EQ(s.solveAssuming({act_pos, act_neg}), SatResult::Unsat);
    EXPECT_FALSE(s.inconsistent()) << "assumption failure must not latch";
    for (Lit lit : s.unsatCore())
        EXPECT_TRUE(lit == act_pos || lit == act_neg) << "foreign core lit";
    EXPECT_FALSE(s.unsatCore().empty());

    // Releasing group A permanently falsifies its selector; group B
    // still works, and assuming the released selector now fails with
    // the singleton core.
    s.releaseVar(act_pos);
    EXPECT_EQ(s.solveAssuming({act_neg}), SatResult::Sat);
    EXPECT_FALSE(s.modelValue(x));
    EXPECT_EQ(s.solveAssuming({act_pos}), SatResult::Unsat);
    ASSERT_EQ(s.unsatCore().size(), 1u);
    EXPECT_EQ(s.unsatCore()[0], act_pos);
}

TEST(SatIncrementalTest, ReleaseReclaimsGuardedClauses)
{
    SatSolver s;
    std::vector<int> vars;
    for (int i = 0; i < 6; ++i)
        vars.push_back(s.newVar());
    int act = s.newActivationVar();
    // A handful of guarded clauses plus one unguarded.
    ASSERT_TRUE(s.addBinary(vars[0], vars[1]));
    for (int i = 0; i + 1 < 6; ++i)
        ASSERT_TRUE(s.addTernary(-act, vars[i], -vars[i + 1]));
    EXPECT_EQ(s.solveAssuming({act}), SatResult::Sat);

    uint64_t reclaimed_before = s.clausesReclaimed();
    s.releaseVar(act);
    EXPECT_GT(s.clausesReclaimed(), reclaimed_before)
        << "release must sweep the guarded group";
    EXPECT_EQ(s.solve(), SatResult::Sat);
}

TEST(SatIncrementalTest, ActivationVarsAreNeverDecided)
{
    // A session-shaped stream: one shared source circuit and three
    // candidate miters alive at once, each behind its own activation
    // var. The inputs are pinned by assumptions, so propagation fixes
    // every circuit variable and the only free variables left are the
    // other candidates' selectors. Deciding one of them would count as
    // a decision; the queue never holds them, so none is made.
    SatSolver sat;
    CircuitBuilder cb(sat);
    BitVec a = cb.freshBV(8);
    BitVec b = cb.freshBV(8);
    BitVec src = cb.bvAdd(cb.bvAnd(a, b), cb.bvOr(a, b));
    struct Candidate
    {
        BitVec bits;
        uint8_t (*eval)(uint8_t, uint8_t);
    };
    const Candidate candidates[] = {
        {cb.bvAdd(a, b), [](uint8_t x, uint8_t y) -> uint8_t { return x + y; }},
        {cb.bvXor(a, b), [](uint8_t x, uint8_t y) -> uint8_t { return x ^ y; }},
        {cb.bvSub(a, b), [](uint8_t x, uint8_t y) -> uint8_t { return x - y; }},
    };
    std::vector<int> selectors;
    for (const Candidate &c : candidates) {
        int act = sat.newActivationVar();
        cb.requireImplies(act, -cb.bvEq(src, c.bits));
        selectors.push_back(act);
    }
    const std::pair<uint8_t, uint8_t> inputs[] = {
        {200, 100}, {3, 5}, {0, 255}, {128, 128}};
    for (size_t i = 0; i < std::size(candidates); ++i) {
        for (auto [x, y] : inputs) {
            std::vector<Lit> assumptions = {selectors[i]};
            for (int bit = 0; bit < 8; ++bit) {
                assumptions.push_back((x >> bit) & 1 ? a[bit] : -a[bit]);
                assumptions.push_back((y >> bit) & 1 ? b[bit] : -b[bit]);
            }
            uint8_t want = static_cast<uint8_t>(x + y);
            SatResult expected = candidates[i].eval(x, y) == want
                                     ? SatResult::Unsat
                                     : SatResult::Sat;
            EXPECT_EQ(sat.solveAssuming(assumptions), expected)
                << "candidate " << i << " at " << int(x) << "," << int(y);
            EXPECT_EQ(sat.decisions(), 0u)
                << "candidate " << i << " at " << int(x) << "," << int(y);
        }
        sat.releaseVar(selectors[i]);
    }
}

TEST(SatIncrementalTest, UnsatCoreIsSufficient)
{
    // a -> x, b -> y, c -> (!x | !y): {a, b, c} is unsat and the core
    // must itself be unsat when re-assumed.
    SatSolver s;
    int x = s.newVar(), y = s.newVar();
    int a = s.newActivationVar();
    int b = s.newActivationVar();
    int c = s.newActivationVar();
    ASSERT_TRUE(s.addBinary(-a, x));
    ASSERT_TRUE(s.addBinary(-b, y));
    ASSERT_TRUE(s.addTernary(-c, -x, -y));

    ASSERT_EQ(s.solveAssuming({a, b, c}), SatResult::Unsat);
    std::vector<Lit> core = s.unsatCore();
    ASSERT_FALSE(core.empty());
    for (Lit lit : core)
        EXPECT_TRUE(lit == a || lit == b || lit == c);
    EXPECT_EQ(s.solveAssuming(core), SatResult::Unsat)
        << "the extracted core must be refutable on its own";
    // Any two of the three are satisfiable together.
    EXPECT_EQ(s.solveAssuming({a, b}), SatResult::Sat);
    EXPECT_EQ(s.solveAssuming({a, c}), SatResult::Sat);
    EXPECT_EQ(s.solveAssuming({b, c}), SatResult::Sat);
}

TEST(SatIncrementalTest, GlobalUnsatLatchesEvenUnderAssumptions)
{
    SatSolver s;
    int x = s.newVar();
    int act = s.newActivationVar();
    ASSERT_TRUE(s.addUnit(x));
    ASSERT_TRUE(s.addBinary(-act, x)); // redundant guard
    EXPECT_FALSE(s.addUnit(-x));
    EXPECT_EQ(s.solveAssuming({act}), SatResult::Unsat);
    EXPECT_TRUE(s.inconsistent());
    EXPECT_TRUE(s.unsatCore().empty())
        << "formula-level unsat has no assumption core";
}

TEST(SatIncrementalTest, SolverStaysUsableAfterSatAnswers)
{
    // Model snapshots survive the return to level 0, and clauses can
    // keep arriving between solves.
    SatSolver s;
    int x = s.newVar(), y = s.newVar();
    ASSERT_TRUE(s.addBinary(x, y));
    ASSERT_EQ(s.solve(), SatResult::Sat);
    EXPECT_TRUE(s.modelValue(x) || s.modelValue(y));
    ASSERT_TRUE(s.addUnit(-x));
    ASSERT_EQ(s.solve(), SatResult::Sat);
    EXPECT_FALSE(s.modelValue(x));
    EXPECT_TRUE(s.modelValue(y));
}

class SatIncrementalFuzz : public testing::TestWithParam<int>
{
};

/**
 * The core differential property: a long-lived session solver — base
 * clauses plus a stream of activation-guarded candidate groups with
 * releases in between — answers every query exactly like a fresh
 * solver given only base + that query's active groups.
 */
TEST_P(SatIncrementalFuzz, SessionAgreesWithFreshSolves)
{
    Rng rng(GetParam() * 104729 + 7);
    for (int iter = 0; iter < 60; ++iter) {
        const int nv = 5 + rng.nextBelow(10);
        SatSolver session;
        for (int v = 0; v < nv; ++v)
            session.newVar();

        // Base: satisfiable by construction (every clause holds a
        // positive literal, so all-true satisfies it) so the session
        // can never latch globally unsat.
        std::vector<std::vector<Lit>> base;
        const int nbase = 4 + rng.nextBelow(20);
        for (int c = 0; c < nbase; ++c) {
            std::vector<Lit> clause;
            int len = 1 + rng.nextBelow(3);
            for (int l = 0; l < len; ++l) {
                int v = 1 + rng.nextBelow(nv);
                clause.push_back(rng.chance(0.5) ? v : -v);
            }
            clause[0] = std::abs(clause[0]);
            base.push_back(clause);
            ASSERT_TRUE(session.addClause(clause));
        }

        // A stream of guarded groups; two may be active at once.
        const int ngroups = 4 + rng.nextBelow(5);
        std::vector<int> selectors;
        std::vector<std::vector<std::vector<Lit>>> groups;
        std::vector<bool> released;
        for (int g = 0; g < ngroups; ++g) {
            int act = session.newActivationVar();
            selectors.push_back(act);
            released.push_back(false);
            std::vector<std::vector<Lit>> group;
            int nclauses = 1 + rng.nextBelow(6);
            for (int c = 0; c < nclauses; ++c) {
                std::vector<Lit> clause;
                int len = 1 + rng.nextBelow(3);
                for (int l = 0; l < len; ++l) {
                    int v = 1 + rng.nextBelow(nv);
                    clause.push_back(rng.chance(0.5) ? v : -v);
                }
                group.push_back(clause);
                std::vector<Lit> guarded{-act};
                guarded.insert(guarded.end(), clause.begin(), clause.end());
                ASSERT_TRUE(session.addClause(guarded));
            }
            groups.push_back(group);

            // Query: this group, optionally together with one earlier
            // unreleased group.
            std::vector<int> active{g};
            if (g > 0 && rng.chance(0.4)) {
                int other = static_cast<int>(rng.nextBelow(g));
                if (!released[other])
                    active.push_back(other);
            }
            std::vector<Lit> assumptions;
            for (int idx : active)
                assumptions.push_back(selectors[idx]);

            SatSolver fresh;
            for (int v = 0; v < nv; ++v)
                fresh.newVar();
            bool consistent = true;
            for (const auto &clause : base)
                consistent = consistent && fresh.addClause(clause);
            for (int idx : active)
                for (const auto &clause : groups[idx])
                    consistent = consistent && fresh.addClause(clause);
            SatResult expected =
                consistent ? fresh.solve() : SatResult::Unsat;

            SatResult got = session.solveAssuming(assumptions);
            ASSERT_EQ(got, expected)
                << "seed " << GetParam() << " iter " << iter
                << " group " << g;
            if (got == SatResult::Sat) {
                for (const auto &clause : base)
                    ASSERT_TRUE(modelSatisfies(session, clause));
                for (int idx : active)
                    for (const auto &clause : groups[idx])
                        ASSERT_TRUE(modelSatisfies(session, clause))
                            << "model violates an active group clause";
            } else {
                ASSERT_FALSE(session.inconsistent())
                    << "assumption-unsat must not latch";
                for (Lit lit : session.unsatCore()) {
                    bool known = false;
                    for (Lit a : assumptions)
                        known = known || a == lit;
                    ASSERT_TRUE(known) << "core lit outside assumptions";
                }
                ASSERT_EQ(session.solveAssuming(session.unsatCore()),
                          SatResult::Unsat)
                    << "unsat core must be refutable on its own";
            }

            // Randomly retire old groups mid-stream.
            if (rng.chance(0.5)) {
                int victim = static_cast<int>(rng.nextBelow(g + 1));
                if (!released[victim]) {
                    session.releaseVar(selectors[victim]);
                    released[victim] = true;
                }
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SatIncrementalFuzz,
                         testing::Values(1, 2, 3, 4));

// ---------------------------------------------------------------------
// RefinementSession vs fresh checkRefinement
// ---------------------------------------------------------------------

namespace {

/** Render every observable piece of a result into one string. */
std::string
resultFingerprint(const verify::RefinementResult &result,
                  const ir::Function &src)
{
    std::string out = result.backend + "|" + result.detail + "|" +
                      std::to_string(static_cast<int>(result.verdict));
    out += "|";
    out += result.feedbackMessage(src);
    return out;
}

void
expectIdenticalResults(const verify::RefinementResult &fresh,
                       const verify::RefinementResult &session,
                       const ir::Function &src, const std::string &label)
{
    EXPECT_EQ(resultFingerprint(fresh, src),
              resultFingerprint(session, src))
        << label;
}

} // namespace

TEST(RefinementSessionTest, CorpusStreamsMatchFreshVerdictsByteForByte)
{
    std::vector<corpus::MissedOptBenchmark> catalog =
        corpus::rq1Benchmarks();
    for (const auto &bench : corpus::rq2Benchmarks())
        catalog.push_back(bench);

    verify::RefineOptions fresh_options;
    fresh_options.num_threads = 1;
    fresh_options.incremental_sat = false;
    verify::RefineOptions session_options;
    session_options.num_threads = 1;
    session_options.incremental_sat = true;

    unsigned sat_cases = 0;
    for (const auto &bench : catalog) {
        ir::Context ctx;
        auto src = ir::parseFunction(ctx, bench.src_text);
        auto tgt = ir::parseFunction(ctx, bench.tgt_text);
        ASSERT_TRUE(src.ok() && tgt.ok()) << bench.issue_id;

        // The candidate stream one case produces: the expected target,
        // the identity, and the opt pipeline's own rewrites of both.
        std::vector<const ir::Function *> candidates;
        auto opt_src = opt::optimizeFunction(**src);
        auto opt_tgt = opt::optimizeFunction(**tgt);
        candidates.push_back((*tgt).get());
        candidates.push_back((*src).get());
        candidates.push_back(opt_src.get());
        candidates.push_back(opt_tgt.get());

        if (verify::usesSatBackend(**src, **tgt))
            ++sat_cases;
        verify::RefinementSession session(**src, session_options);
        for (size_t c = 0; c < candidates.size(); ++c) {
            verify::RefinementResult fresh = verify::checkRefinement(
                **src, *candidates[c], fresh_options);
            verify::RefinementResult via_session =
                session.check(*candidates[c]);
            expectIdenticalResults(fresh, via_session, **src,
                                   bench.issue_id + " candidate " +
                                       std::to_string(c));
        }
    }
    EXPECT_GT(sat_cases, 10u)
        << "corpus no longer exercises the SAT session path";
}

TEST(RefinementSessionTest, SessionReportsReuseTelemetry)
{
    const corpus::MissedOptBenchmark *bench =
        corpus::findBenchmark("76609");
    if (!bench)
        bench = &corpus::rq1Benchmarks().front();
    ir::Context ctx;
    auto src = ir::parseFunction(ctx, bench->src_text);
    auto tgt = ir::parseFunction(ctx, bench->tgt_text);
    ASSERT_TRUE(src.ok() && tgt.ok());
    ASSERT_TRUE(verify::usesSatBackend(**src, **tgt));

    verify::SatTelemetry telemetry;
    verify::RefineOptions options;
    options.num_threads = 1;
    options.sat_telemetry = &telemetry;
    verify::RefinementSession session(**src, options);
    EXPECT_EQ(telemetry.sessions, 0u) << "sessions bit-blast lazily";
    session.check(**tgt);
    EXPECT_EQ(telemetry.sessions, 1u);
    EXPECT_EQ(telemetry.session_reuses, 0u);
    session.check(**src);
    session.check(**tgt);
    EXPECT_EQ(telemetry.sessions, 1u);
    EXPECT_EQ(telemetry.session_reuses, 2u);
    EXPECT_GT(telemetry.session_vars_saved, 0u);
    EXPECT_GT(telemetry.solves, 0u);
}

// ---------------------------------------------------------------------
// Pipeline-level byte identity: session on/off x 1/8 threads
// ---------------------------------------------------------------------

namespace {

struct PipelineRun
{
    core::PipelineStats stats;
    std::vector<core::CaseOutcome> outcomes;
};

PipelineRun
runPipeline(unsigned num_threads, bool incremental_sat)
{
    ir::Context ctx;
    corpus::CorpusOptions opts;
    opts.files_per_project = 1;
    opts.functions_per_file = 12;
    opts.pattern_density = 0.9;
    corpus::CorpusGenerator generator(ctx, opts);
    auto module =
        generator.generateFile(corpus::paperProjects().front(), 0);

    // A model that almost always has the right idea but mangles the
    // semantics on the first try and repairs after feedback: every
    // such case streams 2+ candidates through one session, and the
    // Incorrect legs carry counterexamples whose bytes the feedback
    // strings expose below.
    llm::ModelProfile profile = llm::modelByName("Gemini2.0T");
    profile.skill = 2.5;
    profile.syntax_error_rate = 0.0;
    profile.semantic_error_rate = 0.9;
    profile.repair_skill = 1.0;
    llm::MockModel model(profile, 77);
    core::PipelineConfig config;
    config.num_threads = num_threads;
    config.proposer = core::ProposerKind::Hybrid;
    config.refine.incremental_sat = incremental_sat;
    core::Pipeline pipeline(model, config);
    extract::Extractor extractor;

    PipelineRun run;
    run.outcomes = pipeline.processModule(*module, extractor, 3);
    run.stats = pipeline.stats();
    return run;
}

void
expectSameOutcomes(const PipelineRun &a, const PipelineRun &b)
{
    ASSERT_EQ(a.outcomes.size(), b.outcomes.size());
    for (size_t i = 0; i < a.outcomes.size(); ++i) {
        const core::CaseOutcome &x = a.outcomes[i];
        const core::CaseOutcome &y = b.outcomes[i];
        EXPECT_EQ(x.status, y.status) << "case " << i;
        EXPECT_EQ(x.attempts, y.attempts) << "case " << i;
        EXPECT_EQ(x.candidate_text, y.candidate_text) << "case " << i;
        // Feedback strings embed counterexamples verbatim, so this is
        // the byte-identity check for Incorrect verdicts.
        EXPECT_EQ(x.last_feedback, y.last_feedback) << "case " << i;
        EXPECT_EQ(x.verifier_backend, y.verifier_backend) << "case " << i;
        EXPECT_EQ(x.proposer, y.proposer) << "case " << i;
        EXPECT_EQ(x.total_seconds, y.total_seconds) << "case " << i;
        EXPECT_EQ(x.cost_usd, y.cost_usd) << "case " << i;
    }
    EXPECT_EQ(a.stats.cases, b.stats.cases);
    EXPECT_EQ(a.stats.found, b.stats.found);
    EXPECT_EQ(a.stats.verifier_calls, b.stats.verifier_calls);
    EXPECT_EQ(a.stats.incorrect_candidates, b.stats.incorrect_candidates);
}

} // namespace

TEST(RefinementSessionTest, PipelineOutcomesInvariantAcrossSessionAndThreads)
{
    PipelineRun session_serial = runPipeline(1, true);
    PipelineRun fresh_serial = runPipeline(1, false);
    PipelineRun session_parallel = runPipeline(8, true);
    PipelineRun fresh_parallel = runPipeline(8, false);

    ASSERT_GT(session_serial.outcomes.size(), 1u);
    expectSameOutcomes(session_serial, fresh_serial);
    expectSameOutcomes(session_serial, session_parallel);
    expectSameOutcomes(session_serial, fresh_parallel);

    // Off means off: no sessions were created, nothing was carried.
    EXPECT_EQ(fresh_serial.stats.sat_sessions, 0u);
    EXPECT_EQ(fresh_serial.stats.session_reuses, 0u);
    // On means on: the hybrid multi-candidate stream must actually
    // exercise reuse, or the session is dead weight.
    EXPECT_GT(session_serial.stats.sat_sessions, 0u);
    EXPECT_GT(session_serial.stats.session_reuses, 0u);
}

