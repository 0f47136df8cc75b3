// CDCL SAT solver tests: unit cases plus a randomized property sweep
// against brute-force enumeration.

#include <gtest/gtest.h>

#include <cstdlib>
#include <iterator>
#include <string>
#include <vector>

#include "ir/parser.h"
#include "smt/bitblast.h"
#include "smt/sat.h"
#include "support/rng.h"
#include "verify/encoder.h"
#include "verify/refine.h"

using namespace lpo;
using namespace lpo::smt;

TEST(SatTest, TrivialSatAndUnsat)
{
    SatSolver sat;
    int a = sat.newVar();
    EXPECT_TRUE(sat.addUnit(a));
    EXPECT_EQ(sat.solve(), SatResult::Sat);
    EXPECT_TRUE(sat.modelValue(a));

    SatSolver unsat;
    int b = unsat.newVar();
    unsat.addUnit(b);
    EXPECT_FALSE(unsat.addUnit(-b));
    EXPECT_EQ(unsat.solve(), SatResult::Unsat);
}

TEST(SatTest, PropagationChain)
{
    SatSolver s;
    int a = s.newVar(), b = s.newVar(), c = s.newVar();
    s.addUnit(a);
    s.addBinary(-a, b);  // a -> b
    s.addBinary(-b, c);  // b -> c
    EXPECT_EQ(s.solve(), SatResult::Sat);
    EXPECT_TRUE(s.modelValue(b));
    EXPECT_TRUE(s.modelValue(c));
}

TEST(SatTest, RequiresConflictAnalysis)
{
    // Pigeonhole PHP(3,2): 3 pigeons, 2 holes — unsat, needs learning.
    SatSolver s;
    int var[3][2];
    for (auto &row : var)
        for (int &v : row)
            v = s.newVar();
    for (auto &row : var)
        s.addBinary(row[0], row[1]); // each pigeon in some hole
    for (int hole = 0; hole < 2; ++hole)
        for (int i = 0; i < 3; ++i)
            for (int j = i + 1; j < 3; ++j)
                s.addBinary(-var[i][hole], -var[j][hole]);
    EXPECT_EQ(s.solve(), SatResult::Unsat);
    EXPECT_GT(s.conflicts(), 0u);
}

TEST(SatTest, ConflictBudgetGivesUnknown)
{
    // PHP(7,6) is hard enough to exceed a 5-conflict budget.
    SatSolver s;
    const int pigeons = 7, holes = 6;
    std::vector<std::vector<int>> var(pigeons, std::vector<int>(holes));
    for (auto &row : var)
        for (int &v : row)
            v = s.newVar();
    for (auto &row : var) {
        std::vector<Lit> clause(row.begin(), row.end());
        s.addClause(clause);
    }
    for (int hole = 0; hole < holes; ++hole)
        for (int i = 0; i < pigeons; ++i)
            for (int j = i + 1; j < pigeons; ++j)
                s.addBinary(-var[i][hole], -var[j][hole]);
    EXPECT_EQ(s.solve(5), SatResult::Unknown);
}

TEST(SatTest, DuplicateAndTautologyClauses)
{
    SatSolver s;
    int a = s.newVar(), b = s.newVar();
    EXPECT_TRUE(s.addClause({a, a, b}));   // duplicate literal
    EXPECT_TRUE(s.addClause({a, -a}));     // tautology
    EXPECT_EQ(s.solve(), SatResult::Sat);
}

TEST(SatTest, LearntDatabaseReductionKeepsAnswersCorrect)
{
    // PHP(7,6) is unsat and conflict-heavy enough to restart several
    // times; forcing a tiny reduce limit makes every restart shed
    // learnt clauses, and the final answer must not change.
    SatSolver s;
    s.setReduceLimit(8);
    const int pigeons = 7, holes = 6;
    std::vector<std::vector<int>> var(pigeons, std::vector<int>(holes));
    for (auto &row : var)
        for (int &v : row)
            v = s.newVar();
    for (auto &row : var)
        s.addClause(std::vector<Lit>(row.begin(), row.end()));
    for (int hole = 0; hole < holes; ++hole)
        for (int i = 0; i < pigeons; ++i)
            for (int j = i + 1; j < pigeons; ++j)
                s.addBinary(-var[i][hole], -var[j][hole]);
    EXPECT_EQ(s.solve(), SatResult::Unsat);
    EXPECT_GT(s.learntsRemoved(), 0u)
        << "reduction never triggered; the test lost its purpose";
}

TEST(SatTest, ReductionOnSatisfiableInstanceKeepsModelValid)
{
    // Random-ish structured SAT instance solved under aggressive
    // reduction: the model must still satisfy every original clause.
    Rng rng(0xBEEF);
    SatSolver s;
    s.setReduceLimit(4);
    const int nv = 60;
    for (int v = 0; v < nv; ++v)
        s.newVar();
    std::vector<std::vector<Lit>> clauses;
    for (int c = 0; c < 220; ++c) {
        std::vector<Lit> clause;
        for (int l = 0; l < 3; ++l) {
            int v = 1 + static_cast<int>(rng.nextBelow(nv));
            clause.push_back(rng.chance(0.5) ? v : -v);
        }
        // Make the instance satisfiable by construction: force each
        // clause to contain at least one literal true under the
        // all-true assignment.
        clause[0] = std::abs(clause[0]);
        clauses.push_back(clause);
        s.addClause(clause);
    }
    ASSERT_EQ(s.solve(), SatResult::Sat);
    for (const auto &clause : clauses) {
        bool hit = false;
        for (Lit lit : clause)
            hit |= (lit > 0) == s.modelValue(std::abs(lit));
        EXPECT_TRUE(hit) << "model violates an original clause";
    }
}

TEST(SatTest, LubyRestartsAreCountedAndDeterministic)
{
    // PHP(7,6) generates far more than restart_unit conflicts, so a
    // tiny unit forces many Luby restarts; the answer must not change
    // and two identical solvers must take the identical path.
    auto build = [](SatSolver &s) {
        const int pigeons = 7, holes = 6;
        std::vector<std::vector<int>> var(pigeons,
                                          std::vector<int>(holes));
        for (auto &row : var)
            for (int &v : row)
                v = s.newVar();
        for (auto &row : var)
            s.addClause(std::vector<Lit>(row.begin(), row.end()));
        for (int hole = 0; hole < holes; ++hole)
            for (int i = 0; i < pigeons; ++i)
                for (int j = i + 1; j < pigeons; ++j)
                    s.addBinary(-var[i][hole], -var[j][hole]);
    };
    SatSolver a, b;
    a.setRestartUnit(4);
    b.setRestartUnit(4);
    build(a);
    build(b);
    EXPECT_EQ(a.solve(), SatResult::Unsat);
    EXPECT_GT(a.restarts(), 2u) << "Luby schedule never fired";
    EXPECT_EQ(b.solve(), SatResult::Unsat);
    EXPECT_EQ(a.restarts(), b.restarts());
    EXPECT_EQ(a.conflicts(), b.conflicts());
    EXPECT_EQ(a.decisions(), b.decisions());
    EXPECT_EQ(a.propagations(), b.propagations());
}

TEST(SatTest, DecisionQueueIsDeterministic)
{
    // Two solvers driven through the same clauses and the same sequence
    // of solves under changing assumptions take the same search: equal
    // conflicts, decisions and propagations after every call, and
    // bit-identical models.
    auto build = [](SatSolver &s) {
        Rng rng(0xD1CE);
        const int nv = 120;
        for (int v = 0; v < nv; ++v)
            s.newVar();
        for (int c = 0; c < 500; ++c) {
            std::vector<Lit> clause;
            for (int l = 0; l < 3; ++l) {
                int v = 1 + static_cast<int>(rng.nextBelow(nv));
                clause.push_back(rng.chance(0.5) ? v : -v);
            }
            s.addClause(clause);
        }
    };
    SatSolver a, b;
    build(a);
    build(b);
    const std::vector<std::vector<Lit>> calls = {
        {}, {3, -7}, {-3, 11, 40}, {}, {-1, -2, -5, 9}};
    for (size_t i = 0; i < calls.size(); ++i) {
        SatResult ra = a.solveAssuming(calls[i]);
        SatResult rb = b.solveAssuming(calls[i]);
        ASSERT_EQ(ra, rb) << "call " << i;
        EXPECT_EQ(a.conflicts(), b.conflicts()) << "call " << i;
        EXPECT_EQ(a.decisions(), b.decisions()) << "call " << i;
        EXPECT_EQ(a.propagations(), b.propagations()) << "call " << i;
        if (ra != SatResult::Sat)
            continue;
        for (int v = 1; v <= a.numVars(); ++v)
            ASSERT_EQ(a.modelValue(v), b.modelValue(v))
                << "call " << i << " var " << v;
    }
    EXPECT_GT(a.conflicts(), 0u) << "instance too easy to exercise bumps";
}

class SatFuzzProperty : public testing::TestWithParam<int>
{
};

TEST_P(SatFuzzProperty, AgreesWithBruteForce)
{
    Rng rng(GetParam() * 7919 + 13);
    for (int iter = 0; iter < 400; ++iter) {
        int nv = 3 + rng.nextBelow(8);
        int nc = 3 + rng.nextBelow(26);
        std::vector<std::vector<Lit>> clauses;
        for (int c = 0; c < nc; ++c) {
            int len = 1 + rng.nextBelow(3);
            std::vector<Lit> clause;
            for (int l = 0; l < len; ++l) {
                int v = 1 + rng.nextBelow(nv);
                clause.push_back(rng.chance(0.5) ? v : -v);
            }
            clauses.push_back(clause);
        }
        bool brute_sat = false;
        for (uint32_t m = 0; m < (1u << nv) && !brute_sat; ++m) {
            bool ok = true;
            for (const auto &clause : clauses) {
                bool hit = false;
                for (Lit lit : clause) {
                    bool val = (m >> (std::abs(lit) - 1)) & 1;
                    if ((lit > 0) == val) {
                        hit = true;
                        break;
                    }
                }
                if (!hit) {
                    ok = false;
                    break;
                }
            }
            brute_sat = ok;
        }
        SatSolver solver;
        for (int v = 0; v < nv; ++v)
            solver.newVar();
        bool consistent = true;
        for (const auto &clause : clauses)
            consistent = consistent && solver.addClause(clause);
        SatResult result =
            consistent ? solver.solve() : SatResult::Unsat;
        ASSERT_EQ(result == SatResult::Sat, brute_sat)
            << "iteration " << iter;
        if (result == SatResult::Sat) {
            for (const auto &clause : clauses) {
                bool hit = false;
                for (Lit lit : clause)
                    hit |= (lit > 0) == solver.modelValue(std::abs(lit));
                ASSERT_TRUE(hit) << "model violates clause";
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SatFuzzProperty,
                         testing::Values(1, 2, 3, 4, 5));

// ---------------------------------------------------------------------
// Search-trajectory pin
// ---------------------------------------------------------------------
//
// The solver's representation (clause storage, watch lists, queue
// links, value tables) may change; its search may not. Every decision,
// propagation order, learnt clause, restart, reduction and model is a
// pure function of the input, and verdicts, counterexamples and the
// benchmark's conflict counts all rest on that. These counts were
// recorded when the VMTF decision queue replaced the VSIDS heap (and
// majority/mux gates shrank the encoded queries) and must never move
// on a representation change: if one does, the search moved.

namespace {

struct Trajectory
{
    uint64_t conflicts;
    uint64_t decisions;
    uint64_t propagations;
    uint64_t restarts;
    uint64_t learnts;
};

void
expectTrajectory(const SatSolver &s, const Trajectory &want,
                 const std::string &label)
{
    EXPECT_EQ(s.conflicts(), want.conflicts) << label;
    EXPECT_EQ(s.decisions(), want.decisions) << label;
    EXPECT_EQ(s.propagations(), want.propagations) << label;
    EXPECT_EQ(s.restarts(), want.restarts) << label;
    EXPECT_EQ(s.learnts(), want.learnts) << label;
}

std::string
modelBits(const SatSolver &s)
{
    std::string bits;
    for (int v = 1; v <= s.numVars(); ++v)
        bits.push_back(s.modelValue(v) ? '1' : '0');
    return bits;
}

std::string
binaryFn(const char *name, const std::string &w, const std::string &body)
{
    return "define " + w + " @" + name + "(" + w + " %a, " + w +
           " %b) {\n" + body + "}\n";
}

} // namespace

TEST(SatTest, SearchTrajectoryIsPinned)
{
    // The refinement queries that dominate module_cold's conflicts,
    // encoded one-shot exactly as the fresh verification path does.
    struct Query
    {
        const char *label;
        std::string src;
        std::string tgt;
        int vars;
        uint64_t clauses;
        Trajectory want;
    };
    const std::string i64 = "i64", i32 = "i32";
    const Query queries[] = {
        {"(a&b)+(a|b) -> a+b, i64",
         binaryFn("src", i64,
                  "  %x = and i64 %a, %b\n  %y = or i64 %a, %b\n"
                  "  %r = add i64 %x, %y\n  ret i64 %r\n"),
         binaryFn("tgt", i64, "  %r = add i64 %a, %b\n  ret i64 %r\n"),
         764, 2605, {1905, 12574, 73361, 12, 1894}},
        {"umax(a,b)-b -> usub.sat, i32",
         binaryFn("src", i32,
                  "  %m = call i32 @llvm.umax.i32(i32 %a, i32 %b)\n"
                  "  %r = sub i32 %m, %b\n  ret i32 %r\n"),
         binaryFn("tgt", i32,
                  "  %r = call i32 @llvm.usub.sat.i32(i32 %a, i32 %b)\n"
                  "  ret i32 %r\n"),
         443, 1609, {1673, 4899, 68298, 10, 1665}},
        {"add/icmp ult/select -> uadd.sat, i32",
         binaryFn("src", i32,
                  "  %s = add i32 %a, %b\n"
                  "  %c = icmp ult i32 %s, %a\n"
                  "  %r = select i1 %c, i32 -1, i32 %s\n  ret i32 %r\n"),
         binaryFn("tgt", i32,
                  "  %r = call i32 @llvm.uadd.sat.i32(i32 %a, i32 %b)\n"
                  "  ret i32 %r\n"),
         318, 1044, {603, 4346, 29023, 4, 596}},
        {"umin(umin(a,b),a) -> umin(a,b), i64",
         binaryFn("src", i64,
                  "  %m = call i64 @llvm.umin.i64(i64 %a, i64 %b)\n"
                  "  %r = call i64 @llvm.umin.i64(i64 %m, i64 %a)\n"
                  "  ret i64 %r\n"),
         binaryFn("tgt", i64,
                  "  %r = call i64 @llvm.umin.i64(i64 %a, i64 %b)\n"
                  "  ret i64 %r\n"),
         511, 1976, {515, 11490, 62402, 4, 511}},
    };
    for (const Query &q : queries) {
        ir::Context ctx;
        auto src = ir::parseFunction(ctx, q.src);
        auto tgt = ir::parseFunction(ctx, q.tgt);
        ASSERT_TRUE(src.ok() && tgt.ok()) << q.label;
        SatSolver s;
        CircuitBuilder builder(s);
        ASSERT_TRUE(verify::encodeRefinementQuery(builder, **src, **tgt))
            << q.label;
        EXPECT_EQ(s.numVars(), q.vars) << q.label;
        EXPECT_EQ(s.clausesAdded(), q.clauses) << q.label;
        EXPECT_EQ(s.solve(), SatResult::Unsat) << q.label;
        expectTrajectory(s, q.want, q.label);
    }

    // PHP(8,7) under a small reduce limit: many restarts, repeated
    // database reductions, a long Unsat proof.
    {
        SatSolver s;
        s.setReduceLimit(64);
        const int pigeons = 8, holes = 7;
        std::vector<std::vector<int>> var(pigeons, std::vector<int>(holes));
        for (auto &row : var)
            for (int &v : row)
                v = s.newVar();
        for (auto &row : var)
            s.addClause(std::vector<Lit>(row.begin(), row.end()));
        for (int hole = 0; hole < holes; ++hole)
            for (int i = 0; i < pigeons; ++i)
                for (int j = i + 1; j < pigeons; ++j)
                    s.addBinary(-var[i][hole], -var[j][hole]);
        EXPECT_EQ(s.solve(), SatResult::Unsat);
        expectTrajectory(s, {11113, 13374, 141848, 45, 5109}, "PHP(8,7)");
        EXPECT_EQ(s.learntsRemoved(), 5999u) << "PHP(8,7)";
    }

    // A satisfiable planted 3-SAT instance near the threshold: the
    // model itself is pinned bit for bit.
    {
        Rng rng(0x5A7);
        const int nv = 250;
        std::vector<bool> planted(nv + 1);
        for (int v = 1; v <= nv; ++v)
            planted[v] = rng.chance(0.5);
        SatSolver s;
        for (int v = 0; v < nv; ++v)
            s.newVar();
        for (int c = 0; c < 1060; ++c) {
            std::vector<Lit> clause;
            for (int l = 0; l < 3; ++l) {
                int v = 1 + static_cast<int>(rng.nextBelow(nv));
                clause.push_back(rng.chance(0.5) ? v : -v);
            }
            // Keep the planted assignment a model.
            int v0 = std::abs(clause[0]);
            bool hit = false;
            for (Lit lit : clause)
                hit |= (lit > 0) == planted[std::abs(lit)];
            if (!hit)
                clause[0] = planted[v0] ? v0 : -v0;
            s.addClause(clause);
        }
        ASSERT_EQ(s.solve(), SatResult::Sat);
        expectTrajectory(s, {3345, 4569, 148005, 16, 2348},
                         "planted 3-SAT");
        EXPECT_EQ(modelBits(s),
                  "01011011010000100110101111110100110011000110011001"
                  "01011000000100001010100001101011111100011110100100"
                  "01101100110000100101101101011110100111000001011101"
                  "01000011100101101101111011001001110110110011101011"
                  "01110101111110001100100000000001100111011011100000")
            << "planted 3-SAT model";
    }

    // A multi-candidate RefinementSession stream: carried learnts,
    // activation release between candidates, and the one-shot re-proof
    // behind each counterexample.
    {
        ir::Context ctx;
        auto src = ir::parseFunction(
            ctx, binaryFn("src", i32,
                          "  %m = call i32 @llvm.umax.i32(i32 %a, i32 %b)\n"
                          "  %r = sub i32 %m, %b\n  ret i32 %r\n"));
        ASSERT_TRUE(src.ok());
        const std::string candidates[] = {
            // wrong: plain subtraction
            binaryFn("tgt", i32, "  %r = sub i32 %a, %b\n  ret i32 %r\n"),
            // right: the saturating intrinsic
            binaryFn("tgt", i32,
                     "  %r = call i32 @llvm.usub.sat.i32(i32 %a, i32 %b)\n"
                     "  ret i32 %r\n"),
            // wrong: saturates the other way round
            binaryFn("tgt", i32,
                     "  %r = call i32 @llvm.usub.sat.i32(i32 %b, i32 %a)\n"
                     "  ret i32 %r\n"),
            // right: compare-and-select form
            binaryFn("tgt", i32,
                     "  %c = icmp ugt i32 %a, %b\n"
                     "  %s = sub i32 %a, %b\n"
                     "  %r = select i1 %c, i32 %s, i32 0\n  ret i32 %r\n"),
        };
        const std::string proved = "Transformation seems to be correct!";
        const std::string want_details[] = {
            "ERROR: value mismatch\n\nExample:\ni32 %a = -2147483646\n"
            "i32 %b = -2147483643\nSource value: 0\nTarget value: -3\n",
            proved,
            "ERROR: value mismatch\n\nExample:\ni32 %a = -2147483645\n"
            "i32 %b = 0\nSource value: -2147483645\nTarget value: 0\n",
            proved};
        verify::SatTelemetry telemetry;
        verify::RefineOptions options;
        options.num_threads = 1;
        options.sat_telemetry = &telemetry;
        verify::RefinementSession session(**src, options);
        for (size_t i = 0; i < std::size(candidates); ++i) {
            auto tgt = ir::parseFunction(ctx, candidates[i]);
            ASSERT_TRUE(tgt.ok());
            verify::RefinementResult r = session.check(**tgt);
            EXPECT_EQ(r.feedbackMessage(**src), want_details[i])
                << "candidate " << i;
        }
        EXPECT_EQ(telemetry.solves, 6u);
        EXPECT_EQ(telemetry.decisions, 14467u);
        EXPECT_EQ(telemetry.conflicts, 2239u);
        EXPECT_EQ(telemetry.propagations, 112441u);
        EXPECT_EQ(telemetry.restarts, 13u);
        EXPECT_EQ(telemetry.learnts_carried, 1434u);
        EXPECT_EQ(telemetry.session_fallbacks, 2u);
    }
}
