// Bit-blasting tests: constant folding of circuits, and a property
// sweep checking variable circuits against APInt reference semantics
// by solving for forced inputs.

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "smt/bitblast.h"
#include "support/rng.h"

using namespace lpo::smt;
using lpo::APInt;
using lpo::Rng;

namespace {

/** Force a fresh bit-vector to a concrete value via unit clauses. */
void
force(CircuitBuilder &cb, const BitVec &bv, const APInt &value)
{
    for (size_t i = 0; i < bv.size(); ++i)
        cb.require(((value.zext() >> i) & 1) ? bv[i] : -bv[i]);
}

} // namespace

TEST(BitblastTest, ConstantsFoldWithoutClauses)
{
    SatSolver sat;
    CircuitBuilder cb(sat);
    BitVec a = CircuitBuilder::constBV(APInt(8, 200));
    BitVec b = CircuitBuilder::constBV(APInt(8, 100));
    BitVec sum = cb.bvAdd(a, b);
    EXPECT_EQ(sat.numVars(), 0) << "constant circuit allocated vars";
    // Read the folded value directly from the literals.
    uint64_t value = 0;
    for (size_t i = 0; i < sum.size(); ++i)
        if (sum[i] == CircuitBuilder::kTrue)
            value |= uint64_t(1) << i;
    EXPECT_EQ(value, (200 + 100) % 256u);
}

TEST(BitblastTest, GateIdentities)
{
    SatSolver sat;
    CircuitBuilder cb(sat);
    CLit x = cb.freshLit();
    EXPECT_EQ(cb.andGate(x, CircuitBuilder::kTrue), x);
    EXPECT_EQ(cb.andGate(x, CircuitBuilder::kFalse),
              CircuitBuilder::kFalse);
    EXPECT_EQ(cb.andGate(x, x), x);
    EXPECT_EQ(cb.andGate(x, -x), CircuitBuilder::kFalse);
    EXPECT_EQ(cb.xorGate(x, x), CircuitBuilder::kFalse);
    EXPECT_EQ(cb.xorGate(x, -x), CircuitBuilder::kTrue);
    EXPECT_EQ(cb.muxGate(CircuitBuilder::kTrue, x, -x), x);
    // Constant folding allocates no variables at all.
    EXPECT_EQ(sat.numVars(), 1);
}

TEST(BitblastTest, HashConsingReturnsIdenticalLiterals)
{
    SatSolver sat;
    CircuitBuilder cb(sat);
    CLit a = cb.freshLit();
    CLit b = cb.freshLit();

    // Commuted operands hash to the same node.
    CLit ab = cb.andGate(a, b);
    EXPECT_EQ(cb.andGate(b, a), ab);
    EXPECT_EQ(cb.orGate(-a, -b), -ab); // De Morgan shares the AND node

    // XOR negation normalization: the phase lives outside the node.
    CLit x = cb.xorGate(a, b);
    EXPECT_EQ(cb.xorGate(b, a), x);
    EXPECT_EQ(cb.xorGate(-a, b), -x);
    EXPECT_EQ(cb.xorGate(a, -b), -x);
    EXPECT_EQ(cb.xorGate(-a, -b), x);
    EXPECT_EQ(cb.iffGate(a, b), -x);

    // MUX selector normalization: mux(-s, t, f) == mux(s, f, t).
    CLit s = cb.freshLit();
    CLit m = cb.muxGate(s, a, b);
    EXPECT_EQ(cb.muxGate(s, a, b), m);
    EXPECT_EQ(cb.muxGate(-s, b, a), m);

    EXPECT_GT(cb.uniqueTableHits(), 0u);
}

TEST(BitblastTest, RepeatedSubcircuitAddsNoVarsOrClauses)
{
    // Encoding the same subcircuit twice must not grow the formula:
    // the unique table answers every gate of the second encoding.
    SatSolver sat;
    CircuitBuilder cb(sat);
    BitVec a = cb.freshBV(8);
    BitVec b = cb.freshBV(8);

    BitVec first = cb.bvMul(a, b);
    int vars_after_first = sat.numVars();
    uint64_t clauses_after_first = sat.clausesAdded();

    BitVec second = cb.bvMul(a, b);
    EXPECT_EQ(sat.numVars(), vars_after_first);
    EXPECT_EQ(sat.clausesAdded(), clauses_after_first);
    EXPECT_EQ(first, second); // literal-for-literal identical

    // A third structure mixing shared pieces still reuses them.
    BitVec sum = cb.bvAdd(a, b);
    int vars_after_sum = sat.numVars();
    cb.bvAdd(b, a); // xor/and cons through commuted operands
    EXPECT_EQ(sat.numVars(), vars_after_sum);
}

TEST(BitblastTest, HashingDisabledStillCorrectButLarger)
{
    // The benchmark knob: same circuit, no unique table.
    SatSolver sat_plain;
    CircuitBuilder plain(sat_plain, /*structural_hashing=*/false);
    BitVec a = plain.freshBV(8);
    BitVec b = plain.freshBV(8);
    plain.bvMul(a, b);
    int plain_once = sat_plain.numVars();
    plain.bvMul(a, b);
    EXPECT_GT(sat_plain.numVars(), plain_once) << "no sharing expected";
    EXPECT_EQ(plain.uniqueTableHits(), 0u);

    SatSolver sat_hashed;
    CircuitBuilder hashed(sat_hashed);
    BitVec ha = hashed.freshBV(8);
    BitVec hb = hashed.freshBV(8);
    hashed.bvMul(ha, hb);
    hashed.bvMul(ha, hb);
    EXPECT_LT(sat_hashed.numVars(), sat_plain.numVars());
}

TEST(BitblastTest, MajAndMuxCostOneVariableAndSixClauses)
{
    for (bool hashing : {true, false}) {
        SatSolver sat;
        CircuitBuilder cb(sat, hashing);
        CLit a = cb.freshLit();
        CLit b = cb.freshLit();
        CLit c = cb.freshLit();
        int vars = sat.numVars();
        uint64_t clauses = sat.clausesAdded();
        cb.majGate(a, -b, c);
        EXPECT_EQ(sat.numVars(), vars + 1) << "hashing " << hashing;
        EXPECT_EQ(sat.clausesAdded(), clauses + 6) << "hashing " << hashing;
        cb.muxGate(a, -b, c);
        EXPECT_EQ(sat.numVars(), vars + 2) << "hashing " << hashing;
        EXPECT_EQ(sat.clausesAdded(), clauses + 12)
            << "hashing " << hashing;
    }
}

TEST(BitblastTest, MajAndMuxCanonicalizeUnderHashing)
{
    SatSolver sat;
    CircuitBuilder cb(sat);
    CLit a = cb.freshLit();
    CLit b = cb.freshLit();
    CLit c = cb.freshLit();

    // Majority is symmetric and self-dual: every operand order and the
    // all-complemented form share one node.
    CLit m = cb.majGate(a, b, c);
    int vars = sat.numVars();
    EXPECT_EQ(cb.majGate(c, a, b), m);
    EXPECT_EQ(cb.majGate(b, c, a), m);
    EXPECT_EQ(cb.majGate(-a, -b, -c), -m);
    CLit n = cb.majGate(-a, b, c);
    EXPECT_EQ(cb.majGate(c, -a, b), n);
    EXPECT_EQ(cb.majGate(a, -b, -c), -n);
    EXPECT_EQ(sat.numVars(), vars + 1);

    // Mux: positive selector, then positive first arm.
    CLit x = cb.muxGate(a, b, c);
    vars = sat.numVars();
    EXPECT_EQ(cb.muxGate(-a, c, b), x);
    EXPECT_EQ(cb.muxGate(a, -b, -c), -x);
    EXPECT_EQ(cb.muxGate(-a, -c, -b), -x);
    EXPECT_EQ(sat.numVars(), vars);
}

TEST(BitblastTest, MajAndMuxMatchTruthTablesOnEveryOperandMix)
{
    // Every operand triple drawn from the constants and both phases of
    // three free inputs: constants, duplicates, complements and free
    // operands in all positions. Each gate's output must equal the
    // truth table under all eight input assignments, and must be
    // forced there (the opposite value is refuted), with the unique
    // table on and off.
    const CLit kT = CircuitBuilder::kTrue, kF = CircuitBuilder::kFalse;
    for (bool hashing : {true, false}) {
        SatSolver sat;
        CircuitBuilder cb(sat, hashing);
        const CLit x[3] = {cb.freshLit(), cb.freshLit(), cb.freshLit()};
        const CLit pool[] = {kT, kF, x[0], -x[0], x[1], -x[1], x[2], -x[2]};
        struct Gate
        {
            CLit a, b, c, maj, mux;
        };
        std::vector<Gate> gates;
        for (CLit a : pool)
            for (CLit b : pool)
                for (CLit c : pool)
                    gates.push_back(
                        {a, b, c, cb.majGate(a, b, c), cb.muxGate(a, b, c)});

        for (unsigned assignment = 0; assignment < 8; ++assignment) {
            auto value = [&](CLit lit) {
                if (lit == kT || lit == kF)
                    return lit == kT;
                for (int i = 0; i < 3; ++i)
                    if (lit == x[i] || lit == -x[i])
                        return (((assignment >> i) & 1) != 0) == (lit > 0);
                ADD_FAILURE() << "literal outside the pool";
                return false;
            };
            std::vector<Lit> inputs;
            for (int i = 0; i < 3; ++i)
                inputs.push_back((assignment >> i) & 1 ? x[i] : -x[i]);
            ASSERT_EQ(sat.solveAssuming(inputs), SatResult::Sat);
            for (const Gate &g : gates) {
                bool va = value(g.a), vb = value(g.b), vc = value(g.c);
                bool want_maj = va + vb + vc >= 2;
                bool want_mux = va ? vb : vc;
                EXPECT_EQ(cb.modelLit(g.maj), want_maj)
                    << "maj(" << g.a << "," << g.b << "," << g.c << ") @"
                    << assignment << " hashing " << hashing;
                EXPECT_EQ(cb.modelLit(g.mux), want_mux)
                    << "mux(" << g.a << "," << g.b << "," << g.c << ") @"
                    << assignment << " hashing " << hashing;
                for (auto [out, want] : {std::pair{g.maj, want_maj},
                                         std::pair{g.mux, want_mux}}) {
                    if (out == kT || out == kF)
                        continue; // folded: the model check above covers it
                    std::vector<Lit> flipped = inputs;
                    flipped.push_back(want ? -out : out);
                    EXPECT_EQ(sat.solveAssuming(flipped), SatResult::Unsat)
                        << "gate output not forced @" << assignment;
                }
            }
        }
    }
}

TEST(BitblastTest, CarryOnlyComparatorsEqualSubtractorBorrow)
{
    // Miter over all inputs at i1..i8: bvULt against bvSub's borrow,
    // bvSLt against the subtractor's sign XOR its signed overflow. The
    // unique table is off so the two sides are independent circuits.
    for (unsigned width = 1; width <= 8; ++width) {
        SatSolver sat;
        CircuitBuilder cb(sat, /*structural_hashing=*/false);
        BitVec a = cb.freshBV(width);
        BitVec b = cb.freshBV(width);
        CLit borrow = CircuitBuilder::kFalse;
        BitVec diff = cb.bvSub(a, b, &borrow);
        CLit slt_ref = cb.xorGate(diff.back(), cb.subOverflowsS(a, b));
        cb.require(cb.orGate(cb.xorGate(cb.bvULt(a, b), borrow),
                             cb.xorGate(cb.bvSLt(a, b), slt_ref)));
        EXPECT_EQ(sat.solve(), SatResult::Unsat) << "i" << width;
    }

    // With the table on, the comparator is the subtraction's own
    // borrow chain and adds nothing next to it.
    SatSolver sat;
    CircuitBuilder cb(sat);
    BitVec a = cb.freshBV(8);
    BitVec b = cb.freshBV(8);
    CLit borrow = CircuitBuilder::kFalse;
    cb.bvSub(a, b, &borrow);
    int vars = sat.numVars();
    EXPECT_EQ(cb.bvULt(a, b), borrow);
    EXPECT_EQ(sat.numVars(), vars);
}

class BitblastOpProperty : public testing::TestWithParam<unsigned>
{
};

TEST_P(BitblastOpProperty, CircuitsMatchAPIntReference)
{
    unsigned width = GetParam();
    Rng rng(width * 31337 + 5);
    for (int iter = 0; iter < 25; ++iter) {
        APInt xa(width, rng.next());
        APInt xb(width, rng.next());

        SatSolver sat;
        CircuitBuilder cb(sat);
        BitVec a = cb.freshBV(width);
        BitVec b = cb.freshBV(width);
        force(cb, a, xa);
        force(cb, b, xb);

        BitVec sum = cb.bvAdd(a, b);
        BitVec diff = cb.bvSub(a, b);
        BitVec prod = cb.bvMul(a, b);
        BitVec conj = cb.bvAnd(a, b);
        BitVec shl = cb.bvShl(a, b);
        BitVec lshr = cb.bvLShr(a, b);
        BitVec ashr = cb.bvAShr(a, b);
        CLit ult = cb.bvULt(a, b);
        CLit slt = cb.bvSLt(a, b);
        CLit eq = cb.bvEq(a, b);
        CLit add_ovf_u = cb.addOverflowsU(a, b);
        CLit add_ovf_s = cb.addOverflowsS(a, b);
        CLit mul_ovf_u = cb.mulOverflowsU(a, b);
        CLit mul_ovf_s = cb.mulOverflowsS(a, b);

        ASSERT_EQ(sat.solve(), SatResult::Sat);
        EXPECT_EQ(cb.modelBV(sum).zext(), xa.add(xb).zext());
        EXPECT_EQ(cb.modelBV(diff).zext(), xa.sub(xb).zext());
        EXPECT_EQ(cb.modelBV(prod).zext(), xa.mul(xb).zext());
        EXPECT_EQ(cb.modelBV(conj).zext(), xa.andOp(xb).zext());
        unsigned amount = static_cast<unsigned>(
            std::min<uint64_t>(xb.zext(), width));
        EXPECT_EQ(cb.modelBV(shl).zext(), xa.shl(amount).zext());
        EXPECT_EQ(cb.modelBV(lshr).zext(), xa.lshr(amount).zext());
        EXPECT_EQ(cb.modelBV(ashr).zext(),
                  xb.zext() >= width
                      ? (xa.isSignBitSet()
                             ? APInt::allOnes(width).zext()
                             : 0)
                      : xa.ashr(amount).zext());
        EXPECT_EQ(cb.modelLit(ult), xa.ult(xb));
        EXPECT_EQ(cb.modelLit(slt), xa.slt(xb));
        EXPECT_EQ(cb.modelLit(eq), xa.eq(xb));
        EXPECT_EQ(cb.modelLit(add_ovf_u), xa.addOverflowsUnsigned(xb));
        EXPECT_EQ(cb.modelLit(add_ovf_s), xa.addOverflowsSigned(xb));
        EXPECT_EQ(cb.modelLit(mul_ovf_u), xa.mulOverflowsUnsigned(xb));
        EXPECT_EQ(cb.modelLit(mul_ovf_s), xa.mulOverflowsSigned(xb));
    }
}

INSTANTIATE_TEST_SUITE_P(Widths, BitblastOpProperty,
                         testing::Values(1u, 4u, 8u, 13u));

TEST(BitblastTest, DivisionConstraints)
{
    Rng rng(99);
    for (int iter = 0; iter < 20; ++iter) {
        unsigned width = 8;
        APInt xa(width, rng.next());
        APInt xb(width, rng.next());
        if (xb.isZero())
            xb = APInt(width, 3);

        SatSolver sat;
        CircuitBuilder cb(sat);
        BitVec a = cb.freshBV(width);
        BitVec b = cb.freshBV(width);
        force(cb, a, xa);
        force(cb, b, xb);
        BitVec q, r;
        cb.bvUDivRem(a, b, CircuitBuilder::kTrue, &q, &r);
        BitVec sq, sr;
        // Guard signed division away from INT_MIN/-1.
        bool overflow = xa.isSignedMin() && xb.isAllOnes();
        cb.bvSDivRem(a, b, overflow ? CircuitBuilder::kFalse
                                    : CircuitBuilder::kTrue, &sq, &sr);
        ASSERT_EQ(sat.solve(), SatResult::Sat);
        EXPECT_EQ(cb.modelBV(q).zext(), xa.udiv(xb).zext());
        EXPECT_EQ(cb.modelBV(r).zext(), xa.urem(xb).zext());
        if (!overflow) {
            EXPECT_EQ(cb.modelBV(sq).sext(), xa.sdiv(xb).sext());
            EXPECT_EQ(cb.modelBV(sr).sext(), xa.srem(xb).sext());
        }
    }
}
