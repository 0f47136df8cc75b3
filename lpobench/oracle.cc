#include "oracle.h"

#include "interp/interp.h"
#include "ir/ir_verifier.h"
#include "ir/parser.h"
#include "ir/printer.h"
#include "support/rng.h"

namespace lpobench {

using namespace lpo;

namespace {

/** Edge values first, then uniform bits: the boundary cases are where
 *  a wrong peephole rewrite usually shows. */
APInt
drawInt(Rng &rng, unsigned width, unsigned draw)
{
    switch (draw) {
      case 0: return APInt::zero(width);
      case 1: return APInt::one(width);
      case 2: return APInt::allOnes(width);
      case 3: return APInt::signedMin(width);
      case 4: return APInt::signedMax(width);
      default: return APInt(width, rng.next());
    }
}

bool
sameValue(const interp::RtValue &a, const interp::RtValue &b)
{
    if (a.lanes.size() != b.lanes.size())
        return false;
    for (size_t i = 0; i < a.lanes.size(); ++i) {
        if (b.lanes[i].poison)
            return false;
        if (!(a.lanes[i].bits == b.lanes[i].bits))
            return false;
    }
    return true;
}

} // namespace

OracleReport
checkAgainstOriginal(const std::string &original_text,
                     const std::string &optimized_text, uint64_t seed,
                     unsigned inputs_per_function)
{
    OracleReport report;
    ir::Context original_ctx, optimized_ctx;
    auto original = ir::parseModule(original_ctx, original_text);
    auto optimized = ir::parseModule(optimized_ctx, optimized_text);
    if (!original.ok() || !optimized.ok()) {
        report.invalid = "module does not parse";
        return report;
    }
    const auto &before = (*original)->functions();
    const auto &after = (*optimized)->functions();
    if (before.size() != after.size()) {
        report.invalid = "function count changed";
        return report;
    }
    Rng rng(seed);
    for (size_t f = 0; f < after.size(); ++f) {
        const ir::Function &src = *before[f];
        const ir::Function &tgt = *after[f];
        if (!ir::isValid(tgt)) {
            if (report.invalid.empty())
                report.invalid = "@" + tgt.name() + " fails ir::isValid";
            continue;
        }
        if (ir::printFunction(src) == ir::printFunction(tgt))
            continue;
        ++report.functions_changed;
        bool scalar_ints = src.numArgs() == tgt.numArgs();
        for (unsigned a = 0; scalar_ints && a < src.numArgs(); ++a)
            scalar_ints = src.arg(a)->type()->isInt();
        if (!scalar_ints) {
            if (report.mismatch.empty())
                report.mismatch =
                    "@" + tgt.name() + " has non-integer arguments";
            continue;
        }
        for (unsigned n = 0; n < inputs_per_function; ++n) {
            interp::ExecutionInput input;
            for (unsigned a = 0; a < src.numArgs(); ++a) {
                unsigned width = src.arg(a)->type()->intWidth();
                // Half the inputs put one argument at an edge value.
                unsigned draw = (n % 2 == 0 && a == (n / 2) % src.numArgs())
                                    ? static_cast<unsigned>(rng.nextBelow(5))
                                    : 5;
                input.args.push_back(
                    interp::RtValue::scalarInt(drawInt(rng, width, draw)));
            }
            interp::ExecutionResult expected = interp::execute(src, input);
            ++report.inputs_run;
            if (expected.ub || !expected.ret || expected.ret->anyPoison())
                continue; // undefined in the original: anything refines
            interp::ExecutionResult actual = interp::execute(tgt, input);
            if (actual.ub || !actual.ret ||
                !sameValue(*expected.ret, *actual.ret)) {
                if (report.mismatch.empty())
                    report.mismatch = "@" + tgt.name() + " on " +
                                      interp::describeInput(src, input);
                break;
            }
        }
    }
    return report;
}

} // namespace lpobench
