/**
 * @file
 * Output checks that do not trust the SAT verifier: structural
 * validity of every function of an optimized module, and agreement
 * with the original module on seeded random inputs through the
 * reference interpreter.
 */
#ifndef LPOBENCH_ORACLE_H
#define LPOBENCH_ORACLE_H

#include <cstdint>
#include <string>

namespace lpobench {

/** What checking one optimized module found. */
struct OracleReport
{
    unsigned functions_changed = 0;
    unsigned inputs_run = 0;
    /** Empty when every check held; otherwise the first failure. */
    std::string invalid;  ///< a function ir::isValid rejects
    std::string mismatch; ///< a function disagreeing with its original
};

/**
 * Parse @p original_text and @p optimized_text, require every function
 * of the optimized module to pass ir::isValid, and run each function
 * that changed against its original on @p inputs_per_function inputs
 * drawn from @p seed. Where the original returns a defined, non-poison
 * value, the optimized function must return the same value.
 */
OracleReport checkAgainstOriginal(const std::string &original_text,
                                  const std::string &optimized_text,
                                  uint64_t seed,
                                  unsigned inputs_per_function);

} // namespace lpobench

#endif // LPOBENCH_ORACLE_H
