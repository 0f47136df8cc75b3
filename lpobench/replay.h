/**
 * @file
 * One-thread replay of a module's sequences through the library's
 * public layer calls, in the order Pipeline::runAttemptLoop makes them
 * (catalog -> llm -> opt -> gate -> verify, with the e-graph as the
 * hybrid fallback), each call wrapped in a span.
 *
 * The replay exists to attribute time: the same cases a
 * ModuleOptimizer runs, called layer by layer from the benchmark so
 * every layer's busy time and counts are measured at its boundary.
 * Its per-case statuses must equal ModuleOptResult::outcomes for the
 * same module under the same options, which the benchmark checks.
 */
#ifndef LPOBENCH_REPLAY_H
#define LPOBENCH_REPLAY_H

#include <cstdint>
#include <vector>

#include "core/module_opt.h"
#include "core/proposer.h"
#include "spans.h"
#include "verify/cache.h"
#include "verify/persist.h"

namespace lpobench {

/** Counts taken at the replayed layer boundaries. */
struct ReplayCounts
{
    uint64_t extract_calls = 0;
    uint64_t seq_considered = 0;
    uint64_t seq_unique = 0;
    uint64_t cases = 0;
    uint64_t catalog_calls = 0;
    uint64_t catalog_found = 0;
    uint64_t llm_calls = 0;
    uint64_t llm_found = 0;
    uint64_t egraph_calls = 0;
    uint64_t egraph_found = 0;
    uint64_t opt_calls = 0;
    uint64_t opt_syntax_errors = 0;
    uint64_t gate_calls = 0;
    uint64_t gate_rejects = 0;
    uint64_t verify_calls = 0;
    /** One-shot encodings of verified queries (encodeRefinementQuery). */
    uint64_t encoded_queries = 0;
    uint64_t encoded_vars = 0;
    uint64_t encoded_clauses = 0;
    uint64_t mca_calls = 0;
    /** Largest SAT conflict count of any single case. */
    uint64_t case_conflicts_max = 0;
    uint64_t sat_propagations = 0;
};

class LayerReplay
{
  public:
    /**
     * @p catalog plays the role of the pipeline's store catalog (null:
     * no catalog leg). @p options must be the ModuleOptimizer options
     * the replay is compared against.
     */
    LayerReplay(SpanLog &log, lpo::llm::LlmClient &client,
                const lpo::core::ModuleOptOptions &options,
                const lpo::verify::RewriteCatalog *catalog);

    /**
     * Price every function (mca), extract, and run every unique
     * sequence's case, verifying through @p cache as the pipeline's
     * own verify cache would (null: no cache). Returns the case
     * statuses in extraction order; counts accumulate across calls.
     */
    std::vector<lpo::core::CaseStatus>
    replayModule(const lpo::ir::Module &module, uint64_t id,
                 lpo::verify::VerifyCache *cache);

    const ReplayCounts &counts() const { return counts_; }

  private:
    struct LegResult
    {
        lpo::core::CaseStatus status = lpo::core::CaseStatus::NoCandidate;
        unsigned attempts = 0;
        std::string last_feedback;
    };

    lpo::core::CaseStatus runCase(const lpo::ir::Function &seq,
                                  uint64_t id,
                                  lpo::verify::VerifyCache *cache);
    LegResult runLeg(lpo::core::Proposer &proposer, const char *span,
                     const lpo::ir::Function &seq,
                     lpo::verify::RefinementSession &session, uint64_t id);
    LegResult runAttemptLoop(lpo::core::Proposer &proposer,
                             const char *span, const lpo::ir::Function &seq,
                             lpo::verify::RefinementSession &session,
                             uint64_t id);

    SpanLog &log_;
    lpo::core::ModuleOptOptions options_;
    lpo::core::LlmProposer llm_;
    lpo::core::EGraphProposer egraph_;
    lpo::core::CatalogProposer catalog_;
    ReplayCounts counts_;
};

} // namespace lpobench

#endif // LPOBENCH_REPLAY_H
