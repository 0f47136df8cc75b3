#include "replay.h"

#include <memory>

#include "core/interestingness.h"
#include "extract/extractor.h"
#include "ir/printer.h"
#include "mca/cost_model.h"
#include "opt/opt_driver.h"
#include "smt/bitblast.h"
#include "smt/sat.h"
#include "verify/encoder.h"
#include "verify/refine.h"

namespace lpobench {

using namespace lpo;
using core::CaseStatus;

namespace {

/** ModuleOptimizer::optimize's default round seed. */
constexpr uint64_t kRoundSeed = 1;

} // namespace

LayerReplay::LayerReplay(SpanLog &log, llm::LlmClient &client,
                         const core::ModuleOptOptions &options,
                         const verify::RewriteCatalog *catalog)
    : log_(log), options_(options), llm_(client),
      egraph_(options.pipeline.egraph_limits), catalog_(catalog)
{
}

std::vector<CaseStatus>
LayerReplay::replayModule(const ir::Module &module, uint64_t id,
                          verify::VerifyCache *cache)
{
    {
        // ModuleOptimizer prices every function before it extracts.
        SpanLog::Scope span(log_, "mca", id);
        for (const auto &fn : module.functions()) {
            mca::analyzeFunction(*fn);
            ++counts_.mca_calls;
        }
    }
    std::vector<extract::ExtractedSequence> sequences;
    {
        SpanLog::Scope span(log_, "extract", id);
        extract::Extractor extractor(options_.extractor);
        sequences = extractor.extractDetailed(module);
        ++counts_.extract_calls;
        counts_.seq_considered += extractor.stats().sequences_considered;
        counts_.seq_unique += sequences.size();
    }
    std::vector<CaseStatus> statuses;
    statuses.reserve(sequences.size());
    for (const extract::ExtractedSequence &seq : sequences)
        statuses.push_back(runCase(*seq.wrapped, id, cache));
    return statuses;
}

CaseStatus
LayerReplay::runCase(const ir::Function &seq, uint64_t id,
                     verify::VerifyCache *cache)
{
    ++counts_.cases;
    verify::SatTelemetry telemetry;
    verify::DegradationStats degradation;
    verify::RefineOptions refine = options_.pipeline.refine;
    refine.cache = options_.pipeline.enable_verify_cache ? cache : nullptr;
    refine.sat_telemetry = &telemetry;
    refine.degradation = &degradation;

    std::unique_ptr<verify::RefinementSession> session;
    {
        SpanLog::Scope span(log_, "verify.session", id);
        session = std::make_unique<verify::RefinementSession>(seq, refine);
    }

    LegResult outcome;
    bool done = false;
    if (catalog_.enabled()) {
        LegResult replayed = runLeg(catalog_, "catalog", seq, *session, id);
        if (replayed.status == CaseStatus::Found) {
            ++counts_.catalog_found;
            outcome = replayed;
            done = true;
        }
    }
    if (!done) {
        outcome = runLeg(llm_, "llm", seq, *session, id);
        if (outcome.status == CaseStatus::Found) {
            ++counts_.llm_found;
        } else if (outcome.status == CaseStatus::NoCandidate ||
                   outcome.status == CaseStatus::Incorrect ||
                   outcome.status == CaseStatus::SyntaxError ||
                   outcome.status == CaseStatus::NotInteresting ||
                   outcome.status == CaseStatus::Degraded ||
                   outcome.status == CaseStatus::Error) {
            LegResult fallback =
                runLeg(egraph_, "egraph", seq, *session, id);
            if (fallback.status == CaseStatus::Found) {
                ++counts_.egraph_found;
                outcome = fallback;
            }
        }
    }
    {
        SpanLog::Scope span(log_, "verify.session", id);
        session.reset();
    }
    if (telemetry.conflicts > counts_.case_conflicts_max)
        counts_.case_conflicts_max = telemetry.conflicts;
    counts_.sat_propagations += telemetry.propagations;
    return outcome.status;
}

LayerReplay::LegResult
LayerReplay::runLeg(core::Proposer &proposer, const char *span,
                    const ir::Function &seq,
                    verify::RefinementSession &session, uint64_t id)
{
    // The pipeline contains a leg's exceptions into CaseStatus::Error.
    try {
        return runAttemptLoop(proposer, span, seq, session, id);
    } catch (const std::exception &) {
        LegResult result;
        result.status = CaseStatus::Error;
        return result;
    }
}

LayerReplay::LegResult
LayerReplay::runAttemptLoop(core::Proposer &proposer, const char *span,
                            const ir::Function &seq,
                            verify::RefinementSession &session,
                            uint64_t id)
{
    const core::Proposer::Backend backend = proposer.backend();
    LegResult outcome;
    const std::string seq_text = ir::printFunction(seq);
    std::string feedback;
    unsigned counter = 0;
    while (counter < options_.pipeline.attempt_limit) {
        std::optional<core::Proposal> proposal;
        {
            SpanLog::Scope scope(log_, span, id);
            proposal = proposer.propose(seq, seq_text, feedback,
                                        kRoundSeed * 7919 + counter);
        }
        switch (backend) {
          case core::Proposer::Backend::Llm: ++counts_.llm_calls; break;
          case core::Proposer::Backend::EGraph:
            ++counts_.egraph_calls;
            break;
          case core::Proposer::Backend::Catalog:
            ++counts_.catalog_calls;
            break;
        }
        if (!proposal) {
            if (outcome.attempts == 0)
                outcome.status = CaseStatus::NoCandidate;
            break;
        }
        ++outcome.attempts;

        opt::OptResult opted;
        {
            SpanLog::Scope scope(log_, "opt", id);
            opted = opt::runOpt(seq.context(), proposal->text);
        }
        ++counts_.opt_calls;
        if (opted.failed) {
            ++counts_.opt_syntax_errors;
            ++counter;
            outcome.status = CaseStatus::SyntaxError;
            outcome.last_feedback = opted.error_message;
            if (!options_.pipeline.enable_feedback)
                break;
            feedback = opted.error_message;
            continue;
        }

        core::Interestingness gate;
        {
            SpanLog::Scope scope(log_, "gate", id);
            gate = core::checkInteresting(seq, *opted.function);
        }
        ++counts_.gate_calls;
        if (!gate.interesting) {
            ++counts_.gate_rejects;
            outcome.status = CaseStatus::NotInteresting;
            outcome.last_feedback = gate.reason;
            break;
        }

        verify::RefinementResult verdict;
        {
            SpanLog::Scope scope(log_, "verify", id);
            verdict = session.check(*opted.function);
        }
        ++counts_.verify_calls;
        if (verify::canEncode(seq) && verify::canEncode(*opted.function)) {
            // Query size and encode cost of the same check as a
            // one-shot encoding; the session encodes incrementally, so
            // this is a probe beside the pipeline's work, spanned apart.
            SpanLog::Scope scope(log_, "verify.encode", id);
            smt::SatSolver solver;
            smt::CircuitBuilder builder(solver);
            if (verify::encodeRefinementQuery(builder, seq,
                                              *opted.function)) {
                ++counts_.encoded_queries;
                counts_.encoded_vars += solver.numVars();
                counts_.encoded_clauses += solver.clausesAdded();
            }
        }

        if (verdict.verdict == verify::Verdict::Unsupported) {
            outcome.status = CaseStatus::Unsupported;
            outcome.last_feedback = verdict.detail;
            break;
        }
        if (verdict.verdict == verify::Verdict::Degraded) {
            outcome.status = CaseStatus::Degraded;
            outcome.last_feedback = verdict.detail;
            break;
        }
        if (!verdict.correct()) {
            ++counter;
            outcome.status = CaseStatus::Incorrect;
            outcome.last_feedback = verdict.feedbackMessage(seq);
            if (!options_.pipeline.enable_feedback)
                break;
            feedback = outcome.last_feedback;
            continue;
        }
        outcome.status = CaseStatus::Found;
        break;
    }
    if (outcome.status == CaseStatus::NotInteresting &&
        outcome.attempts == 1 &&
        outcome.last_feedback == "identical or not cheaper")
        outcome.status = CaseStatus::NoCandidate;
    return outcome;
}

} // namespace lpobench
