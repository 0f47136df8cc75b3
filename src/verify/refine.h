/**
 * @file
 * Refinement checking (the Alive2 substitute).
 *
 * Given a source/target function pair, decides whether target refines
 * source: for every input on which the source is defined, the target
 * must be defined and produce the same value; the target may only
 * remove nondeterminism (poison), never add it.
 *
 * Two backends:
 *  - "sat": sound bit-blasting over the pure integer fragment
 *    (scalar + vector, no memory/FP), with counterexample extraction;
 *  - "exhaustive"/"sampled": bounded concrete testing through the
 *    interpreter for everything else (floating point, loads, geps),
 *    mirroring Alive2's own boundedness.
 *
 * Incorrect results carry an Alive2-style counterexample string that
 * the LPO loop feeds back to the LLM.
 */
#ifndef LPO_VERIFY_REFINE_H
#define LPO_VERIFY_REFINE_H

#include <atomic>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "interp/interp.h"
#include "ir/function.h"

namespace lpo::verify {

class VerifyCache;

/**
 * Counters for the SAT work a verification run actually performed
 * (cache hits perform none). Callers hang one off RefineOptions; the
 * SAT backend and the incremental sessions add their solver deltas
 * after every solve. Totals depend on which queries missed the shared
 * cache, so in parallel runs they describe work done, not a
 * scheduling-independent quantity — verdicts stay byte-identical
 * regardless (see DESIGN.md, "Incremental SAT sessions").
 */
struct SatTelemetry
{
    uint64_t solves = 0;       ///< SAT solver runs (fresh + session)
    uint64_t decisions = 0;
    uint64_t conflicts = 0;
    uint64_t propagations = 0;
    uint64_t restarts = 0;
    /** Wall time inside solve calls: the denominator of the engine's
     *  propagations/s and conflicts/s. Timing, not a result. */
    uint64_t solve_ns = 0;
    // Incremental-session accounting.
    uint64_t sessions = 0;         ///< sessions that bit-blasted a source
    uint64_t session_reuses = 0;   ///< session checks after the first
    uint64_t learnts_carried = 0;  ///< learnt clauses alive entering a
                                   ///< reused session solve
    uint64_t session_vars_saved = 0;    ///< source-encoding vars not
                                        ///< re-created thanks to reuse
    uint64_t session_clauses_saved = 0; ///< ditto for clauses
    uint64_t session_fallbacks = 0;     ///< Sat/Unknown answers re-proved
                                        ///< fresh for byte-identical
                                        ///< counterexamples
};

/** The verifier's verdict for a candidate transformation. */
enum class Verdict {
    Correct,      ///< target refines source (within backend bounds)
    Incorrect,    ///< counterexample found
    Unsupported,  ///< function outside every backend's fragment
    BadSignature, ///< src/tgt signatures differ (fixable LLM mistake)
    Timeout,      ///< solver budget exhausted (no escalation ladder)
    Degraded,     ///< every SAT tier exhausted; the candidate merely
                  ///< survived bounded concrete testing — explicitly
                  ///< NOT a proof, so it can never patch
};

/**
 * Counters for the budget-escalation ladder and its fallbacks (see
 * DESIGN.md, "Fault containment and degradation ladder"). Like
 * SatTelemetry these describe work actually performed — hang one off
 * RefineOptions per worker and fold in sequence order. The
 * contained_exceptions field is filled by the core layer's per-case
 * containment, not by refine.cc.
 */
struct DegradationStats
{
    uint64_t escalations = 0;        ///< tier bumps after an exhausted
                                     ///< solve (learnt clauses kept)
    uint64_t concrete_fallbacks = 0; ///< SAT queries degraded to the
                                     ///< bounded concrete backend
    uint64_t exhaustive_rescues = 0; ///< fallbacks that still concluded
                                     ///< soundly (full input-space
                                     ///< enumeration)
    uint64_t degraded = 0;           ///< queries ending in Degraded
    uint64_t contained_exceptions = 0; ///< case-level exceptions caught
                                       ///< and converted to failures
};

/** A concrete input violating refinement. */
struct Counterexample
{
    interp::ExecutionInput input;
    std::string source_value;
    std::string target_value;
};

/** Full result of a refinement query. */
struct RefinementResult
{
    Verdict verdict = Verdict::Unsupported;
    std::string backend;        ///< "sat", "exhaustive", or "sampled"
    std::string detail;         ///< human-readable explanation
    std::optional<Counterexample> counterexample;

    bool correct() const { return verdict == Verdict::Correct; }

    /** Alive2-style feedback message for the LLM loop. */
    std::string feedbackMessage(const ir::Function &src) const;
};

/** Tunables for the checker. */
struct RefineOptions
{
    /** SAT conflict budget before reporting Timeout (0 = unlimited).
     *  Ignored when budget_tiers is non-empty. */
    uint64_t conflict_budget = 2'000'000;
    /**
     * Budget-escalation ladder. Empty (the default) preserves the
     * single-shot behavior: one solve under conflict_budget, Timeout
     * on exhaustion. Non-empty, each SAT query solves under
     * budget_tiers[0] additional conflicts, then — on exhaustion —
     * re-solves the same solver under the next tier (learnt clauses
     * and phase saving carry over, so escalation resumes rather than
     * restarts the proof). A query that exhausts the final tier never
     * reports Timeout: it degrades to the bounded concrete backend,
     * whose outcome is either sound (counterexample, or exhaustive
     * enumeration) or Verdict::Degraded. Every step is counted in
     * DegradationStats.
     */
    std::vector<uint64_t> budget_tiers;
    /** Max total input bits for exhaustive concrete testing. */
    unsigned exhaustive_bit_limit = 16;
    /** Number of random inputs for the sampled backend. */
    unsigned sample_count = 20'000;
    /** Byte size of the object backing each pointer argument. */
    unsigned memory_object_bytes = 64;
    /** Seed for the sampled backend. */
    uint64_t seed = 0xA11CE;
    /**
     * Threads for the concrete-testing sweep (0 = hardware
     * concurrency, 1 = serial). A parallel sweep runs one task per
     * input chunk on a local TaskScheduler; a serial one, or one that
     * fits in a single chunk, runs on the caller. Results are
     * bit-identical for every thread count: inputs are derived from
     * their index alone and the lowest violating input index always
     * wins (see DESIGN.md, "Deterministic parallelism").
     */
    unsigned num_threads = 0;
    /**
     * Structural hashing in the SAT circuit builder. A benchmark-only
     * knob for measuring the pre-hashing encoding cost; production
     * callers leave it on.
     */
    bool structural_hashing = true;
    /**
     * Optional cross-query result cache (not owned; may be shared by
     * concurrent callers). Results are bit-identical with and without
     * it — hits re-derive their counterexample instead of re-proving.
     */
    VerifyCache *cache = nullptr;
    /**
     * Let RefinementSession keep one incremental solver per source
     * (assumption-based solving with learnt-clause reuse). Verdicts
     * and counterexamples are byte-identical with the session on or
     * off; off forces the fresh-solver path everywhere.
     */
    bool incremental_sat = true;
    /**
     * Optional cooperative-cancellation flag (not owned). When it
     * becomes true, in-flight SAT solves return at the next conflict
     * boundary and the query reports Timeout; the scheduler's
     * TaskScope::cancelFlag() plugs in here so a cancelled scope
     * drains instead of finishing multi-million-conflict proofs.
     */
    const std::atomic<bool> *interrupt = nullptr;
    /** Optional SAT work counters (not owned, not thread-safe: give
     *  each worker its own and fold). */
    SatTelemetry *sat_telemetry = nullptr;
    /** Optional escalation/degradation counters (same ownership and
     *  threading contract as sat_telemetry). */
    DegradationStats *degradation = nullptr;
};

/** Check whether @p tgt refines @p src. */
RefinementResult checkRefinement(const ir::Function &src,
                                 const ir::Function &tgt,
                                 const RefineOptions &options = {});

/**
 * An incremental verification session over one source function.
 *
 * When a case presents a stream of candidate targets (LLM feedback
 * retries, hybrid fallback, e-graph top-k), the one-shot path
 * re-bit-blasts the same source and cold-starts a fresh SatSolver for
 * every candidate. A session instead encodes the shared arguments and
 * the source once into a persistent solver, then, per candidate,
 * encodes only the candidate's cone (through the same hash-consed
 * CircuitBuilder unique table, so subcircuits shared with the source
 * or with earlier candidates cost nothing), guards the refinement
 * miter behind a fresh activation literal, solves under that single
 * assumption, and releases the literal before the next candidate's
 * clauses (a session that sees one candidate never pays for the
 * release's clause-database sweep). Candidate N+1
 * therefore inherits every variable, clause, and selector-free learnt
 * clause from candidates 1..N.
 *
 * Determinism contract: check() returns byte-identical verdicts and
 * counterexamples to checkRefinement on the same pair. Unsat answers
 * are state-independent (learnt clauses are consequences of the
 * formula, so they can never flip satisfiability); Sat and
 * budget-exhausted answers are re-proved through the one-shot path so
 * the counterexample model — which *does* depend on solver state —
 * comes from the exact code the fresh path runs. Queries outside the
 * SAT fragment fall through to the one-shot backends unchanged, as
 * does everything when options.incremental_sat is false. One
 * deliberate asymmetry at the conflict-budget boundary: a proof the
 * fresh path would abandon as Timeout can complete as Correct under a
 * warm session (carried learnts shorten it) — the session is strictly
 * more accurate there, never less (see DESIGN.md, "Incremental SAT
 * sessions").
 */
class RefinementSession
{
  public:
    /** @p src must outlive the session; @p options is copied. */
    RefinementSession(const ir::Function &src,
                      const RefineOptions &options);
    ~RefinementSession();

    RefinementSession(const RefinementSession &) = delete;
    RefinementSession &operator=(const RefinementSession &) = delete;

    /** Check one candidate; equivalent to checkRefinement(src, tgt). */
    RefinementResult check(const ir::Function &tgt);

  private:
    struct Impl;
    std::unique_ptr<Impl> impl_;
};

/**
 * True if checkRefinement would decide (src, tgt) with the SAT
 * backend (both in the encodable fragment, input space small enough
 * to bit-blast). Exposed so the throughput benchmark measures exactly
 * the queries production dispatches to SAT.
 */
bool usesSatBackend(const ir::Function &src, const ir::Function &tgt);

/**
 * Interesting scalar input patterns tried for every integer argument
 * of the sampled backend (exposed for testing): all values fit
 * @p width and the list is duplicate-free, including the degenerate
 * width-1 case.
 */
std::vector<uint64_t> specialPatterns(unsigned width);

} // namespace lpo::verify

#endif // LPO_VERIFY_REFINE_H
