/**
 * @file
 * A CDCL SAT solver.
 *
 * This is the decision engine under the translation validator (the
 * system's Z3 substitute). It implements the standard conflict-driven
 * clause-learning loop: two-watched-literal propagation, 1UIP conflict
 * analysis with recursive clause minimization, a VMTF
 * (variable-move-to-front) decision queue, phase saving, Luby
 * restarts with LBD-aware learnt-clause database reduction, and a
 * per-call conflict budget so callers can bound verification time
 * (Alive2-style timeouts).
 *
 * The solver is *incremental* in the MiniSat sense: clauses may be
 * added between solve calls, @ref solveAssuming solves under a set of
 * assumption literals (with @ref unsatCore final-conflict extraction),
 * and @ref newActivationVar / @ref releaseVar implement the standard
 * selector-literal protocol for retractable clause groups — release
 * permanently falsifies the selector and reclaims every clause the
 * selector guarded, learnt or original, while all selector-free learnt
 * clauses survive into the next call. See DESIGN.md, "Incremental SAT
 * sessions".
 *
 * Storage layout: each clause is one contiguous record in a flat arena
 * (`arena_`) — a four-word header (size, learnt flag and LBD, activity)
 * followed by its literals — addressed by its arena offset, so the
 * propagate loop touches one cache line per visited clause. Literal
 * values live in a per-literal table read with a single load; watch
 * entries carry a blocker slot so binary clauses propagate without
 * touching clause memory at all. All of these are representation
 * changes only: the search trajectory (every decision, propagation
 * order, learnt clause and its literal order, restart, reduction and
 * model) stays bit-identical across them, which is what keeps
 * verdicts, counterexamples and conflict counts stable across
 * releases. DESIGN.md, "SAT engine layout and the trajectory
 * invariant", lists what may and may not change;
 * SatTest.SearchTrajectoryIsPinned pins it.
 */
#ifndef LPO_SMT_SAT_H
#define LPO_SMT_SAT_H

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace lpo::smt {

/**
 * A literal: variable index (1-based) with sign.
 *
 * Encoded as var*2 + (negated ? 1 : 0) internally; the public API uses
 * signed ints like DIMACS (+v / -v).
 */
using Lit = int;

/** Solver outcome. */
enum class SatResult { Sat, Unsat, Unknown };

/** CDCL solver over clauses of DIMACS-style literals. */
class SatSolver
{
  public:
    SatSolver()
    {
        // Variables are 1-based; reserve the dummy slot 0.
        values_.assign(2, kUndef);
        vardata_.push_back(VarData{-1, 0});
        polarity_.push_back(0);
        queue_.push_back(QueueLink{});
        seen_.push_back(0);
        watches_.resize(2);
    }

    /** Allocate and return a fresh variable (1-based). */
    int newVar();
    int numVars() const { return num_vars_; }

    /**
     * Allocate a fresh *activation* (selector) variable. It never
     * enters the decision queue — its value comes only from assumptions
     * or from @ref releaseVar — so stale selectors cannot distract the
     * search. Guard a clause group as (-act OR C...) and pass +act to
     * solveAssuming to activate the group for one call.
     */
    int newActivationVar();

    /**
     * Permanently retire the selector @p var: asserts -var at the root
     * and sweeps the clause database, deleting every clause the
     * selector satisfied (the guarded group plus all learnt clauses
     * that picked up -var during its solves) and reclaiming their
     * watches. Learnt clauses free of the selector are untouched and
     * keep accelerating later calls. Must be called at decision level
     * 0 (i.e. between solve calls).
     */
    void releaseVar(int var);

    /**
     * Add a clause (non-empty literals over existing vars).
     * Returns false if the formula is already trivially unsat.
     */
    bool addClause(const std::vector<Lit> &lits)
    {
        return addClause(lits.data(), lits.size());
    }
    bool addUnit(Lit a) { return addClause(&a, 1); }
    bool addBinary(Lit a, Lit b)
    {
        const Lit lits[] = {a, b};
        return addClause(lits, 2);
    }
    bool addTernary(Lit a, Lit b, Lit c)
    {
        const Lit lits[] = {a, b, c};
        return addClause(lits, 3);
    }

    /**
     * Solve the current formula.
     * @param conflict_budget maximum conflicts for THIS call before
     *        Unknown (0 = unlimited).
     */
    SatResult solve(uint64_t conflict_budget = 0);

    /**
     * Solve under @p assumptions (each forced true for this call
     * only). Unsat answers distinguish two cases: if the formula is
     * unsatisfiable on its own the solver latches permanently unsat;
     * if only the assumptions are refuted, @ref unsatCore holds the
     * failing subset and the solver remains usable — clauses and
     * assumptions may differ on the next call, and every learnt clause
     * (which never depends on assumptions, only on the clause
     * database) carries over.
     */
    SatResult solveAssuming(const std::vector<Lit> &assumptions,
                            uint64_t conflict_budget = 0);

    /**
     * After solveAssuming returns Unsat because of the assumptions:
     * the subset of the assumptions (in as-passed polarity) whose
     * conjunction the formula refutes. Empty when the formula itself
     * is unsat.
     */
    const std::vector<Lit> &unsatCore() const { return conflict_core_; }

    /** After Sat: the value assigned to @p var in the model. */
    bool modelValue(int var) const;

    /** True once the formula is unsatisfiable without assumptions. */
    bool inconsistent() const { return unsat_; }

    /**
     * Cooperative cancellation: when @p flag becomes true, the current
     * (and any later) solve call returns Unknown at the next conflict
     * boundary. The solver stays consistent — exactly as if the
     * conflict budget had been exhausted. A null or never-set flag
     * leaves the search trajectory untouched, so cancellation wiring
     * cannot perturb verdicts that complete normally.
     */
    void setInterrupt(const std::atomic<bool> *flag) { interrupt_ = flag; }

    /** Statistics for the throughput benchmarks. */
    uint64_t conflicts() const { return conflicts_; }
    uint64_t decisions() const { return decisions_; }
    uint64_t propagations() const { return propagations_; }
    /** Completed restarts (Luby schedule). */
    uint64_t restarts() const { return restarts_; }
    /** Learnt clauses currently alive (units excluded). */
    uint64_t learnts() const { return num_learnts_; }
    /** Problem clauses accepted (stored or enqueued as units). */
    uint64_t clausesAdded() const { return clauses_added_; }
    /** Learnt clauses dropped by database reduction. */
    uint64_t learntsRemoved() const { return learnts_removed_; }
    /** Clauses (problem + learnt) reclaimed by releaseVar sweeps. */
    uint64_t clausesReclaimed() const { return clauses_reclaimed_; }
    /**
     * Learnt-clause count that triggers database reduction at the
     * next restart (grows geometrically afterwards). Exposed so tests
     * can force reductions on small instances.
     */
    void setReduceLimit(uint64_t limit) { reduce_limit_ = limit; }
    /**
     * Base conflict count of the Luby restart schedule (restart i
     * fires after unit * luby(i) conflicts). Exposed for tests; the
     * default matches MiniSat's 100.
     */
    void setRestartUnit(uint64_t unit) { restart_unit_ = unit ? unit : 1; }

  private:
    // Internal literal encoding: v*2 (positive) / v*2+1 (negative).
    static int encode(Lit lit)
    {
        int v = lit > 0 ? lit : -lit;
        return v * 2 + (lit < 0 ? 1 : 0);
    }
    static Lit decode(int enc)
    {
        return (enc & 1) ? -(enc / 2) : enc / 2;
    }
    static int litVar(int enc) { return enc / 2; }
    static int litNeg(int enc) { return enc ^ 1; }

    /**
     * Clause records in @ref arena_: kHeader words of header, then the
     * literals. A clause is named by the arena offset of its header
     * (a "cref"); compaction keeps records in creation order, so cref
     * order is age order, exactly as a clause index would be.
     *   word 0: literal count
     *   word 1: lbd << 1 | learnt
     *   words 2-3: activity (a double, read and written via memcpy)
     */
    static constexpr int kHeader = 4;

    /**
     * One watch-list entry. For binary clauses @ref blocker holds the
     * clause's other literal (it can never move, so it is always
     * exact) and propagation reads only the watcher; for longer
     * clauses blocker is -1 and the clause is dereferenced as usual.
     * Valid encoded literals are >= 2, so -1 is a safe sentinel.
     */
    struct Watcher
    {
        int clause;
        int blocker;
    };

    /** Per-literal value; both polarities are written on assignment. */
    enum Value : int8_t { kFalse = -1, kUndef = 0, kTrue = 1 };

    /** Per-variable search state that conflict analysis reads
     *  together. */
    struct VarData
    {
        int reason; ///< cref of the implying clause, or -1
        int level;
    };

    int8_t valueOf(int enc) const { return values_[enc]; }

    int clauseSize(int cref) const { return arena_[cref]; }
    bool clauseLearnt(int cref) const { return arena_[cref + 1] & 1; }
    uint32_t clauseLbd(int cref) const
    {
        return static_cast<uint32_t>(arena_[cref + 1]) >> 1;
    }
    double clauseActivity(int cref) const;
    void setClauseActivity(int cref, double activity);
    int *clauseLits(int cref) { return arena_.data() + cref + kHeader; }
    const int *clauseLits(int cref) const
    {
        return arena_.data() + cref + kHeader;
    }

    int decisionLevel() const
    {
        return static_cast<int>(trail_limits_.size());
    }
    /** Make @p enc true at the current level; it must be unassigned. */
    void assign(int enc, int reason)
    {
        values_[enc] = kTrue;
        values_[enc ^ 1] = kFalse;
        int var = litVar(enc);
        vardata_[var] = VarData{reason, decisionLevel()};
        polarity_[var] = !(enc & 1);
        trail_.push_back(enc);
    }

    bool addClause(const Lit *lits, size_t count);
    int newVarImpl(bool decision);
    int propagate(); // returns conflicting cref or -1
    int analyze(int conflict, std::vector<int> &learnt, uint32_t *lbd);
    bool litRedundant(int enc, uint32_t abstract_levels,
                      std::vector<int> &to_clear);
    void analyzeFinal(int failed_enc);
    void backtrack(int level);
    /** Move the variables @ref analyze marked to the queue's back. */
    void bumpAnalyzed();
    void bumpClause(int cref);
    int pickBranchVar();
    int storeClause(const int *lits, size_t count, bool learnt,
                    uint32_t lbd, double activity);
    void attachClause(int cref);
    void reduceLearnts();
    /** Copy the records @p keep accepts into a fresh arena (creation
     *  order preserved) and rebuild every watch list. */
    template <typename Keep> void compactArena(Keep keep);
    /** Root-level clause sweep: drop satisfied clauses, strip false
     *  literals, rebuild watches. Requires decision level 0. */
    void simplifyAtRoot();
    void rebuildWatches();

    uint32_t abstractLevel(int var) const
    {
        return uint32_t(1) << (vardata_[var].level & 31);
    }

    /**
     * Decision order: a VMTF queue (Biere and Froehlich, SAT 2015). The
     * decision variables form one doubly linked list, each stamped
     * with the time it was last moved to the back; conflict analysis
     * moves the variables it resolved on to the back, and decisions
     * take the unassigned variable nearest the back. Variable 0 is the
     * null link. Activation variables are never enqueued; their stamp
     * stays 0.
     */
    struct QueueLink
    {
        int prev = 0; ///< toward the front (older stamps)
        int next = 0; ///< toward the back (newer stamps)
        uint64_t stamp = 0;
    };
    void queueAppend(int var);
    void queueUnlink(int var);

    int num_vars_ = 0;
    std::vector<int> arena_;                    // clause records
    std::vector<std::vector<Watcher>> watches_; // enc-lit -> watchers
    std::vector<int8_t> values_;            // per encoded literal
    std::vector<int8_t> model_;             // values_ of the last Sat
    std::vector<VarData> vardata_;          // per var
    std::vector<uint8_t> polarity_;         // per var, phase saving
    std::vector<QueueLink> queue_;          // per var, decision queue
    int queue_last_ = 0;                    // newest stamp
    // Search pointer: every queued variable behind it (newer stamp) is
    // assigned, so decisions walk toward the front from here.
    int queue_search_ = 0;
    uint64_t queue_stamp_ = 0;              // last stamp handed out
    std::vector<int> trail_;                // encoded lits
    std::vector<int> trail_limits_;
    std::vector<Lit> conflict_core_;        // last failing assumptions
    size_t propagate_head_ = 0;
    double cla_inc_ = 1.0;
    uint64_t num_learnts_ = 0;
    uint64_t reduce_limit_ = 2000;
    uint64_t restart_unit_ = 100;
    bool unsat_ = false;
    const std::atomic<bool> *interrupt_ = nullptr;

    // Scratch state reused across calls so neither the hot loop nor
    // clause addition allocates: the conflict-analysis marker array
    // (cleared back to zero via seen_clear_ after every use — never
    // re-zeroed in bulk), the litRedundant DFS stack, the learnt-clause
    // buffers, the per-level stamps that count a clause's LBD, the
    // bump order, and the addClause/solveAssuming literal buffers.
    std::vector<uint8_t> seen_;             // per var
    std::vector<int> seen_clear_;           // vars with seen_ set
    std::vector<int> redundant_stack_;
    std::vector<int> learnt_scratch_;
    std::vector<int> minimize_clear_;
    std::vector<uint64_t> level_stamps_;    // per level, last LBD pass
    uint64_t lbd_stamp_ = 0;
    std::vector<int> bump_scratch_;
    std::vector<int> add_scratch_;
    std::vector<int> assumption_encs_;

    uint64_t conflicts_ = 0;
    uint64_t decisions_ = 0;
    uint64_t propagations_ = 0;
    uint64_t restarts_ = 0;
    uint64_t clauses_added_ = 0;
    uint64_t learnts_removed_ = 0;
    uint64_t clauses_reclaimed_ = 0;
};

} // namespace lpo::smt

#endif // LPO_SMT_SAT_H
