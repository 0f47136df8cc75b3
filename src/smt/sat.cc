#include "smt/sat.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstring>

#include "support/failpoint.h"

namespace lpo::smt {

namespace {

/**
 * The Luby sequence 1,1,2,1,1,2,4,1,1,2,1,1,2,4,8,... (0-indexed),
 * the optimal universal restart schedule. Ported from MiniSat's
 * luby() with base 2, returning the power directly.
 */
uint64_t
lubyTerm(uint64_t x)
{
    uint64_t size = 1, seq = 0;
    while (size < x + 1) {
        size = 2 * size + 1;
        ++seq;
    }
    while (size - 1 != x) {
        size = (size - 1) / 2;
        --seq;
        x = x % size;
    }
    return uint64_t(1) << seq;
}

} // namespace

int
SatSolver::newVarImpl(bool decision)
{
    ++num_vars_;
    values_.push_back(kUndef);
    values_.push_back(kUndef);
    vardata_.push_back(VarData{-1, 0});
    polarity_.push_back(0);
    queue_.push_back(QueueLink{});
    seen_.push_back(0);
    watches_.resize((num_vars_ + 1) * 2);
    // Activation vars never join the decision order; their values come
    // from assumptions or release units only. A new decision variable
    // is unassigned and the newest in the queue, so the search pointer
    // moves to it.
    if (decision) {
        queueAppend(num_vars_);
        queue_search_ = num_vars_;
    }
    return num_vars_;
}

int
SatSolver::newVar()
{
    return newVarImpl(true);
}

int
SatSolver::newActivationVar()
{
    return newVarImpl(false);
}

// ---------------------------------------------------------------------
// Decision queue
// ---------------------------------------------------------------------

void
SatSolver::queueAppend(int var)
{
    QueueLink &link = queue_[var];
    link.prev = queue_last_;
    link.next = 0;
    link.stamp = ++queue_stamp_;
    if (queue_last_)
        queue_[queue_last_].next = var;
    queue_last_ = var;
}

void
SatSolver::queueUnlink(int var)
{
    const QueueLink &link = queue_[var];
    if (link.prev)
        queue_[link.prev].next = link.next;
    if (link.next)
        queue_[link.next].prev = link.prev;
    else
        queue_last_ = link.prev;
}

void
SatSolver::bumpAnalyzed()
{
    // Move every decision variable the last analysis resolved on to the
    // back, oldest stamp first, so the bumped group keeps its relative
    // order. They are all assigned now (they were on the conflict's
    // trail), so the search pointer is left to backtrack.
    bump_scratch_.clear();
    for (int var : seen_clear_)
        if (queue_[var].stamp != 0)
            bump_scratch_.push_back(var);
    std::sort(bump_scratch_.begin(), bump_scratch_.end(),
              [&](int a, int b) {
                  return queue_[a].stamp < queue_[b].stamp;
              });
    for (int var : bump_scratch_) {
        queueUnlink(var);
        queueAppend(var);
    }
}

// ---------------------------------------------------------------------
// Clause arena
// ---------------------------------------------------------------------

double
SatSolver::clauseActivity(int cref) const
{
    double activity;
    std::memcpy(&activity, &arena_[cref + 2], sizeof(activity));
    return activity;
}

void
SatSolver::setClauseActivity(int cref, double activity)
{
    std::memcpy(&arena_[cref + 2], &activity, sizeof(activity));
}

int
SatSolver::storeClause(const int *lits, size_t count, bool learnt,
                       uint32_t lbd, double activity)
{
    static_assert(kHeader * sizeof(int) == 2 * sizeof(int) + sizeof(double),
                  "header = size word, lbd/learnt word, activity");
    int cref = static_cast<int>(arena_.size());
    arena_.resize(arena_.size() + kHeader + count);
    arena_[cref] = static_cast<int>(count);
    arena_[cref + 1] = static_cast<int>(lbd << 1 | (learnt ? 1u : 0u));
    setClauseActivity(cref, activity);
    std::copy(lits, lits + count, clauseLits(cref));
    return cref;
}

void
SatSolver::attachClause(int cref)
{
    int size = clauseSize(cref);
    assert(size >= 2);
    const int *lits = clauseLits(cref);
    // Binary clauses carry their other literal in the watcher itself
    // (it can never move), so propagation over them touches no clause
    // memory. Longer clauses use the classic two-watch scheme.
    int blocker0 = size == 2 ? lits[1] : -1;
    int blocker1 = size == 2 ? lits[0] : -1;
    watches_[litNeg(lits[0])].push_back(Watcher{cref, blocker0});
    watches_[litNeg(lits[1])].push_back(Watcher{cref, blocker1});
}

bool
SatSolver::addClause(const Lit *lits, size_t count)
{
    if (unsat_)
        return false;
    assert(count > 0);
    assert(trail_limits_.empty() &&
           "clauses may only be added at decision level 0");
    // Encode, dedup, and drop tautologies.
    std::vector<int> &enc = add_scratch_;
    enc.clear();
    for (size_t i = 0; i < count; ++i) {
        assert(lits[i] != 0 && std::abs(lits[i]) <= num_vars_);
        enc.push_back(encode(lits[i]));
    }
    std::sort(enc.begin(), enc.end());
    enc.erase(std::unique(enc.begin(), enc.end()), enc.end());
    for (size_t i = 0; i + 1 < enc.size(); ++i)
        if (litVar(enc[i]) == litVar(enc[i + 1]))
            return true; // tautology: v OR !v
    // Remove literals already false at level 0; satisfied => drop.
    // Clauses only arrive at level 0, so every assigned literal is a
    // root assignment.
    size_t kept = 0;
    for (int e : enc) {
        int8_t value = valueOf(e);
        if (value == kTrue)
            return true;
        if (value == kFalse)
            continue;
        enc[kept++] = e;
    }
    enc.resize(kept);
    if (enc.empty()) {
        unsat_ = true;
        return false;
    }
    ++clauses_added_;
    if (enc.size() == 1) {
        assign(enc[0], -1);
        if (propagate() != -1) {
            unsat_ = true;
            return false;
        }
        return true;
    }
    attachClause(storeClause(enc.data(), enc.size(), false, 0, 0.0));
    return true;
}

// ---------------------------------------------------------------------
// Search
// ---------------------------------------------------------------------

int
SatSolver::propagate()
{
    int conflict = -1;
    while (propagate_head_ < trail_.size()) {
        int enc = trail_[propagate_head_++];
        ++propagations_;
        const int falsified = litNeg(enc);
        std::vector<Watcher> &watch_list = watches_[enc];
        Watcher *read = watch_list.data();
        Watcher *write = read;
        Watcher *const end = read + watch_list.size();
        while (read != end) {
            Watcher w = *read++;
            if (w.blocker != -1) {
                // Binary fast path: the watcher already names the only
                // other literal, so satisfied and propagating clauses
                // are handled without dereferencing the clause.
                *write++ = w;
                int8_t value = valueOf(w.blocker);
                if (value == kTrue)
                    continue;
                if (value == kUndef) {
                    assign(w.blocker, w.clause);
                    continue;
                }
                // Conflict. Normalize the stored order (other literal
                // first, falsified literal second) exactly as the
                // general path would have left it, so conflict
                // analysis sees the same literal order either way.
                int *lits = clauseLits(w.clause);
                if (lits[0] == falsified)
                    std::swap(lits[0], lits[1]);
                conflict = w.clause;
                break;
            }
            int *lits = clauseLits(w.clause);
            // Normalize: watched literals are lits[0] and lits[1];
            // the falsified one must be lits[1].
            if (lits[0] == falsified)
                std::swap(lits[0], lits[1]);
            int8_t first = valueOf(lits[0]);
            if (first == kTrue) {
                *write++ = w;
                continue;
            }
            // Find a new watch. The new watch literal is not false, so
            // its list is never the one being walked here.
            const int size = clauseSize(w.clause);
            bool moved = false;
            for (int k = 2; k < size; ++k) {
                if (valueOf(lits[k]) != kFalse) {
                    std::swap(lits[1], lits[k]);
                    watches_[litNeg(lits[1])].push_back(
                        Watcher{w.clause, -1});
                    moved = true;
                    break;
                }
            }
            if (moved)
                continue;
            // Unit or conflict.
            *write++ = w;
            if (first == kFalse) {
                conflict = w.clause;
                break;
            }
            assign(lits[0], w.clause);
        }
        if (conflict != -1) {
            // Keep the unvisited watches and report.
            while (read != end)
                *write++ = *read++;
            watch_list.resize(static_cast<size_t>(write - watch_list.data()));
            propagate_head_ = trail_.size();
            return conflict;
        }
        watch_list.resize(static_cast<size_t>(write - watch_list.data()));
    }
    return -1;
}

void
SatSolver::bumpClause(int cref)
{
    double activity = clauseActivity(cref) + cla_inc_;
    setClauseActivity(cref, activity);
    if (activity > 1e20) {
        for (size_t c = 0; c < arena_.size();
             c += kHeader + clauseSize(static_cast<int>(c))) {
            int other = static_cast<int>(c);
            if (clauseLearnt(other))
                setClauseActivity(other, clauseActivity(other) * 1e-20);
        }
        cla_inc_ *= 1e-20;
    }
}

bool
SatSolver::litRedundant(int enc, uint32_t abstract_levels,
                        std::vector<int> &to_clear)
{
    // Recursive (MiniSat "deep") minimization: @p enc is redundant if
    // every literal in its reason chain is already in the learnt
    // clause (seen), at level 0, or itself redundant. Decisions and
    // literals whose level is outside the clause's abstract level set
    // end the chain as failures. Marks made during a failed probe are
    // rolled back; marks from successful probes persist as memoized
    // "reachable from the clause" facts for later probes.
    redundant_stack_.clear();
    redundant_stack_.push_back(enc);
    size_t rollback = to_clear.size();
    while (!redundant_stack_.empty()) {
        int p = redundant_stack_.back();
        redundant_stack_.pop_back();
        int reason = vardata_[litVar(p)].reason;
        assert(reason != -1);
        const int *lits = clauseLits(reason);
        const int size = clauseSize(reason);
        // Skip the literal the clause propagated (@p p itself) by
        // variable; binary reasons from the watcher fast path are not
        // position-normalized, so positional skipping would be wrong.
        int skip_var = litVar(p);
        for (int i = 0; i < size; ++i) {
            int q = lits[i];
            int var = litVar(q);
            if (var == skip_var || seen_[var])
                continue;
            const VarData &data = vardata_[var];
            if (data.level == 0)
                continue;
            if (data.reason == -1 ||
                !(abstractLevel(var) & abstract_levels)) {
                for (size_t j = rollback; j < to_clear.size(); ++j)
                    seen_[to_clear[j]] = 0;
                to_clear.resize(rollback);
                return false;
            }
            seen_[var] = 1;
            to_clear.push_back(var);
            redundant_stack_.push_back(q);
        }
    }
    return true;
}

int
SatSolver::analyze(int conflict, std::vector<int> &learnt, uint32_t *lbd)
{
    // First-UIP conflict analysis. The marker array seen_ is a member
    // scratch buffer: it is all-zero on entry and every mark made here
    // is recorded and cleared again on exit, so no per-conflict
    // allocation or O(num_vars) wipe happens.
    learnt.clear();
    learnt.push_back(0); // placeholder for the asserting literal
    seen_clear_.clear();
    minimize_clear_.clear();
    int counter = 0;
    int enc = -1;
    size_t trail_index = trail_.size();
    const int current_level = decisionLevel();

    int reason_clause = conflict;
    do {
        assert(reason_clause != -1);
        if (clauseLearnt(reason_clause))
            bumpClause(reason_clause);
        const int *lits = clauseLits(reason_clause);
        const int size = clauseSize(reason_clause);
        // For reason clauses, skip the literal that was propagated
        // (var of @p enc); skipping by variable rather than position
        // keeps this correct for watcher-fast-path binary reasons.
        int skip_var = (enc == -1) ? 0 : litVar(enc);
        for (int i = 0; i < size; ++i) {
            int q = lits[i];
            int var = litVar(q);
            if (var == skip_var || seen_[var])
                continue;
            int level = vardata_[var].level;
            if (level == 0)
                continue;
            seen_[var] = 1;
            seen_clear_.push_back(var);
            if (level >= current_level) {
                ++counter;
            } else {
                learnt.push_back(q);
            }
        }
        // Pick the next literal from the trail to resolve on.
        do {
            assert(trail_index > 0);
            enc = trail_[--trail_index];
        } while (!seen_[litVar(enc)]);
        seen_[litVar(enc)] = 0;
        reason_clause = vardata_[litVar(enc)].reason;
        --counter;
    } while (counter > 0);
    learnt[0] = litNeg(enc);

    // Recursive clause minimization: drop literals implied by the
    // rest of the clause through their reason chains. seen_ still
    // marks exactly the vars of learnt[1..]; litRedundant extends it.
    if (learnt.size() > 1) {
        uint32_t abstract_levels = 0;
        for (size_t i = 1; i < learnt.size(); ++i)
            abstract_levels |= abstractLevel(litVar(learnt[i]));
        size_t kept = 1;
        for (size_t i = 1; i < learnt.size(); ++i) {
            int var = litVar(learnt[i]);
            if (vardata_[var].reason == -1 ||
                !litRedundant(learnt[i], abstract_levels,
                              minimize_clear_))
                learnt[kept++] = learnt[i];
        }
        learnt.resize(kept);
    }

    // LBD: number of distinct decision levels in the final clause.
    // Low-LBD ("glue") clauses connect few levels and are the learnt
    // clauses worth keeping forever.
    if (lbd) {
        ++lbd_stamp_;
        uint32_t levels = 0;
        for (int q : learnt) {
            size_t level = static_cast<size_t>(vardata_[litVar(q)].level);
            if (level >= level_stamps_.size())
                level_stamps_.resize(level + 1, 0);
            if (level_stamps_[level] != lbd_stamp_) {
                level_stamps_[level] = lbd_stamp_;
                ++levels;
            }
        }
        *lbd = levels;
    }

    // Compute the backtrack level (second-highest level in clause).
    int bt_level = 0;
    if (learnt.size() > 1) {
        size_t max_i = 1;
        int max_level = vardata_[litVar(learnt[1])].level;
        for (size_t i = 2; i < learnt.size(); ++i) {
            int level = vardata_[litVar(learnt[i])].level;
            if (level > max_level) {
                max_i = i;
                max_level = level;
            }
        }
        std::swap(learnt[1], learnt[max_i]);
        bt_level = max_level;
    }

    // Restore the all-zero seen_ invariant (both lists may share
    // entries with in-loop clears; clearing twice is harmless).
    for (int var : seen_clear_)
        seen_[var] = 0;
    for (int var : minimize_clear_)
        seen_[var] = 0;
    return bt_level;
}

void
SatSolver::analyzeFinal(int failed_enc)
{
    // Final-conflict analysis (MiniSat analyzeFinal): compute which
    // assumptions imply the negation of the failed assumption
    // @p failed_enc. During the assumption phase every decision on the
    // trail IS an assumption, so reason-less marked vars above level 0
    // are exactly the core members.
    conflict_core_.clear();
    conflict_core_.push_back(decode(failed_enc));
    if (trail_limits_.empty())
        return;
    seen_clear_.clear();
    seen_[litVar(failed_enc)] = 1;
    seen_clear_.push_back(litVar(failed_enc));
    size_t bottom = static_cast<size_t>(trail_limits_[0]);
    for (size_t i = trail_.size(); i > bottom; --i) {
        int enc = trail_[i - 1];
        int var = litVar(enc);
        if (!seen_[var])
            continue;
        int reason = vardata_[var].reason;
        if (reason == -1) {
            assert(vardata_[var].level > 0);
            conflict_core_.push_back(decode(enc));
        } else {
            const int *lits = clauseLits(reason);
            const int size = clauseSize(reason);
            for (int j = 0; j < size; ++j) {
                int qvar = litVar(lits[j]);
                if (qvar != var && vardata_[qvar].level > 0) {
                    seen_[qvar] = 1;
                    seen_clear_.push_back(qvar);
                }
            }
        }
        seen_[var] = 0;
    }
    // Marks below the scanned trail range (e.g. the failed literal
    // when it was falsified at the root) must be wiped explicitly to
    // restore the all-zero invariant.
    for (int var : seen_clear_)
        seen_[var] = 0;
}

void
SatSolver::backtrack(int level)
{
    if (decisionLevel() <= level)
        return;
    size_t limit = trail_limits_[level];
    for (size_t i = trail_.size(); i > limit; --i) {
        int enc = trail_[i - 1];
        int var = litVar(enc);
        values_[enc] = kUndef;
        values_[enc ^ 1] = kUndef;
        vardata_[var].reason = -1;
        // A freed variable newer than the search pointer becomes the
        // pointer; activation vars (stamp 0) never qualify.
        if (queue_[var].stamp > queue_[queue_search_].stamp)
            queue_search_ = var;
    }
    trail_.resize(limit);
    trail_limits_.resize(level);
    propagate_head_ = trail_.size();
}

int
SatSolver::pickBranchVar()
{
    // Every variable behind the search pointer is assigned; walk toward
    // the front to the first unassigned one and leave the pointer there.
    int var = queue_search_;
    while (var && valueOf(var * 2) != kUndef)
        var = queue_[var].prev;
    queue_search_ = var;
    return var ? var : -1;
}

void
SatSolver::rebuildWatches()
{
    for (std::vector<Watcher> &watch_list : watches_)
        watch_list.clear();
    for (size_t c = 0; c < arena_.size();
         c += kHeader + clauseSize(static_cast<int>(c)))
        attachClause(static_cast<int>(c));
}

template <typename Keep>
void
SatSolver::compactArena(Keep keep)
{
    // @p keep sees each record in creation order and appends the
    // literals it keeps to the new arena (after the header slot this
    // function reserves), or returns false to drop the record.
    std::vector<int> compacted;
    compacted.reserve(arena_.size());
    for (size_t c = 0; c < arena_.size();
         c += kHeader + clauseSize(static_cast<int>(c))) {
        int cref = static_cast<int>(c);
        size_t start = compacted.size();
        compacted.insert(compacted.end(), arena_.begin() + cref,
                         arena_.begin() + cref + kHeader);
        if (!keep(cref, compacted)) {
            compacted.resize(start);
            continue;
        }
        compacted[start] =
            static_cast<int>(compacted.size() - start - kHeader);
    }
    arena_ = std::move(compacted);
    // Clause references changed wholesale; rebuild every watch list.
    rebuildWatches();
}

void
SatSolver::reduceLearnts()
{
    // Called at decision level 0. Level-0 assignments may still carry
    // clause reasons from root propagation; analyze() never
    // dereferences level-0 reasons, so they can be cleared before the
    // references are invalidated by compaction.
    for (int enc : trail_)
        vardata_[litVar(enc)].reason = -1;

    // Rank reducible learnt clauses by activity, ties to the older
    // (lower-cref) clause so the reduction is deterministic; drop the
    // less active half. Binary learnt clauses are cheap to keep and
    // high-value, and glue clauses (LBD <= 2) bridge almost-adjacent
    // decision levels and keep proving useful across incremental
    // calls, so neither is ever dropped.
    std::vector<int> candidates;
    for (size_t c = 0; c < arena_.size();
         c += kHeader + clauseSize(static_cast<int>(c))) {
        int cref = static_cast<int>(c);
        if (clauseLearnt(cref) && clauseSize(cref) > 2 &&
            clauseLbd(cref) > 2)
            candidates.push_back(cref);
    }
    if (candidates.size() < 2)
        return;
    std::sort(candidates.begin(), candidates.end(), [&](int a, int b) {
        double activity_a = clauseActivity(a);
        double activity_b = clauseActivity(b);
        if (activity_a != activity_b)
            return activity_a > activity_b;
        return a < b;
    });
    // Walk the victims in arena order alongside the compaction.
    std::vector<int> victims(candidates.begin() + candidates.size() / 2,
                             candidates.end());
    std::sort(victims.begin(), victims.end());
    size_t next_victim = 0;
    compactArena([&](int cref, std::vector<int> &out) {
        if (next_victim < victims.size() && victims[next_victim] == cref) {
            ++next_victim;
            return false;
        }
        const int *lits = clauseLits(cref);
        out.insert(out.end(), lits, lits + clauseSize(cref));
        return true;
    });
    learnts_removed_ += victims.size();
    num_learnts_ -= victims.size();
}

void
SatSolver::simplifyAtRoot()
{
    assert(trail_limits_.empty());
    if (unsat_)
        return;
    if (propagate() != -1) {
        unsat_ = true;
        return;
    }
    for (int enc : trail_)
        vardata_[litVar(enc)].reason = -1;

    // Root assignments are permanent, so clauses they satisfy are
    // dead weight (this is how released activation groups and the
    // learnt clauses they tainted get reclaimed) and false literals
    // can be stripped in place. After a clean root propagation no
    // surviving clause can have fewer than two free literals.
    uint64_t removed_learnts = 0;
    uint64_t removed_total = 0;
    compactArena([&](int cref, std::vector<int> &out) {
        const int *lits = clauseLits(cref);
        const int size = clauseSize(cref);
        size_t start = out.size();
        for (int k = 0; k < size; ++k) {
            int8_t value = valueOf(lits[k]);
            if (value == kTrue) {
                ++removed_total;
                if (clauseLearnt(cref))
                    ++removed_learnts;
                return false;
            }
            if (value == kUndef)
                out.push_back(lits[k]);
        }
        assert(out.size() - start >= 2 &&
               "unit/empty clause survived root propagation");
        (void)start;
        return true;
    });
    num_learnts_ -= removed_learnts;
    clauses_reclaimed_ += removed_total;
}

void
SatSolver::releaseVar(int var)
{
    assert(var >= 1 && var <= num_vars_);
    assert(trail_limits_.empty() &&
           "releaseVar must be called between solve calls");
    if (unsat_)
        return;
    // The release unit retires the selector; the root sweep then
    // reclaims its guarded group and every learnt clause that picked
    // the selector up (all satisfied by -var now). Selector-free
    // learnt clauses — the ones derived purely from the shared
    // encoding — survive and keep their watches.
    if (!addUnit(-var))
        return;
    simplifyAtRoot();
}

SatResult
SatSolver::solve(uint64_t conflict_budget)
{
    return solveAssuming({}, conflict_budget);
}

SatResult
SatSolver::solveAssuming(const std::vector<Lit> &assumptions,
                         uint64_t conflict_budget)
{
    // Chaos-test injection: pretend the conflict budget was exhausted
    // immediately, exactly the answer an adversarial instance forces.
    if (LPO_FAILPOINT("sat.exhaust"))
        return SatResult::Unknown;
    // Encode before clearing the core: callers may legitimately pass
    // unsatCore() itself back in (core-guided retries).
    assumption_encs_.clear();
    for (Lit lit : assumptions) {
        assert(lit != 0 && std::abs(lit) <= num_vars_);
        assumption_encs_.push_back(encode(lit));
    }
    conflict_core_.clear();
    if (unsat_)
        return SatResult::Unsat;
    assert(trail_limits_.empty() &&
           "solve calls must start at decision level 0");
    if (propagate() != -1) {
        unsat_ = true;
        return SatResult::Unsat;
    }

    const uint64_t conflicts_at_entry = conflicts_;
    uint64_t restart_index = 0;
    uint64_t restart_limit = restart_unit_ * lubyTerm(restart_index);
    uint64_t conflicts_since_restart = 0;

    for (;;) {
        int conflict = propagate();
        if (conflict != -1) {
            ++conflicts_;
            ++conflicts_since_restart;
            if (trail_limits_.empty()) {
                unsat_ = true;
                return SatResult::Unsat;
            }
            if (conflict_budget &&
                conflicts_ - conflicts_at_entry >= conflict_budget) {
                backtrack(0);
                return SatResult::Unknown;
            }
            // Cooperative cancellation answers like an exhausted
            // budget; an unset flag costs one predictable branch per
            // conflict and changes nothing else.
            if (interrupt_ &&
                interrupt_->load(std::memory_order_relaxed)) {
                backtrack(0);
                return SatResult::Unknown;
            }
            uint32_t lbd = 0;
            int bt_level = analyze(conflict, learnt_scratch_, &lbd);
            bumpAnalyzed();
            backtrack(bt_level);
            if (learnt_scratch_.size() == 1) {
                // Asserting at level 0 after the backjump, so the
                // literal is unassigned.
                assign(learnt_scratch_[0], -1);
            } else {
                int cref = storeClause(learnt_scratch_.data(),
                                       learnt_scratch_.size(), true, lbd,
                                       cla_inc_);
                ++num_learnts_;
                attachClause(cref);
                assert(valueOf(learnt_scratch_[0]) == kUndef &&
                       "learnt clause must be asserting");
                assign(learnt_scratch_[0], cref);
            }
            cla_inc_ /= 0.999;
        } else {
            if (conflicts_since_restart >= restart_limit) {
                conflicts_since_restart = 0;
                ++restarts_;
                ++restart_index;
                restart_limit = restart_unit_ * lubyTerm(restart_index);
                backtrack(0);
                // Restart is the safe point to shed inactive learnt
                // clauses: nothing above level 0 holds a reason.
                if (num_learnts_ > reduce_limit_) {
                    reduceLearnts();
                    reduce_limit_ += reduce_limit_ / 2;
                }
                continue;
            }
            // Assumption phase: every level up to assumptions.size()
            // is pinned to an assumption (re-established after each
            // restart or deep backjump before any free decision).
            int next_assumption = -1;
            while (trail_limits_.size() < assumption_encs_.size()) {
                int a = assumption_encs_[trail_limits_.size()];
                int8_t value = valueOf(a);
                if (value == kTrue) {
                    // Already implied: open an empty pseudo-level so
                    // assumption index i always lives at level i+1.
                    trail_limits_.push_back(
                        static_cast<int>(trail_.size()));
                    continue;
                }
                if (value == kFalse) {
                    // The formula refutes this assumption given the
                    // earlier ones: extract the final conflict. The
                    // solver itself stays consistent.
                    analyzeFinal(a);
                    backtrack(0);
                    return SatResult::Unsat;
                }
                next_assumption = a;
                break;
            }
            if (next_assumption != -1) {
                trail_limits_.push_back(static_cast<int>(trail_.size()));
                assign(next_assumption, -1);
                continue;
            }
            int var = pickBranchVar();
            if (var == -1) {
                model_ = values_;
                backtrack(0);
                return SatResult::Sat;
            }
            ++decisions_;
            trail_limits_.push_back(static_cast<int>(trail_.size()));
            assign(var * 2 + (polarity_[var] ? 0 : 1), -1);
        }
    }
}

bool
SatSolver::modelValue(int var) const
{
    assert(var >= 1 && var <= num_vars_);
    assert(static_cast<size_t>(var) * 2 < model_.size() &&
           "modelValue requires a preceding Sat answer");
    return model_[static_cast<size_t>(var) * 2] == kTrue;
}

} // namespace lpo::smt
