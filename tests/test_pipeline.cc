// LPO pipeline (Algorithm 1) tests: success paths, feedback paths,
// the LPO- ablation, and statistics.

#include <gtest/gtest.h>

#include "core/pipeline.h"
#include "corpus/benchmarks.h"
#include "ir/parser.h"
#include "llm/mock_model.h"
#include "support/telemetry.h"

using namespace lpo;
using core::CaseStatus;
using core::Pipeline;
using core::PipelineConfig;
using llm::MockModel;
using llm::ModelProfile;

namespace {

std::unique_ptr<ir::Function>
parseBench(ir::Context &ctx, const std::string &issue)
{
    return ir::parseFunction(ctx,
        corpus::findBenchmark(issue)->src_text).take();
}

ModelProfile
perfectModel()
{
    ModelProfile p = llm::modelByName("Gemini2.0T");
    p.skill = 2.5; // above every difficulty, including the 2.0 tier
    p.syntax_error_rate = 0;
    p.semantic_error_rate = 0;
    return p;
}

/** A model that always proposes the same candidate text. */
class FixedModel : public llm::LlmClient
{
  public:
    explicit FixedModel(std::string text) : text_(std::move(text)) {}
    const std::string &name() const override { return name_; }
    llm::LlmResponse complete(const llm::LlmRequest &) override
    {
        llm::LlmResponse response;
        response.text = text_;
        return response;
    }

  private:
    std::string name_ = "fixed";
    std::string text_;
};

} // namespace

TEST(PipelineTest, FindsVerifiedOptimization)
{
    ir::Context ctx;
    auto src = parseBench(ctx, "115466"); // add_and_or
    MockModel model(perfectModel(), 1);
    Pipeline pipeline(model);
    auto outcome = pipeline.optimizeSequence(*src, 1);
    EXPECT_EQ(outcome.status, CaseStatus::Found);
    EXPECT_EQ(outcome.attempts, 1u);
    EXPECT_NE(outcome.candidate_text.find("add"), std::string::npos);
    EXPECT_EQ(pipeline.stats().found, 1u);
}

TEST(PipelineTest, SyntaxErrorFeedbackPath)
{
    ir::Context ctx;
    auto src = parseBench(ctx, "122235"); // clamp_umin
    ModelProfile profile = perfectModel();
    profile.syntax_error_rate = 1.0;
    profile.repair_skill = 1.0;
    MockModel model(profile, 3);
    Pipeline pipeline(model);
    auto outcome = pipeline.optimizeSequence(*src, 1);
    EXPECT_EQ(outcome.status, CaseStatus::Found);
    EXPECT_EQ(outcome.attempts, 2u);
    EXPECT_EQ(pipeline.stats().syntax_errors, 1u);
}

TEST(PipelineTest, LpoMinusStopsAfterFirstFailure)
{
    ir::Context ctx;
    auto src = parseBench(ctx, "122235");
    ModelProfile profile = perfectModel();
    profile.syntax_error_rate = 1.0; // always corrupt; never repairs
    MockModel model(profile, 3);
    PipelineConfig config;
    config.enable_feedback = false;
    Pipeline pipeline(model, config);
    auto outcome = pipeline.optimizeSequence(*src, 1);
    EXPECT_EQ(outcome.status, CaseStatus::SyntaxError);
    EXPECT_EQ(outcome.attempts, 1u);
}

TEST(PipelineTest, CounterexampleFeedbackPath)
{
    ir::Context ctx;
    auto src = parseBench(ctx, "108451"); // add_signbit
    ModelProfile profile = perfectModel();
    profile.semantic_error_rate = 1.0; // wrong constant first
    profile.repair_skill = 1.0;
    MockModel model(profile, 4);
    Pipeline pipeline(model);
    auto outcome = pipeline.optimizeSequence(*src, 1);
    // First candidate is wrong; the Alive2-style counterexample
    // drives the corrected second attempt.
    EXPECT_EQ(outcome.status, CaseStatus::Found);
    EXPECT_EQ(outcome.attempts, 2u);
    EXPECT_EQ(pipeline.stats().incorrect_candidates, 1u);
}

TEST(PipelineTest, EchoedInputIsNoCandidate)
{
    ir::Context ctx;
    auto src = ir::parseFunction(ctx,
        "define i8 @f(i8 %x, i8 %y) {\n"
        "  %a = add i8 %x, %y\n"
        "  %b = xor i8 %a, 29\n"
        "  ret i8 %b\n}\n").take();
    MockModel model(perfectModel(), 1);
    Pipeline pipeline(model);
    auto outcome = pipeline.optimizeSequence(*src, 1);
    EXPECT_EQ(outcome.status, CaseStatus::NoCandidate);
}

TEST(PipelineTest, AttemptLimitRespected)
{
    ir::Context ctx;
    auto src = parseBench(ctx, "108451");
    ModelProfile profile = perfectModel();
    profile.semantic_error_rate = 1.0;
    profile.repair_skill = 0.0; // never repairs
    MockModel model(profile, 6);
    PipelineConfig config;
    config.attempt_limit = 3;
    Pipeline pipeline(model, config);
    auto outcome = pipeline.optimizeSequence(*src, 1);
    EXPECT_NE(outcome.status, CaseStatus::Found);
    EXPECT_EQ(outcome.attempts, 3u);
}

TEST(PipelineTest, TracksSimulatedTimeAndCost)
{
    ir::Context ctx;
    auto src = parseBench(ctx, "115466");
    MockModel model(perfectModel(), 1);
    Pipeline pipeline(model);
    auto outcome = pipeline.optimizeSequence(*src, 1);
    EXPECT_GT(outcome.llm_seconds, 0.0);
    EXPECT_GT(outcome.total_seconds, outcome.llm_seconds);
    EXPECT_GT(outcome.cost_usd, 0.0); // Gemini profile is API-priced
}

TEST(PipelineTest, FeedbackImprovesDetectionStatistically)
{
    // Over all 25 RQ1 benchmarks, LPO must find at least as many as
    // LPO- with the same model and seeds, and strictly more in total.
    ir::Context ctx;
    ModelProfile profile = llm::modelByName("Gemini2.0T");
    unsigned lpo = 0, lpo_minus = 0;
    for (const auto &bench : corpus::rq1Benchmarks()) {
        auto src = ir::parseFunction(ctx, bench.src_text).take();
        for (uint64_t round = 0; round < 3; ++round) {
            {
                MockModel model(profile, 100 + round);
                Pipeline p(model);
                lpo += p.optimizeSequence(*src, round).found();
            }
            {
                MockModel model(profile, 100 + round);
                PipelineConfig config;
                config.enable_feedback = false;
                Pipeline p(model, config);
                lpo_minus += p.optimizeSequence(*src, round).found();
            }
        }
    }
    EXPECT_GT(lpo, lpo_minus);
}

// num_threads = 1 is serial all the way down: the pipeline caps the
// verifier's sweep threads, so even a 20,000-sample FP sweep runs on
// the caller and no scheduler task runs. Both the default
// RefineOptions::num_threads (0, i.e. hardware concurrency, which is 1
// on a one-core host) and an explicit 8 must be capped.
TEST(PipelineTest, SingleThreadPipelineVerifiesSerially)
{
    ir::Context ctx;
    auto src = ir::parseFunction(ctx,
        "define double @f(double %x) {\n"
        "  %a = fmul double %x, 1.000000e+00\n"
        "  %b = fmul double %a, 1.000000e+00\n"
        "  ret double %b\n}\n").take();
    FixedModel model("define double @f(double %x) {\n"
                     "  ret double %x\n}\n");
    ASSERT_EQ(PipelineConfig().refine.num_threads, 0u);
    auto &registry = telemetry::MetricsRegistry::instance();
    registry.setEnabled(true);
    for (unsigned refine_threads : {0u, 8u}) {
        SCOPED_TRACE(refine_threads);
        PipelineConfig config;
        config.num_threads = 1;
        config.refine.num_threads = refine_threads;
        Pipeline pipeline(model, config);

        const uint64_t before =
            registry.snapshot().counter("sched.tasks_run");
        auto outcome = pipeline.optimizeSequence(*src, 1);
        EXPECT_EQ(outcome.verifier_backend, "sampled");
        EXPECT_EQ(outcome.status, CaseStatus::Found);
        EXPECT_EQ(registry.snapshot().counter("sched.tasks_run"), before);
    }
}
