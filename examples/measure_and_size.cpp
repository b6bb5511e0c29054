// The operator loop the paper sketches in §2.1: "the pdf of VCR requests
// can be obtained by statistics while the movie is displayed."
//
//   1. run the movie and LOG every VCR request (here: the simulator stands
//      in for production, driven by a "true" behavior the operator cannot
//      see; the log is the event bus's vcr_begin records, collected in
//      memory — a --trace_out file read back with ReadTraceFile fits the
//      same),
//   2. FIT an empirical behavior model from the log,
//   3. SIZE the movie from the fitted model, and
//   4. VERIFY the fitted sizing against the true behavior.
//
//   ./build/examples/measure_and_size
//   ./build/examples/measure_and_size --true_duration='exp(5)' --hours=200

#include <cstdio>
#include <vector>

#include "common/check.h"
#include "common/flags.h"
#include "core/sizing.h"
#include "obs/event_log.h"
#include "sim/simulator.h"
#include "sim/trace.h"
#include "workload/paper_presets.h"

int main(int argc, char** argv) {
  using namespace vod;
  FlagSet flags("measure_and_size");
  flags.AddString("true_duration", "gamma(2,4)",
                  "the (hidden) true VCR duration distribution");
  flags.AddDouble("hours", 500.0, "production hours to log");
  flags.AddDouble("wait", 0.5, "target max wait (minutes)");
  flags.AddDouble("pstar", 0.5, "target hit probability");
  VOD_CHECK_OK(flags.Parse(argc, argv));

  const double movie_length = 120.0;
  const auto true_duration =
      ParseDistributionSpec(flags.GetString("true_duration"));
  VOD_CHECK_OK(true_duration.status());

  // --- 1. production run with logging -------------------------------------
  VcrBehavior true_behavior;
  true_behavior.mix = VcrMix::PaperMixed();
  true_behavior.durations = VcrDurations::AllSame(*true_duration);
  true_behavior.interactivity = paper::DefaultInteractivity();

  // Whatever layout production happens to run today; logging is
  // layout-independent.
  const auto production_layout =
      PartitionLayout::FromBuffer(movie_length, 40, 80.0);
  VOD_CHECK_OK(production_layout.status());

  EventLog log;
  log.set_mask(CategoryBit(EventCategory::kVcrBegin));
  VectorSink sink;
  log.AddSink(&sink);
  SimulationOptions production;
  production.behavior = true_behavior;
  production.warmup_minutes = 0.0;
  production.measurement_minutes = flags.GetDouble("hours") * 60.0;
  production.obs.event_log = &log;
  const auto report =
      RunSimulation(*production_layout, paper::Rates(), production);
  VOD_CHECK_OK(report.status());
  const std::vector<TraceEvent> trace = sink.Take();
  std::printf("1. logged %zu VCR requests over %.0f hours of production\n",
              trace.size(), flags.GetDouble("hours"));

  // --- 2. fit -----------------------------------------------------------------
  const auto fitted = FitBehaviorFromTrace(trace);
  VOD_CHECK_OK(fitted.status());
  std::printf("2. fitted mix: FF %.3f / RW %.3f / PAU %.3f; FF duration "
              "mean %.2f min (true: %.2f)\n",
              fitted->mix.p_fast_forward, fitted->mix.p_rewind,
              fitted->mix.p_pause, fitted->durations.fast_forward->Mean(),
              (*true_duration)->Mean());

  // --- 3. size from the fitted model ------------------------------------------
  MovieSizingSpec fitted_spec;
  fitted_spec.name = "from-trace";
  fitted_spec.length_minutes = movie_length;
  fitted_spec.max_wait_minutes = flags.GetDouble("wait");
  fitted_spec.min_hit_probability = flags.GetDouble("pstar");
  fitted_spec.mix = fitted->mix;
  fitted_spec.durations = fitted->durations;
  fitted_spec.rates = paper::Rates();
  const auto fitted_choice = MinimumBufferChoice(fitted_spec);
  VOD_CHECK_OK(fitted_choice.status());
  std::printf("3. sized from the trace: B* = %.1f min, n* = %d "
              "(model P(hit) = %.4f)\n",
              fitted_choice->buffer_minutes, fitted_choice->streams,
              fitted_choice->hit_probability);

  // --- 4. verify against the truth -----------------------------------------------
  MovieSizingSpec true_spec = fitted_spec;
  true_spec.name = "oracle";
  true_spec.mix = VcrMix::PaperMixed();
  true_spec.durations = VcrDurations::AllSame(*true_duration);
  const auto oracle_choice = MinimumBufferChoice(true_spec);
  VOD_CHECK_OK(oracle_choice.status());
  std::printf("4. oracle sizing (true behavior): B* = %.1f min, n* = %d\n",
              oracle_choice->buffer_minutes, oracle_choice->streams);

  // And the acid test: does the trace-sized layout deliver P* under the
  // TRUE behavior?
  const auto layout = PartitionLayout::FromMaxWait(
      movie_length, fitted_choice->streams, fitted_spec.max_wait_minutes);
  VOD_CHECK_OK(layout.status());
  const auto model = AnalyticHitModel::Create(*layout, paper::Rates());
  VOD_CHECK_OK(model.status());
  const auto delivered = model->HitProbability(
      true_spec.mix, true_spec.durations);
  VOD_CHECK_OK(delivered.status());
  std::printf("   trace-sized layout under the true behavior: "
              "P(hit) = %.4f (target %.2f) -> %s\n",
              *delivered, fitted_spec.min_hit_probability,
              *delivered >= fitted_spec.min_hit_probability - 0.01
                  ? "requirement met"
                  : "UNDER TARGET — log longer before sizing");
  return 0;
}
