// Umbrella header: the library's public API in one include.
//
//   #include "vod.h"
//
// Groups (see the individual headers for full documentation):
//   model    — PartitionLayout, AnalyticHitModel, CompiledDuration,
//              hit intervals, the literal/casewise equation transcriptions,
//              the brute-force reference model
//   sizing   — feasible sets, MinimumBufferChoice, SizeSystem, cost model,
//              Erlang-B reserve sizing, piggyback geometry
//   dist     — the Distribution hierarchy and ParseDistributionSpec
//   sim      — RunSimulation, RunServerSimulation, MovieWorld, tracing,
//              arrival processes
//   storage  — disk model
//   workload — catalogs, Zipf popularity, the paper's presets

#ifndef VOD_VOD_H_
#define VOD_VOD_H_

// common
#include "common/flags.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/table.h"

// distributions
#include "dist/deterministic.h"
#include "dist/distribution.h"
#include "dist/empirical.h"
#include "dist/exponential.h"
#include "dist/gamma.h"
#include "dist/lognormal.h"
#include "dist/mixture.h"
#include "dist/pareto.h"
#include "dist/transformed.h"
#include "dist/uniform.h"
#include "dist/weibull.h"

// the paper's model and sizing machinery
#include "core/cost_model.h"
#include "core/erlang.h"
#include "core/extended_equations.h"
#include "core/hit_intervals.h"
#include "core/hit_model.h"
#include "core/paper_equations.h"
#include "core/partition_layout.h"
#include "core/piggyback.h"
#include "core/reference_model.h"
#include "core/sizing.h"
#include "core/types.h"

// simulation
#include "sim/arrival_process.h"
#include "sim/server.h"
#include "sim/simulator.h"
#include "sim/trace.h"

// storage & workload
#include "storage/disk_model.h"
#include "workload/catalog.h"
#include "workload/paper_presets.h"
#include "workload/zipf.h"

#endif  // VOD_VOD_H_
