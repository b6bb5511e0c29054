// Erlang-B loss analysis for the dynamic VCR stream reserve.
//
// Dedicated-stream demand behaves as an M/G/∞-like process: VCR phase-1
// holdings and post-miss holdings arrive (approximately) as a Poisson
// stream and hold a stream for some service time. When the reserve is a
// finite pool of c streams with blocked-requests-lost semantics (the server
// simulator's behavior), the blocking probability is given by the Erlang-B
// formula — which is *insensitive* to the holding-time distribution and
// needs only the offered load a = (arrival rate) × (mean holding time).
//
// Measuring a is easy: it equals the mean number of busy streams under an
// unlimited supply, which RunSimulation reports as mean_dedicated_streams.
// Feed that into ErlangBlockingProbability / MinStreamsForBlocking to size
// the reserve for a refusal target — the analytic counterpart of
// `vodctl reproduce --artifact=blocking`.

#ifndef VOD_CORE_ERLANG_H_
#define VOD_CORE_ERLANG_H_

#include "common/status.h"

namespace vod {

/// \brief Erlang-B blocking probability B(c, a).
///
/// Computed with the numerically stable recurrence
/// B(0, a) = 1, B(c, a) = a·B(c−1, a) / (c + a·B(c−1, a)).
/// \param servers  pool size c >= 0.
/// \param offered_load  a = λ·E[S] >= 0, in Erlangs.
Result<double> ErlangBlockingProbability(int servers, double offered_load);

/// \brief Smallest pool size whose blocking is <= `target_blocking`.
///
/// Returns InvalidArgument for targets outside (0, 1]; the result is capped
/// at `max_servers` (Infeasible if even that is not enough).
Result<int> MinStreamsForBlocking(double offered_load, double target_blocking,
                                  int max_servers = 1000000);

/// \brief Carried load: a·(1 − B(c, a)), the mean number of busy servers in
/// the finite pool. Useful for utilization reporting.
Result<double> ErlangCarriedLoad(int servers, double offered_load);

/// \brief Blocking probability of a pool striped over failure-prone disks.
///
/// The reserve is served by `disks` independent disks contributing
/// `streams_per_disk` streams each; every disk is up with stationary
/// probability `availability` (MTBF / (MTBF + MTTR)). Under the
/// quasi-stationary approximation — failures and repairs are slow compared
/// to stream holding times, so the pool reaches Erlang equilibrium between
/// capacity changes — the blocking probability is the binomial mixture
///   Σ_k C(disks, k)·A^k·(1−A)^(disks−k) · B(k·streams_per_disk, a).
/// availability = 1 recovers plain Erlang-B at full capacity; availability
/// = 0 gives certain blocking.
Result<double> ErlangBlockingWithFailures(int disks, int streams_per_disk,
                                          double offered_load,
                                          double availability);

}  // namespace vod

#endif  // VOD_CORE_ERLANG_H_
