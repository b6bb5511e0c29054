// Movie catalog with Zipf popularity and per-title workload parameters.

#ifndef VOD_WORKLOAD_CATALOG_H_
#define VOD_WORKLOAD_CATALOG_H_

#include <iosfwd>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "sim/vcr_behavior.h"
#include "workload/zipf.h"

namespace vod {

/// One title in the catalog.
struct MovieEntry {
  std::string title;
  double length_minutes = 120.0;
  /// Target maximum waiting time when served with batching.
  double max_wait_minutes = 1.0;
  /// Required hit probability when served with buffering.
  double min_hit_probability = 0.5;
  /// Viewer interactivity for this title.
  VcrBehavior behavior;
};

/// \brief A catalog of titles plus a Zipf popularity law over them.
///
/// Rank 1 is the most popular title (catalog insertion order defines rank).
class Catalog {
 public:
  /// Builds a catalog; `zipf_exponent` shapes popularity (0 = uniform).
  static Result<Catalog> Create(std::vector<MovieEntry> movies,
                                double zipf_exponent,
                                double total_arrivals_per_minute);

  size_t size() const { return movies_.size(); }
  const MovieEntry& movie(int rank) const { return movies_[rank - 1]; }
  const std::vector<MovieEntry>& movies() const { return movies_; }

  /// Per-title arrival rate: total rate × Zipf mass of the rank.
  double ArrivalRate(int rank) const;

  /// Samples the rank of the next arriving viewer's title.
  int SampleRank(Rng* rng) const { return zipf_.Sample(rng); }

  /// Ranks covering `fraction` of arrivals — the natural "popular set" that
  /// the paper's data-sharing techniques should target.
  int PopularSetSize(double fraction) const {
    return zipf_.RanksCoveringFraction(fraction);
  }

  double total_arrivals_per_minute() const { return total_rate_; }
  const ZipfDistribution& popularity() const { return zipf_; }

  /// A synthetic catalog of `count` titles with lengths cycling through
  /// typical values (90/105/120/135 min) and uniform requirements — handy
  /// for examples and capacity planning.
  static Result<Catalog> Synthetic(int count, double zipf_exponent,
                                   double total_arrivals_per_minute,
                                   const VcrBehavior& behavior);

  /// \brief Parses an operator-authored catalog from CSV.
  ///
  /// Header and columns (rank order = popularity order):
  ///   title,length,max_wait,min_hit_probability,p_ff,p_rw,p_pau,
  ///   duration,interactivity
  /// where `duration` and `interactivity` are distribution specs
  /// (ParseDistributionSpec). Rows with p_ff+p_rw+p_pau == 0 are passive.
  /// Fields are trimmed (SplitFields) and numbers read by ParseDouble; an
  /// error is an InvalidArgument naming the line and the column.
  static Result<Catalog> FromCsv(std::istream& is, double zipf_exponent,
                                 double total_arrivals_per_minute);

 private:
  Catalog(std::vector<MovieEntry> movies, ZipfDistribution zipf,
          double total_rate)
      : movies_(std::move(movies)),
        zipf_(std::move(zipf)),
        total_rate_(total_rate) {}

  std::vector<MovieEntry> movies_;
  ZipfDistribution zipf_;
  double total_rate_;
};

}  // namespace vod

#endif  // VOD_WORKLOAD_CATALOG_H_
