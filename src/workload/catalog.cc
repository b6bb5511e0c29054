#include "workload/catalog.h"

#include <istream>
#include <sstream>

#include "common/parse.h"

namespace vod {

Result<Catalog> Catalog::Create(std::vector<MovieEntry> movies,
                                double zipf_exponent,
                                double total_arrivals_per_minute) {
  if (movies.empty()) {
    return Status::InvalidArgument("catalog needs at least one movie");
  }
  if (!(total_arrivals_per_minute > 0.0)) {
    return Status::InvalidArgument("total arrival rate must be positive");
  }
  for (const auto& m : movies) {
    if (!(m.length_minutes > 0.0) || !(m.max_wait_minutes > 0.0)) {
      return Status::InvalidArgument("movie '" + m.title +
                                     "' has invalid length or wait target");
    }
  }
  VOD_ASSIGN_OR_RETURN(
      ZipfDistribution zipf,
      ZipfDistribution::Create(static_cast<int>(movies.size()),
                               zipf_exponent));
  return Catalog(std::move(movies), std::move(zipf),
                 total_arrivals_per_minute);
}

double Catalog::ArrivalRate(int rank) const {
  return total_rate_ * zipf_.Probability(rank);
}

Result<Catalog> Catalog::FromCsv(std::istream& is, double zipf_exponent,
                                 double total_arrivals_per_minute) {
  static const char kHeader[] =
      "title,length,max_wait,min_hit_probability,p_ff,p_rw,p_pau,"
      "duration,interactivity";
  std::string line;
  if (!std::getline(is, line) || line.rfind(kHeader, 0) != 0) {
    return Status::InvalidArgument(
        std::string("catalog CSV must start with header '") + kHeader + "'");
  }
  static const std::vector<std::string> kColumns = SplitFields(kHeader, ',');
  std::vector<MovieEntry> movies;
  int line_number = 1;
  while (std::getline(is, line)) {
    ++line_number;
    if (line.empty()) continue;
    const auto at_line = [line_number](const std::string& why) {
      return Status::InvalidArgument("line " + std::to_string(line_number) +
                                     ": " + why);
    };
    // Commas inside a spec's parentheses ("gamma(2,4)") stay in its field.
    const std::vector<std::string> fields = SplitFields(line, ',');
    if (fields.size() != kColumns.size()) {
      return at_line("expected " + std::to_string(kColumns.size()) +
                     " fields, got " + std::to_string(fields.size()) + ": " +
                     line);
    }
    // A refused field names its line and column.
    const auto field = [&](size_t column, auto parse) {
      auto v = parse(fields[column]);
      if (!v.ok()) v = at_line(kColumns[column] + " " + v.status().message());
      return v;
    };
    MovieEntry entry;
    entry.title = fields[0];
    VOD_ASSIGN_OR_RETURN(entry.length_minutes, field(1, ParseDouble));
    VOD_ASSIGN_OR_RETURN(entry.max_wait_minutes, field(2, ParseDouble));
    VOD_ASSIGN_OR_RETURN(entry.min_hit_probability, field(3, ParseDouble));
    VOD_ASSIGN_OR_RETURN(const double p_ff, field(4, ParseDouble));
    VOD_ASSIGN_OR_RETURN(const double p_rw, field(5, ParseDouble));
    VOD_ASSIGN_OR_RETURN(const double p_pau, field(6, ParseDouble));
    if (p_ff + p_rw + p_pau > 0.0) {
      entry.behavior.mix = VcrMix{p_ff, p_rw, p_pau};
      const Status mix_status = entry.behavior.mix.Validate();
      if (!mix_status.ok()) return at_line(mix_status.message());
      VOD_ASSIGN_OR_RETURN(const DistributionPtr duration,
                           field(7, ParseDistributionSpec));
      entry.behavior.durations = VcrDurations::AllSame(duration);
      VOD_ASSIGN_OR_RETURN(entry.behavior.interactivity,
                           field(8, ParseDistributionSpec));
    } else {
      entry.behavior.interactivity = nullptr;  // passive title
    }
    movies.push_back(std::move(entry));
  }
  return Create(std::move(movies), zipf_exponent, total_arrivals_per_minute);
}

Result<Catalog> Catalog::Synthetic(int count, double zipf_exponent,
                                   double total_arrivals_per_minute,
                                   const VcrBehavior& behavior) {
  if (count < 1) {
    return Status::InvalidArgument("count must be >= 1");
  }
  static const double kLengths[] = {90.0, 105.0, 120.0, 135.0};
  std::vector<MovieEntry> movies;
  movies.reserve(static_cast<size_t>(count));
  for (int i = 0; i < count; ++i) {
    MovieEntry entry;
    std::ostringstream title;
    title << "movie-" << (i + 1);
    entry.title = title.str();
    entry.length_minutes = kLengths[i % 4];
    entry.max_wait_minutes = 1.0;
    entry.min_hit_probability = 0.5;
    entry.behavior = behavior;
    movies.push_back(std::move(entry));
  }
  return Create(std::move(movies), zipf_exponent, total_arrivals_per_minute);
}

}  // namespace vod
