// PROFILE_SPEEDUP — wall-clock comparison of the port-load profile
// structures and the schedule validator engines on large schedules:
//
//   queries:     StepFunction (std::map deltas, O(n) scans)  vs
//                TimelineProfile (flat breakpoints + prefix caches,
//                O(log n) binary-searched queries)
//   validation:  validate_schedule kReference (hashed ids, map profiles)  vs
//                kSerial (id merge join, flat profiles)
//   alternate:   the admission books' call pattern (one max_over probe, one
//                reservation, repeat) on a profile of 64 / 1k / 10k resident
//                breakpoints: buffered `add` (a full merge before every
//                probe) vs `add_in_place`, median of >= 5 reps
//
// The `spread` column is (max - min) / run_s over the repetitions; run_s is
// the mean for queries/validate and the median for alternate.
// Both sides of every pair are checked to produce identical results before
// timing is reported. Results land in BENCH_profile_speedup.json by default;
// pass --json=PATH to redirect or --quick for a smoke run that skips the
// JSON artifact. (ISSUE target: >=5x on profile queries and >=2x on
// whole-schedule validation at the 100k-request scale.)

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/step_function.hpp"
#include "core/timeline_profile.hpp"
#include "core/validate.hpp"
#include "util/random.hpp"
#include "workload/generator.hpp"
#include "workload/load.hpp"
#include "workload/scenario.hpp"

namespace gridbw {
namespace {

TimePoint at(double s) { return TimePoint::at_seconds(s); }

template <typename Fn>
double time_once(const Fn& fn) {
  const auto t0 = std::chrono::steady_clock::now();
  fn();
  const auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(t1 - t0).count();
}

struct Interval {
  double lo, hi, bw;
};

struct QueryProbe {
  double t0, t1;
};

/// One step of the alternating pattern: probe [lo, hi), then reserve it.
struct AlternatingOp {
  double lo, hi, bw;
};

/// Runs `ops` on every profile of `books` (copies of one base profile) and
/// returns the wall time; `checksum` folds every probe result.
double time_alternating(std::vector<TimelineProfile>& books,
                        const std::vector<AlternatingOp>& ops, bool in_place,
                        double& checksum) {
  return time_once([&] {
    double acc = 0.0;
    for (TimelineProfile& book : books) {
      for (const AlternatingOp& op : ops) {
        acc += book.max_over(at(op.lo), at(op.hi));
        if (in_place) {
          book.add_in_place(at(op.lo), at(op.hi), op.bw);
        } else {
          book.add(at(op.lo), at(op.hi), op.bw);
        }
      }
    }
    checksum = acc;
  });
}

double median_of(std::vector<double> xs) {
  std::sort(xs.begin(), xs.end());
  const std::size_t n = xs.size();
  return n % 2 == 1 ? xs[n / 2] : 0.5 * (xs[n / 2 - 1] + xs[n / 2]);
}

/// (max - min) / center, the relative spread reported per row ("-" for a
/// single run, which has none).
std::string spread_of(const RunningStats& runs, double center) {
  if (runs.count() < 2 || !(center > 0.0)) return "-";
  return format_double((runs.max() - runs.min()) / center, 3);
}

/// One structure's timings over the same interval stack + query mix.
struct ProfileTiming {
  double build_s{0.0};
  double query_s{0.0};
  double checksum{0.0};  // fold of every query result, for cross-checking
};

template <typename Profile>
ProfileTiming run_profile(const std::vector<Interval>& intervals,
                          const std::vector<QueryProbe>& probes) {
  ProfileTiming out;
  Profile profile;
  out.build_s = time_once([&] {
    if constexpr (std::is_same_v<Profile, TimelineProfile>) {
      profile.reserve(intervals.size());
    }
    for (const Interval& iv : intervals) profile.add(at(iv.lo), at(iv.hi), iv.bw);
    // The flat profile defers sorting to the first query; fold that cost
    // into build so the query timing below is pure query work — the same
    // accounting the map gets (its sorting happens inside add).
    if constexpr (std::is_same_v<Profile, TimelineProfile>) {
      profile.ensure_merged();
    }
  });
  out.query_s = time_once([&] {
    double acc = 0.0;
    for (const QueryProbe& q : probes) {
      acc += profile.value_at(at(q.t0));
      acc += profile.max_over(at(q.t0), at(q.t1));
      acc += profile.integral(at(q.t0), at(q.t1));
    }
    acc += profile.global_max();
    out.checksum = acc;
  });
  return out;
}

const Network& paper_network() {
  static const Network net =
      Network::uniform(10, 10, Bandwidth::gigabytes_per_second(1));
  return net;
}

std::vector<Request> workload_of(std::size_t count) {
  workload::Scenario scenario =
      workload::paper_flexible(Duration::seconds(1), Duration::seconds(1), 4.0);
  scenario.spec.mean_interarrival =
      workload::interarrival_for_load(scenario.spec, scenario.network, 3.0);
  scenario.spec.horizon =
      scenario.spec.mean_interarrival * static_cast<double>(count);
  Rng rng{1234};
  auto requests = workload::generate(scenario.spec, rng);
  requests.resize(std::min(requests.size(), count));
  return requests;
}

bool same_report(const ValidationReport& a, const ValidationReport& b) {
  if (a.violations.size() != b.violations.size()) return false;
  for (std::size_t k = 0; k < a.violations.size(); ++k) {
    if (a.violations[k].kind != b.violations[k].kind ||
        a.violations[k].request != b.violations[k].request ||
        a.violations[k].port != b.violations[k].port ||
        a.violations[k].detail != b.violations[k].detail) {
      return false;
    }
  }
  return true;
}

int run(int argc, const char* const* argv) {
  auto args = bench::BenchArgs::parse(argc, argv);
  // This bench's artifact is the ISSUE's speedup proof; keep writing it by
  // default on full runs, but never let a --quick smoke run overwrite it.
  if (args.json_path.empty() && !args.quick) {
    args.json_path = "BENCH_profile_speedup.json";
  }
  const std::vector<std::size_t> sizes =
      args.quick ? std::vector<std::size_t>{2000}
                 : std::vector<std::size_t>{10000, 100000};
  const std::size_t query_count = args.quick ? 100 : 400;
  const std::size_t reps = args.quick ? 1 : 3;

  Table table{{"section", "requests", "variant", "build_s", "run_s", "speedup", "spread"}};
  std::vector<std::string> names;
  std::vector<RunningStats> walls;

  // -------------------------------------------------------------------
  // Part A: profile queries on a single port's load profile.
  // -------------------------------------------------------------------
  for (const std::size_t n : sizes) {
    Rng rng{args.config.base_seed};
    std::vector<Interval> intervals;
    intervals.reserve(n);
    const double horizon = static_cast<double>(n);  // ~1 new transfer per second
    for (std::size_t k = 0; k < n; ++k) {
      const double lo = rng.uniform(0.0, horizon);
      intervals.push_back(
          Interval{lo, lo + rng.uniform(10.0, 2000.0), rng.uniform(1e7, 1e9)});
    }
    std::vector<QueryProbe> probes;
    probes.reserve(query_count);
    for (std::size_t q = 0; q < query_count; ++q) {
      const double t0 = rng.uniform(-10.0, horizon);
      probes.push_back(QueryProbe{t0, t0 + rng.uniform(1.0, 500.0)});
    }

    RunningStats map_build, map_query, flat_build, flat_query;
    for (std::size_t rep = 0; rep < reps; ++rep) {
      const auto map_t = run_profile<StepFunction>(intervals, probes);
      const auto flat_t = run_profile<TimelineProfile>(intervals, probes);
      if (map_t.checksum != flat_t.checksum) {
        std::cerr << "FATAL: profile structures diverge at n=" << n << "\n";
        return 1;
      }
      map_build.add(map_t.build_s);
      map_query.add(map_t.query_s);
      flat_build.add(flat_t.build_s);
      flat_query.add(flat_t.query_s);
    }
    const double speedup =
        flat_query.mean() > 0.0 ? map_query.mean() / flat_query.mean() : 0.0;
    table.add_row({"queries", std::to_string(n), "map", format_double(map_build.mean(), 4),
                   format_double(map_query.mean(), 4), "1.00x",
                   spread_of(map_query, map_query.mean())});
    table.add_row({"queries", std::to_string(n), "flat",
                   format_double(flat_build.mean(), 4), format_double(flat_query.mean(), 4),
                   format_double(speedup, 2) + "x",
                   spread_of(flat_query, flat_query.mean())});
    names.push_back("queries/" + std::to_string(n) + "/map");
    names.push_back("queries/" + std::to_string(n) + "/flat");
    walls.push_back(map_query);
    walls.push_back(flat_query);
    std::cout << "profile queries, n=" << n << ": map " << format_double(map_query.mean(), 4)
              << "s vs flat " << format_double(flat_query.mean(), 4) << "s  ("
              << format_double(speedup, 1) << "x)\n";
  }

  // -------------------------------------------------------------------
  // Part B: whole-schedule validation, reference vs flat.
  // -------------------------------------------------------------------
  for (const std::size_t n : sizes) {
    const auto requests = workload_of(n);
    std::vector<Assignment> assignments;
    assignments.reserve(requests.size());
    for (const Request& r : requests) {
      assignments.push_back(Assignment{r.id, r.release, r.min_rate()});
    }

    ValidateOptions reference_options;
    reference_options.engine = ValidateEngine::kReference;
    ValidationReport ref_report, serial_report;
    RunningStats ref_wall, serial_wall;
    for (std::size_t rep = 0; rep < reps; ++rep) {
      ref_wall.add(time_once([&] {
        ref_report = validate_assignments(paper_network(), requests, assignments,
                                          reference_options);
      }));
      serial_wall.add(time_once([&] {
        serial_report = validate_assignments(paper_network(), requests, assignments);
      }));
    }
    if (!same_report(ref_report, serial_report)) {
      std::cerr << "FATAL: validator engines diverge at n=" << n << "\n";
      return 1;
    }
    const double serial_speedup =
        serial_wall.mean() > 0.0 ? ref_wall.mean() / serial_wall.mean() : 0.0;
    table.add_row({"validate", std::to_string(requests.size()), "reference", "-",
                   format_double(ref_wall.mean(), 4), "1.00x",
                   spread_of(ref_wall, ref_wall.mean())});
    table.add_row({"validate", std::to_string(requests.size()), "flat-serial", "-",
                   format_double(serial_wall.mean(), 4),
                   format_double(serial_speedup, 2) + "x",
                   spread_of(serial_wall, serial_wall.mean())});
    names.push_back("validate/" + std::to_string(requests.size()) + "/reference");
    names.push_back("validate/" + std::to_string(requests.size()) + "/flat-serial");
    walls.push_back(ref_wall);
    walls.push_back(serial_wall);
    std::cout << "validation, n=" << requests.size() << ": reference "
              << format_double(ref_wall.mean(), 4) << "s, flat-serial "
              << format_double(serial_wall.mean(), 4) << "s ("
              << format_double(serial_speedup, 1) << "x)\n";
  }

  // -------------------------------------------------------------------
  // Part C: one probe, one reservation, repeated — buffered vs in place.
  // -------------------------------------------------------------------
  const std::size_t alt_reps = args.quick ? 5 : 7;
  const std::size_t alt_ops_per_rep = args.quick ? 4000 : 20000;
  for (const std::size_t resident : {std::size_t{64}, std::size_t{1000}, std::size_t{10000}}) {
    Rng rng{args.config.base_seed + resident};
    const double horizon = static_cast<double>(resident);
    const auto interval = [&] {
      const double lo = rng.uniform(0.0, horizon);
      return AlternatingOp{lo, lo + rng.uniform(1.0, horizon / 4.0 + 1.0),
                           rng.uniform(1e7, 1e8)};
    };
    TimelineProfile base;
    for (std::size_t k = 0; k < resident / 2; ++k) {
      const AlternatingOp iv = interval();
      base.add(at(iv.lo), at(iv.hi), iv.bw);
    }
    base.ensure_merged();
    // Each copy takes resident/4 reservations, so it ends with at most 1.5x
    // the resident breakpoints it started with.
    std::vector<AlternatingOp> ops(std::max<std::size_t>(16, resident / 4));
    for (AlternatingOp& op : ops) op = interval();
    const std::size_t copies = std::max<std::size_t>(1, alt_ops_per_rep / ops.size());

    std::vector<double> buffered_s, in_place_s;
    RunningStats buffered_wall, in_place_wall;
    for (std::size_t rep = 0; rep < alt_reps; ++rep) {
      double buffered_sum = 0.0, in_place_sum = 0.0;
      std::vector<TimelineProfile> books(copies, base);
      buffered_s.push_back(time_alternating(books, ops, false, buffered_sum));
      books.assign(copies, base);
      in_place_s.push_back(time_alternating(books, ops, true, in_place_sum));
      if (buffered_sum != in_place_sum) {
        std::cerr << "FATAL: buffered and in-place profiles diverge at " << resident
                  << " resident breakpoints\n";
        return 1;
      }
      buffered_wall.add(buffered_s.back());
      in_place_wall.add(in_place_s.back());
    }
    const double buffered_med = median_of(buffered_s);
    const double in_place_med = median_of(in_place_s);
    const double speedup = in_place_med > 0.0 ? buffered_med / in_place_med : 0.0;
    const std::string label = std::to_string(resident);
    table.add_row({"alternate", label, "buffered", "-", format_double(buffered_med, 4),
                   "1.00x", spread_of(buffered_wall, buffered_med)});
    table.add_row({"alternate", label, "in-place", "-", format_double(in_place_med, 4),
                   format_double(speedup, 2) + "x",
                   spread_of(in_place_wall, in_place_med)});
    names.push_back("alternate/" + label + "/buffered");
    names.push_back("alternate/" + label + "/in-place");
    walls.push_back(buffered_wall);
    walls.push_back(in_place_wall);
    std::cout << "probe+reserve, " << resident << " resident breakpoints, "
              << copies * ops.size() << " ops: buffered " << format_double(buffered_med, 4)
              << "s vs in-place " << format_double(in_place_med, 4) << "s  ("
              << format_double(speedup, 1) << "x)\n";
  }

  const std::string title =
      "Flat timeline profiles — map vs flat queries, reference vs flat validation, "
      "probe+reserve buffered vs in place";
  bench::emit(title, table, args);
  if (!args.json_path.empty()) {
    bench::write_bench_json(args.json_path, "profile_speedup", title, table, names,
                            walls);
    std::cout << "(json written to " << args.json_path << ")\n";
  }
  return 0;
}

}  // namespace
}  // namespace gridbw

int main(int argc, char** argv) { return gridbw::run(argc, argv); }
