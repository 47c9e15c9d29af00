// gridbw_perfbench: runs one benchmark workload for a fixed time and prints its
// metrics as one JSON object on the last line of standard output.
//
//   gridbw_perfbench --workload <churn|paper_rigid|paper_flexible>
//                    --seed <n> --seconds <s> --trace <0|1>
//                    [--quick] [--trace-out <file>]
//   gridbw_perfbench --list-metrics   # the metric catalogue as JSON
//   gridbw_perfbench --selftest       # the output checks must catch faults
//
// Every repetition checks its output; a failed check prints the result with
// "correct": false and exits 1. README.md describes the workloads, the
// metrics and how to read the traced run.

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "checks.hpp"
#include "core/validate.hpp"
#include "metrics/objectives.hpp"
#include "obs/counters.hpp"
#include "obs/observer.hpp"
#include "obs/trace_sink.hpp"
#include "service/admission_service.hpp"
#include "spans.hpp"
#include "workloads.hpp"

namespace perfbench {

int run_selftest();  // selftest.cpp

namespace {

using namespace gridbw;

struct MetricDef {
  const char* name;
  const char* unit;
};

// The catalogue BENCHMARK.json lists; tests/test_perfbench.py keeps the two
// equal.
const std::vector<MetricDef> kEndToEnd = {
    {"setup_s", "s"},          {"decisions_per_s", "1/s"}, {"decision_p50_us", "us"},
    {"decision_p99_us", "us"}, {"accept_rate", "ratio"},   {"util", "ratio"},
    {"peak_rss_mb", "MiB"},
};

const std::vector<MetricDef> kPerLayer = {
    {"workload.generate_s", "s"},
    {"service.submit_s", "s"},
    {"service.drain_s", "s"},
    {"service.compactions", "count"},
    {"service.breakpoints_retired", "count"},
    {"service.resident_breakpoints", "count"},
    {"service.live_peak", "count"},
    {"service.shard2_speedup", "ratio"},
    {"obs.observed_drain_ratio", "ratio"},
    {"heuristics.fcfs_s", "s"},
    {"heuristics.cumulated_slots_s", "s"},
    {"heuristics.minbw_slots_s", "s"},
    {"heuristics.minvol_slots_s", "s"},
    {"heuristics.slots.admission_checks", "count"},
    {"heuristics.slots.skipped_ratio", "ratio"},
    {"heuristics.greedy_s", "s"},
    {"heuristics.window_s", "s"},
    {"heuristics.window_scan_s", "s"},
    {"heuristics.window_heap_s", "s"},
    {"heuristics.mgreedy_s", "s"},
    {"heuristics.mwindow_s", "s"},
    {"heuristics.malleable.profile_steps", "count"},
    {"heuristics.fcfs.accept_rate", "ratio"},
    {"heuristics.cumulated_slots.accept_rate", "ratio"},
    {"heuristics.minbw_slots.accept_rate", "ratio"},
    {"heuristics.minvol_slots.accept_rate", "ratio"},
    {"heuristics.greedy.accept_rate", "ratio"},
    {"heuristics.window.accept_rate", "ratio"},
    {"heuristics.mgreedy.accept_rate", "ratio"},
    {"heuristics.mwindow.accept_rate", "ratio"},
    {"core.validate_s", "s"},
    {"bench.trace_overhead", "ratio"},
};

// Set-up runs once untimed, then kSetups times before the warm-up, then once
// more per timed repetition, so its samples span the run like the others;
// setup_s is their median.
constexpr std::size_t kSetups = 5;

struct Args {
  Kind kind{Kind::kChurn};
  std::uint64_t seed{1};
  double seconds{10.0};
  bool trace{false};
  bool quick{false};
  std::string trace_out;
};

/// What one run measured and whether its outputs were right.
struct Outcome {
  std::map<std::string, double> metrics;
  std::size_t attempted{0};
  std::size_t failed{0};
  std::vector<std::string> failures;
  std::vector<std::string> notes;  // human-readable lines printed before the JSON

  /// Records a repetition of `decisions` decisions and the first failed
  /// check, if any.
  void rep(std::size_t decisions, const std::string& failure) {
    attempted += decisions;
    if (failure.empty()) return;
    failed += decisions;
    failures.push_back(failure);
  }
};

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : (v[m - 1] + v[m]) / 2.0;
}

/// Nearest-rank percentile of weighted samples (value, how many samples).
double percentile(std::vector<std::pair<double, std::size_t>> samples, double q) {
  std::sort(samples.begin(), samples.end());
  std::size_t total = 0;
  for (const auto& s : samples) total += s.second;
  if (total == 0) return 0.0;
  const auto rank = static_cast<std::size_t>(q * static_cast<double>(total - 1) + 0.5);
  std::size_t seen = 0;
  for (const auto& s : samples) {
    seen += s.second;
    if (rank < seen) return s.first;
  }
  return samples.back().first;
}

double percentile(const std::vector<double>& values, double q) {
  std::vector<std::pair<double, std::size_t>> samples;
  samples.reserve(values.size());
  for (const double v : values) samples.emplace_back(v, 1);
  return percentile(std::move(samples), q);
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// "median of N repetitions (min .., max ..)" for the notes.
std::string spread_note(const char* metric, const std::vector<double>& v) {
  const auto [lo, hi] = std::minmax_element(v.begin(), v.end());
  char buf[160];
  std::snprintf(buf, sizeof buf, "%s: median of %zu repetitions (min %.6g, max %.6g)", metric,
                v.size(), v.empty() ? 0.0 : *lo, v.empty() ? 0.0 : *hi);
  return buf;
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux reports KiB
}

std::string fmt(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.6g", v);
  return buf;
}

/// Generates the inputs and builds the network (and, on churn, the service):
/// one set-up, timed as a `bench.setup` span.
class SetUp {
 public:
  SetUp(const Args& args, const Sizes& sizes, Tracer& tracer)
      : args_{args}, sizes_{sizes}, tracer_{tracer} {}

  /// Sets up once more, discarding the result, and records the time.
  void sample() {
    std::optional<Inputs> inputs;
    times_.push_back(once(inputs));
  }

  /// Sets up untimed, then kSetups timed times; returns the inputs.
  Inputs initial() {
    std::optional<Inputs> inputs;
    const bool recording = tracer_.recording();
    tracer_.set_recording(false);
    once(inputs);
    tracer_.set_recording(recording);
    for (std::size_t i = 0; i < kSetups; ++i) {
      inputs.reset();
      times_.push_back(once(inputs));
    }
    return std::move(*inputs);
  }

  void report(Outcome& out) const {
    out.metrics["setup_s"] = median(times_);
    out.notes.push_back("setup_s: median of " + std::to_string(times_.size()) + " set-ups");
  }

 private:
  double once(std::optional<Inputs>& inputs) {
    return tracer_.timed("bench.setup", [&] {
      inputs.emplace(make_inputs(args_.kind, args_.seed, sizes_, tracer_));
      if (args_.kind == Kind::kChurn) {
        service::AdmissionService svc{inputs->network, service::ServiceOptions{}};
      }
    });
  }

  const Args& args_;
  const Sizes& sizes_;
  Tracer& tracer_;
  std::vector<double> times_;
};

/// Repeats, until `args.seconds` have passed or a check fails: one set-up
/// sample, one untraced repetition and, in the traced run, one traced
/// repetition plus the traced-only extras.
template <typename Rep, typename Extras>
void timed_loop(const Args& args, SetUp& setup, Tracer& tracer, const Outcome& out,
                Rep& one_rep, Extras& extras) {
  const double deadline = now_s() + args.seconds;
  do {
    tracer.set_recording(args.trace);
    setup.sample();
    one_rep(false);
    if (args.trace) {
      one_rep(true);
      tracer.set_recording(true);
      extras();
      tracer.set_recording(false);
    }
  } while (now_s() < deadline && out.failures.empty());
}

// ---------------------------------------------------------------- churn --

/// Records each request's decision from the service's event stream.
class DecisionSink final : public obs::TraceSink {
 public:
  explicit DecisionSink(std::size_t requests) : admitted_(requests, 0), decided_(requests, 0) {}

  void record(const obs::AdmissionEvent& e) override {
    if (e.kind != obs::EventKind::kAccepted && e.kind != obs::EventKind::kRejected) return;
    if (e.request < 1 || e.request > admitted_.size()) {
      stray_ = true;
      return;
    }
    admitted_[e.request - 1] = e.kind == obs::EventKind::kAccepted ? 1 : 0;
    decided_[e.request - 1] += 1;
  }
  void annotate(std::string_view, std::string_view) override {}

  /// Empty when every request got exactly one decision.
  [[nodiscard]] std::string problem() const {
    if (stray_) return "decision for an unknown request id";
    for (std::size_t k = 0; k < decided_.size(); ++k) {
      if (decided_[k] != 1) return "request " + std::to_string(k + 1) + " not decided once";
    }
    return {};
  }
  [[nodiscard]] const std::vector<char>& admitted() const { return admitted_; }

 private:
  std::vector<char> admitted_;
  std::vector<int> decided_;
  bool stray_{false};
};

service::ServiceOptions churn_options(std::size_t shards, obs::Observer* observer) {
  service::ServiceOptions o;
  o.shards = shards;
  o.gc = true;
  o.observer = observer;
  o.clock = [] { return now_s(); };
  return o;
}

/// A fresh service with the whole trace submitted (not timed).
std::unique_ptr<service::AdmissionService> loaded_service(const Network& network,
                                                          const Trace& trace, std::size_t shards,
                                                          obs::Observer* observer) {
  auto svc = std::make_unique<service::AdmissionService>(network,
                                                         churn_options(shards, observer));
  for (const Request& r : trace.requests) svc->submit(r);
  return svc;
}

void run_churn(const Args& args, const Sizes& sizes, const Inputs& in, SetUp& setup,
               Tracer& tracer, Outcome& out) {
  const Trace& trace = in.trace;
  const std::size_t n = trace.requests.size();

  // Reference drain, also the warm-up: records every decision, which must
  // be feasible and match FCFS on the leading prefix.
  DecisionSink sink{n};
  obs::Observer observer{&sink, nullptr};
  service::ServiceReport ref;
  {
    auto svc = loaded_service(in.network, trace, 1, &observer);
    ref = svc->drain();
  }
  std::string problem = sink.problem();
  if (problem.empty()) problem = check_fcfs_prefix(in.network, trace.requests, sink.admitted(),
                                                   sizes.fcfs_prefix);
  const Schedule admitted = admitted_schedule(trace.requests, sink.admitted());
  if (problem.empty() && admitted.accepted_count() != ref.admitted) {
    problem = "event stream and report disagree on the admitted count";
  }
  if (problem.empty()) {
    const ValidationReport v = validate_schedule(in.network, trace.requests, admitted);
    if (!v.ok()) problem = "admitted set infeasible: " + v.to_string();
  }
  out.rep(0, problem);
  const std::size_t decided = ref.admitted + ref.rejected;
  out.metrics["accept_rate"] = ratio(static_cast<double>(ref.admitted),
                                     static_cast<double>(decided));
  out.metrics["util"] = metrics::utilization_over(in.network, trace.requests, admitted,
                                                  TimePoint::origin(), trace.horizon);
  out.metrics["service.compactions"] = static_cast<double>(ref.compactions);
  out.metrics["service.breakpoints_retired"] = static_cast<double>(ref.breakpoints_retired);
  out.metrics["service.resident_breakpoints"] = static_cast<double>(ref.resident_breakpoints);
  out.metrics["service.live_peak"] = static_cast<double>(ref.live_peak);

  std::vector<double> rates, p50s, p99s, untraced, traced;
  auto one_rep = [&](bool record) {
    tracer.set_recording(record);
    auto svc = std::make_unique<service::AdmissionService>(in.network,
                                                           churn_options(1, nullptr));
    service::ServiceReport report;
    double work = 0.0;
    const double total = tracer.timed("bench.rep", [&] {
      work += tracer.timed("service.submit", [&] {
        for (const Request& r : trace.requests) svc->submit(r);
      });
      work += tracer.timed("service.drain", [&] { report = svc->drain(); });
    });
    svc.reset();
    (record ? traced : untraced).push_back(total);
    rates.push_back(static_cast<double>(report.admitted + report.rejected) / work);
    p50s.push_back(percentile(report.latency, 0.50) * 1e6);
    p99s.push_back(percentile(report.latency, 0.99) * 1e6);
    std::string fail = check_same_report(ref, report, true);
    if (fail.empty() && report.latency.size() != n) fail = "latency samples missing";
    out.rep(report.admitted + report.rejected, fail);
  };
  // Traced run only: the 2-shard drain and the drain with an Observer
  // attached, each against the same trace.
  auto extras = [&] {
    tracer.timed("bench.extra", [&] {
      auto two = loaded_service(in.network, trace, 2, nullptr);
      service::ServiceReport r2;
      tracer.timed("service.drain_2shards", [&] { r2 = two->drain(); });
      two.reset();
      out.rep(0, check_same_report(ref, r2, false));

      obs::CounterRegistry counters;
      obs::MemorySink memory;
      obs::Observer watched{&memory, &counters};
      auto obs_svc = loaded_service(in.network, trace, 1, &watched);
      service::ServiceReport r3;
      tracer.timed("obs.observed_drain", [&] { r3 = obs_svc->drain(); });
      obs_svc.reset();
      out.rep(0, check_same_report(ref, r3, true));
    });
  };

  timed_loop(args, setup, tracer, out, one_rep, extras);

  out.metrics["decisions_per_s"] = median(rates);
  out.notes.push_back(spread_note("decisions_per_s", rates));
  out.metrics["decision_p50_us"] = median(p50s);
  out.metrics["decision_p99_us"] = median(p99s);
  out.notes.push_back("decision_p50_us/p99_us: service admission latency, median over " +
                      std::to_string(p50s.size()) + " drains of " + std::to_string(n) +
                      " samples each (" + std::to_string(n / 100) + " beyond p99)");
  if (args.trace) {
    auto med = [&](const char* root, const char* name) {
      return median(tracer.self_per_root(root, name));
    };
    const double drain = med("bench.rep", "service.drain");
    out.metrics["service.submit_s"] = med("bench.rep", "service.submit");
    out.metrics["service.drain_s"] = drain;
    out.metrics["service.shard2_speedup"] = ratio(drain, med("bench.extra", "service.drain_2shards"));
    out.metrics["obs.observed_drain_ratio"] = ratio(med("bench.extra", "obs.observed_drain"), drain);
    out.metrics["bench.trace_overhead"] = ratio(median(traced), median(untraced));
  }
}

// ---------------------------------------------------------------- batch --

/// Runs `engine` on one trace and validates its output, each as a span under
/// the current span, and checks the output. Returns the engine's wall time;
/// adds the validation's to `validate_s`.
double run_engine(const Engine& engine, const Network& network, const Trace& trace,
                  Tracer& tracer, ScheduleResult& result,
                  heuristics::SlotsTelemetry& telemetry, double& validate_s,
                  std::string& failure) {
  const std::string span = "heuristics." + engine.name;
  const double t = tracer.timed(span.c_str(), [&] {
    result = engine.run(network, trace.requests, &telemetry);
  });
  ValidationReport v;
  validate_s += tracer.timed("core.validate", [&] {
    v = validate_schedule(network, trace.requests, result.schedule);
  });
  const std::string problem = check_result(trace.requests, result, v);
  if (!problem.empty() && failure.empty()) failure = engine.name + ": " + problem;
  return t;
}

void run_batch(const Args& args, const Sizes& sizes, const Inputs& in, SetUp& setup,
               Tracer& tracer, Outcome& out) {
  const std::vector<Engine> engines = lineup(args.kind);
  const Trace& trace = in.trace;
  const std::size_t n = trace.requests.size();

  // Reference repetition, also the warm-up: the deterministic outputs every
  // timed repetition must reproduce, and the decision metrics.
  std::map<std::string, std::uint64_t> fingerprints;
  heuristics::SlotsTelemetry slots;
  std::size_t accepted = 0;
  double util = 0.0;
  std::string problem;
  for (const Engine& engine : engines) {
    ScheduleResult result;
    heuristics::SlotsTelemetry telemetry;
    double validate_s = 0.0;
    run_engine(engine, in.network, trace, tracer, result, telemetry, validate_s, problem);
    fingerprints[engine.name] = fingerprint(result);
    accepted += result.accepted_count();
    util += metrics::utilization_over(in.network, trace.requests, result.schedule,
                                      TimePoint::origin(), trace.horizon);
    slots.slices += telemetry.slices;
    slots.skipped_slices += telemetry.skipped_slices;
    slots.admission_checks += telemetry.admission_checks;
    out.metrics["heuristics." + engine.name + ".accept_rate"] = result.accept_rate();
  }
  out.rep(0, problem);
  out.metrics["accept_rate"] = ratio(static_cast<double>(accepted),
                                     static_cast<double>(n * engines.size()));
  out.metrics["util"] = util / static_cast<double>(engines.size());
  // Only SLOTS engines fill the telemetry, so these read 0 elsewhere.
  out.metrics["heuristics.slots.admission_checks"] = static_cast<double>(slots.admission_checks);
  out.metrics["heuristics.slots.skipped_ratio"] =
      ratio(static_cast<double>(slots.skipped_slices), static_cast<double>(slots.slices));

  std::vector<double> rates, p50s, p99s, untraced, traced;
  auto one_rep = [&](bool record) {
    tracer.set_recording(record);
    std::string failure;
    std::size_t decisions = 0;
    double work = 0.0;
    // A request is decided when its engine call returns: (call time, requests).
    std::vector<std::pair<double, std::size_t>> waits;
    const double total = tracer.timed("bench.rep", [&] {
      for (const Engine& engine : engines) {
        ScheduleResult result;
        heuristics::SlotsTelemetry telemetry;
        double validate_s = 0.0;
        const double call = run_engine(engine, in.network, trace, tracer, result, telemetry,
                                       validate_s, failure);
        work += call + validate_s;
        waits.emplace_back(call, result.total_count());
        decisions += result.total_count();
        if (failure.empty() && fingerprint(result) != fingerprints[engine.name]) {
          failure = engine.name + ": output differs from the reference repetition";
        }
      }
    });
    (record ? traced : untraced).push_back(total);
    rates.push_back(static_cast<double>(decisions) / work);
    p50s.push_back(percentile(waits, 0.50) * 1e6);
    p99s.push_back(percentile(waits, 0.99) * 1e6);
    out.rep(decisions, failure);
  };

  // Traced run only. WINDOW with each selection engine forced must
  // reproduce the default engine's schedule; the malleable engines, on the
  // prefix, must reproduce their first traced output.
  const std::vector<TracedExtra> extra_engines = traced_extras(args.kind);
  Trace prefix;
  if (!extra_engines.empty()) {
    const std::size_t k = std::min(sizes.malleable, n);
    prefix.requests.assign(trace.requests.begin(), trace.requests.begin() + static_cast<long>(k));
  }
  auto extras = [&] {
    tracer.timed("bench.extra", [&] {
      for (const TracedExtra& extra : extra_engines) {
        const std::string& name = extra.engine.name;
        ScheduleResult result;
        heuristics::SlotsTelemetry telemetry;
        std::string failure;
        double validate_s = 0.0;
        run_engine(extra.engine, in.network, extra.on_prefix ? prefix : trace, tracer, result,
                   telemetry, validate_s, failure);
        const std::string want = extra.on_prefix ? name : "window";
        if (extra.on_prefix && fingerprints.count(name) == 0) {
          fingerprints[name] = fingerprint(result);
          out.metrics["heuristics." + name + ".accept_rate"] = result.accept_rate();
          double steps = 0.0;
          for (const Assignment& a : result.schedule.assignments()) {
            steps += static_cast<double>(a.profile.size());
          }
          out.metrics["heuristics.malleable.profile_steps"] += steps;
        }
        if (failure.empty() && fingerprint(result) != fingerprints[want]) {
          failure = name + ": output differs from " + want + "'s";
        }
        out.rep(0, failure);
      }
    });
  };

  timed_loop(args, setup, tracer, out, one_rep, extras);

  out.metrics["decisions_per_s"] = median(rates);
  out.notes.push_back(spread_note("decisions_per_s", rates));
  out.metrics["decision_p50_us"] = median(p50s);
  out.metrics["decision_p99_us"] = median(p99s);
  out.notes.push_back(
      "decision_p50_us/p99_us: a batch request is decided when its engine call returns; "
      "percentiles over " + std::to_string(n * engines.size()) +
      " decisions per repetition, median over " + std::to_string(p50s.size()) +
      " repetitions");
  if (args.trace) {
    auto med = [&](const std::string& root, const std::string& name) {
      return median(tracer.self_per_root(root, name));
    };
    for (const Engine& e : engines) {
      out.metrics["heuristics." + e.name + "_s"] = med("bench.rep", "heuristics." + e.name);
    }
    for (const TracedExtra& e : extra_engines) {
      const std::string& name = e.engine.name;
      out.metrics["heuristics." + name + "_s"] = med("bench.extra", "heuristics." + name);
    }
    out.metrics["core.validate_s"] = med("bench.rep", "core.validate");
    out.metrics["bench.trace_overhead"] = ratio(median(traced), median(untraced));
  }
}

// --------------------------------------------------------------- output --

void print_json(const Outcome& out, const std::vector<MetricDef>& defs) {
  std::string json = "{\"correct\": ";
  json += out.failures.empty() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(out.attempted);
  json += ", \"failed\": " + std::to_string(out.failed) + ", \"metrics\": {";
  char buf[64];
  for (std::size_t i = 0; i < defs.size(); ++i) {
    const auto it = out.metrics.find(defs[i].name);
    const double v = it == out.metrics.end() ? 0.0 : it->second;
    std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
    json += std::string{i == 0 ? "" : ", "} + "\"" + defs[i].name + "\": {\"value\": " + buf +
            ", \"unit\": \"" + defs[i].unit + "\"}";
  }
  json += "}}";
  std::cout << json << std::endl;
}

void print_catalogue() {
  auto list = [](const std::vector<MetricDef>& defs) {
    std::string s = "[";
    for (std::size_t i = 0; i < defs.size(); ++i) {
      s += std::string{i == 0 ? "" : ", "} + "{\"name\": \"" + defs[i].name +
           "\", \"unit\": \"" + defs[i].unit + "\"}";
    }
    return s + "]";
  };
  std::cout << "{\"end_to_end\": " << list(kEndToEnd) << ", \"per_layer\": " << list(kPerLayer)
            << "}" << std::endl;
}

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    std::string key = argv[i];
    std::string value;
    const auto eq = key.find('=');
    if (eq != std::string::npos) {
      value = key.substr(eq + 1);
      key = key.substr(0, eq);
    } else if (key != "--quick") {
      if (i + 1 >= argc) throw std::invalid_argument{"missing value for " + key};
      value = argv[++i];
    }
    if (key == "--workload") {
      a.kind = parse_kind(value);
      have_workload = true;
    } else if (key == "--seed") {
      a.seed = std::stoull(value);
    } else if (key == "--seconds") {
      a.seconds = std::stod(value);
      if (!(a.seconds > 0.0)) throw std::invalid_argument{"--seconds must be positive"};
    } else if (key == "--trace") {
      if (value != "0" && value != "1") throw std::invalid_argument{"--trace takes 0 or 1"};
      a.trace = value == "1";
    } else if (key == "--quick") {
      a.quick = true;
    } else if (key == "--trace-out") {
      a.trace_out = value;
    } else {
      throw std::invalid_argument{"unknown argument " + key};
    }
  }
  if (!have_workload) throw std::invalid_argument{"--workload is required"};
  return a;
}

int run(int argc, char** argv) {
  if (argc == 2 && std::string{argv[1]} == "--list-metrics") {
    print_catalogue();
    return 0;
  }
  if (argc == 2 && std::string{argv[1]} == "--selftest") return run_selftest();
  const Args args = parse_args(argc, argv);
  const Sizes sizes = Sizes::make(args.quick);
  Tracer tracer;
  tracer.set_recording(args.trace);
  Outcome out;
  for (const MetricDef& m : kPerLayer) out.metrics[m.name] = 0.0;

  SetUp setup{args, sizes, tracer};
  const Inputs inputs = setup.initial();
  tracer.set_recording(false);
  if (args.kind == Kind::kChurn) {
    run_churn(args, sizes, inputs, setup, tracer, out);
  } else {
    run_batch(args, sizes, inputs, setup, tracer, out);
  }
  setup.report(out);
  if (args.trace) {
    out.metrics["workload.generate_s"] = median(tracer.self_per_root("bench.setup",
                                                                     "workload.generate"));
  }
  out.metrics["peak_rss_mb"] = peak_rss_mib();

  const std::vector<MetricDef>& defs = args.trace ? kPerLayer : kEndToEnd;
  std::cout << "workload " << to_string(args.kind) << ": " << inputs.trace.requests.size()
            << " requests, seed " << args.seed << (args.quick ? " (quick sizes)" : "")
            << (args.trace ? ", traced run" : "") << "\n";
  for (const std::string& note : out.notes) std::cout << "  " << note << "\n";
  for (const MetricDef& m : defs) {
    std::cout << "  " << m.name << " = " << fmt(out.metrics[m.name]) << " " << m.unit << "\n";
  }
  for (const std::string& f : out.failures) std::cout << "  CHECK FAILED: " << f << "\n";
  if (args.trace && !args.trace_out.empty()) {
    tracer.write_json(args.trace_out);
    std::cout << "  spans written to " << args.trace_out << "\n";
  }
  print_json(out, defs);
  return out.failures.empty() ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 2;
  }
}
