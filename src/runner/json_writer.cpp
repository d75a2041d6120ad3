#include "runner/json_writer.h"

#include "stats/text_file.h"

namespace whisper::runner {

namespace {

void write_histogram(JsonWriter& w, const stats::Histogram& h) {
  w.begin_object();
  w.key("total");
  w.value(h.total());
  w.key("buckets");
  w.begin_array();
  for (const auto& [value, count] : h.buckets()) {
    w.begin_array();
    w.value(value);
    w.value(count);
    w.end_array();
  }
  w.end_array();
  w.end_object();
}

void write_summary(JsonWriter& w, const stats::Summary& s) {
  w.begin_object();
  w.key("n");
  w.value(static_cast<std::uint64_t>(s.n));
  w.key("mean");
  w.value(s.mean);
  w.key("stdev");
  w.value(s.stdev);
  w.key("min");
  w.value(s.min);
  w.key("max");
  w.value(s.max);
  w.key("median");
  w.value(s.median);
  w.end_object();
}

void write_topdown(JsonWriter& w, const obs::TopDown& td) {
  w.begin_object();
  w.key("total_cycles");
  w.value(td.total_cycles);
  w.key("retiring");
  w.value(td.retiring);
  w.key("bad_speculation");
  w.value(td.bad_speculation);
  w.key("frontend_bound");
  w.value(td.frontend_bound);
  w.key("backend_bound");
  w.value(td.backend_bound);
  w.end_object();
}

}  // namespace

void write_trial_record(JsonWriter& w, const TrialResult& t,
                        const TrialOutcome* outcome) {
  if (outcome != nullptr) {
    w.field("ok", outcome->ok);
    w.field("attempts", outcome->attempts);
    w.field("quarantined", outcome->quarantined);
    w.key("errors");
    w.begin_array();
    for (const TrialError& e : outcome->errors) {
      w.begin_object();
      w.field("kind", std::string(to_string(e.kind)));
      w.field("attempt", e.attempt);
      w.field("what", e.what);
      w.end_object();
    }
    w.end_array();
  }
  w.field("seed", t.seed);
  w.field("success", t.success);
  w.field("cycles", t.cycles);
  w.field("seconds", t.seconds);
  w.field("probes", static_cast<std::uint64_t>(t.probes));
  w.field("bytes", static_cast<std::uint64_t>(t.bytes));
  w.field("byte_errors", static_cast<std::uint64_t>(t.byte_errors));
  w.field("found_slot", t.found_slot);
  w.field("confidence", t.confidence);
  w.field("gave_up", static_cast<std::uint64_t>(t.gave_up));
}

std::string to_json(const RunResult& r) {
  JsonWriter w;
  w.begin_object();

  w.key("spec");
  w.begin_object();
  w.key("model");
  w.value(uarch::make_config(r.spec.model).name);
  w.key("attack");
  w.value(r.spec.attack);
  w.key("trials");
  w.value(r.spec.trials);
  w.key("base_seed");
  w.value(r.spec.base_seed);
  w.key("defenses");
  w.begin_array();
  for (const defense::DefenseSpec& d : r.spec.defenses)
    w.value(defense::format(d));
  w.end_array();
  w.key("docker");
  w.value(r.spec.docker);
  w.key("batches");
  w.value(r.spec.batches);
  w.key("payload_bytes");
  w.value(static_cast<std::uint64_t>(r.spec.payload_bytes));
  w.key("payload_seed");
  w.value(r.spec.payload_seed);
  w.key("noise");
  w.begin_object();
  w.key("profile");
  w.value(r.spec.noise.name);
  w.key("seed");
  w.value(r.spec.noise.seed);
  w.key("sources");
  w.begin_array();
  for (const noise::NoiseSource& s : r.spec.noise.sources) {
    w.begin_object();
    w.key("kind");
    w.value(noise::to_string(s.kind));
    w.key("intensity");
    w.value(s.intensity);
    w.end_object();
  }
  w.end_array();
  w.end_object();
  w.key("adaptive");
  w.value(r.spec.adaptive);
  w.key("confidence_threshold");
  w.value(r.spec.confidence_threshold);
  w.key("batch_budget");
  w.value(r.spec.batch_budget);
  w.key("retries");
  w.value(r.spec.retries);
  w.key("trial_cycle_budget");
  w.value(r.spec.trial_cycle_budget);
  w.key("trial_wall_budget");
  w.value(r.spec.trial_wall_budget);
  w.key("verify_reset");
  w.value(r.spec.verify_reset);
  w.key("fault_plan");
  w.value(r.spec.fault_plan);
  w.end_object();

  w.key("jobs");
  w.value(r.jobs);
  w.key("wall_seconds");
  w.value(r.wall_seconds);
  w.key("successes");
  w.value(static_cast<std::uint64_t>(r.successes));
  w.key("total_probes");
  w.value(static_cast<std::uint64_t>(r.total_probes));
  w.key("total_bytes");
  w.value(static_cast<std::uint64_t>(r.total_bytes));
  w.key("total_byte_errors");
  w.value(static_cast<std::uint64_t>(r.total_byte_errors));
  w.key("total_gave_up");
  w.value(static_cast<std::uint64_t>(r.total_gave_up));
  w.key("fault");
  w.begin_object();
  w.key("attempted");
  w.value(static_cast<std::uint64_t>(r.attempted));
  w.key("completed");
  w.value(static_cast<std::uint64_t>(r.completed));
  w.key("failed");
  w.value(static_cast<std::uint64_t>(r.failed));
  w.key("retried");
  w.value(static_cast<std::uint64_t>(r.retried));
  w.key("quarantined");
  w.value(static_cast<std::uint64_t>(r.quarantined));
  w.key("total_attempts");
  w.value(static_cast<std::uint64_t>(r.total_attempts));
  w.key("errors");
  w.begin_object();
  for (std::size_t k = 0; k < kNumTrialErrorKinds; ++k) {
    w.key(to_string(static_cast<TrialErrorKind>(k)));
    w.value(static_cast<std::uint64_t>(r.error_counts[k]));
  }
  w.end_object();
  w.end_object();
  w.key("sim_seconds");
  write_summary(w, r.seconds);
  w.key("confidence");
  write_summary(w, r.confidence);
  w.key("tote");
  write_histogram(w, r.tote);
  w.key("topdown");
  write_topdown(w, r.topdown);

  w.key("trials_detail");
  w.begin_array();
  for (std::size_t i = 0; i < r.trials.size(); ++i) {
    const TrialResult& t = r.trials[i];
    w.begin_object();
    // outcomes is index-aligned with trials when the result came from
    // run()/run_many(); hand-built results may omit it.
    write_trial_record(w, t, i < r.outcomes.size() ? &r.outcomes[i] : nullptr);
    w.key("tote");
    write_histogram(w, t.tote);
    w.key("topdown");
    write_topdown(w, t.topdown);
    w.end_object();
  }
  w.end_array();

  w.end_object();
  return w.str();
}

bool write_json_file(const RunResult& r, const std::string& path) {
  return stats::write_text_file(path, to_json(r) + "\n");
}

}  // namespace whisper::runner
