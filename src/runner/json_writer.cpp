#include "runner/json_writer.h"

#include <cstdio>
#include <limits>
#include <stdexcept>
#include <type_traits>

#include "runner/spec_schema.h"
#include "stats/text_file.h"

namespace whisper::runner {

namespace {

using stats::JsonValue;

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

// --- The trial record ------------------------------------------------------

const JsonValue& required(const JsonValue& obj, const char* key) {
  const JsonValue* v = obj.get(key);
  if (v == nullptr)
    throw std::invalid_argument(std::string("missing field '") + key + "'");
  return *v;
}

/// One member of a trial record, of the fault-layer account (TrialOutcome)
/// or of the result slot (TrialResult): its key and its encode and decode.
/// Decoders throw std::invalid_argument.
template <typename C>
struct RecordField {
  const char* name;
  void (*encode)(JsonWriter& w, const C& c);
  void (*decode)(C& c, const JsonValue& v, const char* name);
};

/// A row for a member carried as-is.
template <typename C, auto M>
constexpr RecordField<C> plain(const char* name) {
  return {name, [](JsonWriter& w, const C& c) { w.value(c.*M); },
          [](C& c, const JsonValue& v, const char* n) {
            c.*M = json_read<std::remove_cvref_t<decltype(c.*M)>>(v, n);
          }};
}

using O = TrialOutcome;
const RecordField<O> kOutcomeFields[] = {
    plain<O, &O::ok>("ok"),
    plain<O, &O::attempts>("attempts"),
    plain<O, &O::quarantined>("quarantined"),
    {"errors",
     [](JsonWriter& w, const O& o) {
       w.begin_array();
       for (const TrialError& e : o.errors) {
         w.begin_object();
         w.field("kind", to_string(e.kind));
         w.field("attempt", e.attempt);
         w.field("what", e.what);
         w.end_object();
       }
       w.end_array();
     },
     [](O& o, const JsonValue& v, const char* n) {
       if (!v.is_array())
         throw std::invalid_argument(std::string("field '") + n +
                                     "' must be an array of objects");
       for (const JsonValue& e : v.array) {
         TrialError err;
         const auto kind = json_read<std::string>(required(e, "kind"), "kind");
         std::size_t k = 0;
         while (k < kNumTrialErrorKinds &&
                kind != to_string(static_cast<TrialErrorKind>(k)))
           ++k;
         if (k == kNumTrialErrorKinds)
           throw std::invalid_argument("unknown trial error kind '" + kind +
                                       "'");
         err.kind = static_cast<TrialErrorKind>(k);
         err.attempt = json_read<int>(required(e, "attempt"), "attempt");
         err.what = json_read<std::string>(required(e, "what"), "what");
         o.errors.push_back(std::move(err));
       }
     }},
};

using R = TrialResult;
const RecordField<R> kResultFields[] = {
    plain<R, &R::seed>("seed"),
    plain<R, &R::success>("success"),
    plain<R, &R::cycles>("cycles"),
    plain<R, &R::seconds>("seconds"),
    plain<R, &R::probes>("probes"),
    plain<R, &R::bytes>("bytes"),
    plain<R, &R::byte_errors>("byte_errors"),
    // -1 means no slot found, so the range starts below zero.
    {"found_slot", [](JsonWriter& w, const R& t) { w.value(t.found_slot); },
     [](R& t, const JsonValue& v, const char* n) {
       t.found_slot = json_int<int>(v, n, std::numeric_limits<int>::min());
     }},
    plain<R, &R::confidence>("confidence"),
    plain<R, &R::gave_up>("gave_up"),
};

// --- The cell summary ------------------------------------------------------

using Run = const RunResult&;
const CellField kCellFields[] = {
    {"trials", [](JsonWriter& w, Run r) { w.value(r.trials.size()); }},
    {"successes", [](JsonWriter& w, Run r) { w.value(r.successes); }},
    {"success_rate", [](JsonWriter& w, Run r) { w.value(r.success_rate()); }},
    {"bytes", [](JsonWriter& w, Run r) { w.value(r.total_bytes); }},
    {"byte_errors", [](JsonWriter& w, Run r) { w.value(r.total_byte_errors); }},
    {"error_rate", [](JsonWriter& w, Run r) { w.value(r.error_rate()); }},
    {"probes", [](JsonWriter& w, Run r) { w.value(r.total_probes); }},
    {"probes_per_byte",
     [](JsonWriter& w, Run r) { w.value(r.probes_per_byte()); }},
    {"gave_up", [](JsonWriter& w, Run r) { w.value(r.total_gave_up); }},
    {"confidence_mean",
     [](JsonWriter& w, Run r) { w.value(r.confidence.mean); }},
    {"sim_seconds_mean", [](JsonWriter& w, Run r) { w.value(r.seconds.mean); }},
};

}  // namespace

void write_trial_record(JsonWriter& w, const TrialResult& t,
                        const TrialOutcome* outcome) {
  if (outcome != nullptr)
    for (const RecordField<O>& f : kOutcomeFields) {
      w.key(f.name);
      f.encode(w, *outcome);
    }
  for (const RecordField<R>& f : kResultFields) {
    w.key(f.name);
    f.encode(w, t);
  }
}

ScheduledTrial read_trial_record(const JsonValue& record) {
  ScheduledTrial t;
  for (const RecordField<O>& f : kOutcomeFields)
    f.decode(t.outcome, required(record, f.name), f.name);
  for (const RecordField<R>& f : kResultFields)
    f.decode(t.result, required(record, f.name), f.name);
  return t;
}

std::span<const CellField> cell_fields() { return kCellFields; }

void write_cell_summary(JsonWriter& w, const RunResult& r) {
  for (const CellField& f : kCellFields) {
    w.key(f.name);
    f.encode(w, r);
  }
}

std::string to_json(const RunResult& r) {
  JsonWriter w;
  w.begin_object();

  w.key("spec");
  w.begin_object();
  for (const SpecField& f : spec_fields()) {
    w.key(f.name);
    f.encode(w, r.spec);
  }
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
  std::string body;
  try {
    body = to_json(r) + "\n";
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "cannot write %s: %s\n", path.c_str(), e.what());
    return false;
  }
  return stats::write_text_file(path, body);
}

}  // namespace whisper::runner
