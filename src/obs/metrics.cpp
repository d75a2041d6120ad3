#include "obs/metrics.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <stdexcept>

#include "stats/json.h"
#include "stats/text_file.h"

namespace whisper::obs {

void MetricsRegistry::add_counter(const std::string& name,
                                  std::uint64_t delta) {
  counters_[name] += delta;
}

void MetricsRegistry::set_counter(const std::string& name,
                                  std::uint64_t value) {
  counters_[name] = value;
}

void MetricsRegistry::set_gauge(const std::string& name, double value) {
  gauges_[name] = value;
}

void MetricsRegistry::add_histogram(const std::string& name,
                                    const stats::Histogram& h) {
  histograms_[name].merge(h);
}

void MetricsRegistry::add_sample(const std::string& name,
                                 std::int64_t value) {
  histograms_[name].add(value);
}

void MetricsRegistry::import_pmu(const uarch::PmuSnapshot& snap,
                                 const std::string& prefix) {
  for (std::size_t i = 0; i < uarch::kNumPmuEvents; ++i) {
    counters_[prefix + uarch::to_string(static_cast<uarch::PmuEvent>(i))] +=
        snap[i];
  }
}

void MetricsRegistry::import_topdown(const TopDown& td,
                                     const std::string& prefix) {
  const std::string p = prefix + "topdown.";
  counters_[p + "total_cycles"] = td.total_cycles;
  counters_[p + "retiring"] = td.retiring;
  counters_[p + "bad_speculation"] = td.bad_speculation;
  counters_[p + "frontend_bound"] = td.frontend_bound;
  counters_[p + "backend_bound"] = td.backend_bound;
}

void MetricsRegistry::import_summary(const std::string& prefix,
                                     const stats::Summary& s) {
  gauges_[prefix + ".n"] = static_cast<double>(s.n);
  gauges_[prefix + ".mean"] = s.mean;
  gauges_[prefix + ".stdev"] = s.stdev;
  gauges_[prefix + ".min"] = s.min;
  gauges_[prefix + ".max"] = s.max;
  gauges_[prefix + ".median"] = s.median;
}

bool MetricsRegistry::has_counter(const std::string& name) const {
  return counters_.count(name) != 0;
}

std::uint64_t MetricsRegistry::counter(const std::string& name) const {
  const auto it = counters_.find(name);
  return it == counters_.end() ? 0 : it->second;
}

double MetricsRegistry::gauge(const std::string& name) const {
  const auto it = gauges_.find(name);
  return it == gauges_.end() ? 0.0 : it->second;
}

const stats::Histogram& MetricsRegistry::histogram(
    const std::string& name) const {
  const auto it = histograms_.find(name);
  if (it == histograms_.end())
    throw std::out_of_range("no histogram named " + name);
  return it->second;
}

std::vector<std::string> MetricsRegistry::names() const {
  std::vector<std::string> out;
  out.reserve(counters_.size() + gauges_.size() + histograms_.size());
  for (const auto& [k, v] : counters_) out.push_back(k);
  for (const auto& [k, v] : gauges_) out.push_back(k);
  for (const auto& [k, v] : histograms_) out.push_back(k);
  std::sort(out.begin(), out.end());
  return out;
}

bool MetricsRegistry::empty() const noexcept {
  return counters_.empty() && gauges_.empty() && histograms_.empty();
}

void MetricsRegistry::merge(const MetricsRegistry& other) {
  for (const auto& [k, v] : other.counters_) counters_[k] += v;
  for (const auto& [k, v] : other.gauges_) gauges_[k] = v;
  for (const auto& [k, v] : other.histograms_) histograms_[k].merge(v);
}

std::string MetricsRegistry::to_json() const {
  stats::JsonWriter w;
  w.begin_object();
  w.key("counters");
  w.begin_object();
  for (const auto& [k, v] : counters_) {
    w.key(k);
    w.value(v);
  }
  w.end_object();
  w.key("gauges");
  w.begin_object();
  for (const auto& [k, v] : gauges_) {
    w.key(k);
    w.value(v);
  }
  w.end_object();
  w.key("histograms");
  w.begin_object();
  for (const auto& [k, h] : histograms_) {
    w.key(k);
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
  w.end_object();
  w.end_object();
  return w.str();
}

namespace {

/// CSV-quote a field: names are dot/uppercase identifiers today, but guard
/// against separators anyway.
std::string csv_field(const std::string& s) {
  if (s.find_first_of(",\"\n") == std::string::npos) return s;
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"') out += "\"\"";
    else out += c;
  }
  out += '"';
  return out;
}

}  // namespace

std::string MetricsRegistry::to_csv() const {
  std::string out = "name,kind,field,value\n";
  char buf[96];
  for (const auto& [k, v] : counters_) {
    std::snprintf(buf, sizeof buf, ",counter,value,%" PRIu64 "\n", v);
    out += csv_field(k);
    out += buf;
  }
  for (const auto& [k, v] : gauges_) {
    std::snprintf(buf, sizeof buf, ",gauge,value,%.9g\n", v);
    out += csv_field(k);
    out += buf;
  }
  for (const auto& [k, h] : histograms_) {
    const std::string name = csv_field(k);
    std::snprintf(buf, sizeof buf, ",histogram,total,%" PRIu64 "\n",
                  h.total());
    out += name;
    out += buf;
    if (!h.empty()) {
      std::snprintf(buf, sizeof buf, ",histogram,min,%" PRId64 "\n", h.min());
      out += name;
      out += buf;
      std::snprintf(buf, sizeof buf, ",histogram,max,%" PRId64 "\n", h.max());
      out += name;
      out += buf;
      std::snprintf(buf, sizeof buf, ",histogram,mean,%.9g\n", h.mean());
      out += name;
      out += buf;
    }
    for (const auto& [value, count] : h.buckets()) {
      std::snprintf(buf, sizeof buf, ",histogram,bucket[%" PRId64 "],%" PRIu64
                    "\n", value, count);
      out += name;
      out += buf;
    }
  }
  return out;
}

bool MetricsRegistry::write_file(const std::string& path) const {
  const bool csv =
      path.size() >= 4 && path.compare(path.size() - 4, 4, ".csv") == 0;
  return stats::write_text_file(path, csv ? to_csv() : to_json() + "\n");
}

}  // namespace whisper::obs
