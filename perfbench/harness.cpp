#include "harness.h"

#include <sys/resource.h>

#include <chrono>
#include <cstdio>

namespace perfbench {

namespace {

const std::chrono::steady_clock::time_point kProcessStart =
    std::chrono::steady_clock::now();

}  // namespace

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - kProcessStart)
      .count();
}

double peak_rss_mb() {
  rusage ru{};
  if (getrusage(RUSAGE_SELF, &ru) != 0) return 0.0;
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

void Report::note(const std::string& line) {
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
}

SpanLog::Buffer& SpanLog::local() {
  // One cached buffer per thread; the owner check makes a second SpanLog
  // in the same process register fresh buffers instead of sharing.
  thread_local const SpanLog* owner = nullptr;
  thread_local Buffer* buffer = nullptr;
  if (owner != this) {
    std::lock_guard<std::mutex> lock(mu_);
    buffers_.emplace_back();
    buffers_.back().thread = static_cast<int>(buffers_.size());
    buffer = &buffers_.back();
    owner = this;
  }
  return *buffer;
}

std::map<std::string, double> SpanLog::self_seconds(bool by_layer) const {
  std::map<std::string, double> out;
  for (const Buffer& b : buffers_) {
    const std::vector<std::int64_t> self = self_times(b.spans);
    for (std::size_t i = 0; i < b.spans.size(); ++i) {
      const std::string name = b.spans[i].name;
      out[by_layer ? name.substr(0, name.find('.')) : name] +=
          static_cast<double>(self[i]) * 1e-9;
    }
  }
  return out;
}

bool SpanLog::write_chrome_trace(const std::string& path,
                                 std::size_t cap) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fputs("{\"traceEvents\":[", f);
  std::size_t written = 0;
  for (const Buffer& b : buffers_) {
    const std::vector<std::int64_t> self = self_times(b.spans);
    for (std::size_t i = 0; i < b.spans.size() && written < cap; ++i) {
      const Span& s = b.spans[i];
      std::fprintf(f,
                   "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,"
                   "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"trace\":%llu,"
                   "\"self_us\":%.3f}}",
                   written ? "," : "", s.name, b.thread,
                   static_cast<double>(s.start_ns) * 1e-3,
                   static_cast<double>(s.duration()) * 1e-3,
                   static_cast<unsigned long long>(s.trace),
                   static_cast<double>(self[i]) * 1e-3);
      ++written;
    }
  }
  std::fputs("]}\n", f);
  return std::fclose(f) == 0;
}

void note_shares(const std::string& title,
                 const std::map<std::string, double>& amounts) {
  double total = 0.0;
  for (const auto& [name, v] : amounts) total += v;
  std::string line = title + ":";
  for (const auto& [name, v] : amounts) {
    char buf[96];
    std::snprintf(buf, sizeof buf, " %s=%.1f%%", name.c_str(),
                  total > 0.0 ? 100.0 * v / total : 0.0);
    line += buf;
  }
  Report::note(line);
}

}  // namespace perfbench
