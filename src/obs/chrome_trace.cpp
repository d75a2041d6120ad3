#include "obs/chrome_trace.h"

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstdio>
#include <map>
#include <optional>
#include <set>
#include <utility>
#include <vector>

#include "stats/json.h"

namespace whisper::obs {

namespace {

using uarch::TraceEvent;
using uarch::TraceRecord;

/// One rendered trace-event, ready to serialise. Args are kept as ordered
/// key/value lists so the output byte stream is deterministic.
struct JsonEvent {
  std::uint64_t ts = 0;
  std::uint64_t dur = 0;  // "X" events only
  char ph = 'i';
  int tid = 0;
  std::string name;
  const char* cat = "pipeline";
  std::vector<std::pair<std::string, std::uint64_t>> num_args;
  std::vector<std::pair<std::string, std::string>> str_args;
};

/// An instruction's journey through the ROB, reassembled from its
/// per-stage records.
struct Lifecycle {
  int thread = 0;
  std::uint64_t seq = 0;
  std::int32_t pc = -1;
  isa::Opcode op = isa::Opcode::Nop;
  std::uint64_t alloc = 0;
  std::uint64_t issue = 0;
  std::uint64_t complete = 0;
  std::uint64_t end = 0;  // retire or squash cycle
  bool issued = false;
  bool completed = false;
  bool retired = false;
  bool squashed = false;
};

constexpr std::uint64_t kMinSliceCycles = 1;  // zero-width slices are invisible

const char* instant_name(TraceEvent e) {
  switch (e) {
    case TraceEvent::Fetch: return "fetch";
    case TraceEvent::Mispredict: return "mispredict";
    case TraceEvent::Resteer: return "resteer";
    case TraceEvent::SquashYounger: return "squash-younger";
    case TraceEvent::MachineClear: return "machine-clear";
    case TraceEvent::SignalRedirect: return "signal-redirect";
    case TraceEvent::TsxAbort: return "tsx-abort";
    default: return "event";
  }
}

void write_event(stats::JsonWriter& w, const JsonEvent& e) {
  w.begin_object();
  w.key("name");
  w.value(e.name);
  w.key("cat");
  w.value(e.cat);
  w.key("ph");
  w.value(std::string(1, e.ph));
  w.key("ts");
  w.value(e.ts);
  if (e.ph == 'X') {
    w.key("dur");
    w.value(e.dur);
  }
  w.key("pid");
  w.value(1);
  w.key("tid");
  w.value(e.tid);
  if (e.ph == 'i') {
    w.key("s");
    w.value("t");  // thread-scoped instant
  }
  if (!e.num_args.empty() || !e.str_args.empty()) {
    w.key("args");
    w.begin_object();
    for (const auto& [k, v] : e.num_args) {
      w.key(k);
      w.value(v);
    }
    for (const auto& [k, v] : e.str_args) {
      w.key(k);
      w.value(v);
    }
    w.end_object();
  }
  w.end_object();
}

void write_metadata(stats::JsonWriter& w, const std::string& name,
                    int tid, const std::string& value) {
  w.begin_object();
  w.key("name");
  w.value(name);
  w.key("ph");
  w.value("M");
  w.key("pid");
  w.value(1);
  if (tid >= 0) {
    w.key("tid");
    w.value(tid);
  }
  w.key("args");
  w.begin_object();
  w.key("name");
  w.value(value);
  w.end_object();
  w.end_object();
}

}  // namespace

std::string to_chrome_trace(const uarch::EventLog& log,
                            const ChromeTraceOptions& opt) {
  const std::vector<TraceRecord>& recs = log.records();
  const std::uint64_t last_cycle = recs.empty() ? 0 : recs.back().cycle;

  // Pass 1: reassemble instruction lifecycles and collect punctual events.
  // Keyed by (thread, seq); the core reuses sequence numbers across run()
  // calls, so a second Alloc under the same key flushes the previous
  // lifecycle first.
  std::vector<Lifecycle> done;
  std::map<std::pair<int, std::uint64_t>, Lifecycle> open;
  std::vector<JsonEvent> events;
  // Per-thread currently open transient window (ts of the "B" event).
  std::array<std::optional<std::uint64_t>, 2> window_open{};

  auto flush = [&](Lifecycle lc) {
    if (!lc.retired && !lc.squashed) lc.end = last_cycle;  // log ended mid-ROB
    done.push_back(std::move(lc));
  };

  for (const TraceRecord& r : recs) {
    const int thread = (r.thread == 0) ? 0 : 1;
    const int base_tid = thread * kLaneStride;
    switch (r.event) {
      case TraceEvent::Alloc: {
        const auto key = std::make_pair(thread, r.seq);
        if (auto it = open.find(key); it != open.end()) {
          flush(std::move(it->second));
          open.erase(it);
        }
        Lifecycle lc;
        lc.thread = thread;
        lc.seq = r.seq;
        lc.pc = r.pc;
        lc.op = r.op;
        lc.alloc = r.cycle;
        lc.end = r.cycle;
        open.emplace(key, std::move(lc));
        break;
      }
      case TraceEvent::Issue:
      case TraceEvent::Complete:
      case TraceEvent::Retire:
      case TraceEvent::Squash: {
        auto it = open.find(std::make_pair(thread, r.seq));
        if (it == open.end()) break;  // alloc predates the log
        Lifecycle& lc = it->second;
        if (r.event == TraceEvent::Issue) {
          lc.issue = r.cycle;
          lc.issued = true;
        } else if (r.event == TraceEvent::Complete) {
          lc.complete = r.cycle;
          lc.completed = true;
        } else {
          lc.end = r.cycle;
          (r.event == TraceEvent::Retire ? lc.retired : lc.squashed) = true;
          flush(std::move(lc));
          open.erase(it);
        }
        break;
      }
      case TraceEvent::WindowOpen: {
        if (window_open[thread]) break;  // defensive: never emitted nested
        window_open[thread] = r.cycle;
        JsonEvent b;
        b.ph = 'B';
        b.ts = r.cycle;
        b.tid = base_tid;
        b.name = "transient window";
        b.cat = "window";
        b.num_args.emplace_back("opener_seq", r.seq);
        b.num_args.emplace_back("pc",
                                static_cast<std::uint64_t>(
                                    r.pc < 0 ? 0 : r.pc));
        b.str_args.emplace_back("opener", isa::to_string(r.op));
        events.push_back(std::move(b));
        break;
      }
      case TraceEvent::WindowClose: {
        if (!window_open[thread]) break;
        JsonEvent e;
        e.ph = 'E';
        // Guarantee a visible, strictly ordered span even for same-cycle
        // open/close.
        e.ts = std::max(r.cycle, *window_open[thread] + kMinSliceCycles);
        e.tid = base_tid;
        e.name = "transient window";
        e.cat = "window";
        events.push_back(std::move(e));
        window_open[thread].reset();
        break;
      }
      default: {  // instant markers
        JsonEvent i;
        i.ph = 'i';
        i.ts = r.cycle;
        i.tid = base_tid;
        i.name = instant_name(r.event);
        i.cat = "marker";
        if (r.event == TraceEvent::SquashYounger) {
          i.num_args.emplace_back("entries", r.seq);
        } else if (r.seq != 0) {
          i.num_args.emplace_back("seq", r.seq);
        }
        if (r.pc >= 0) {
          i.num_args.emplace_back("pc", static_cast<std::uint64_t>(r.pc));
          i.str_args.emplace_back("op", isa::to_string(r.op));
        }
        events.push_back(std::move(i));
      }
    }
  }
  for (int t = 0; t < 2; ++t) {  // close a window left open at log end
    if (!window_open[t]) continue;
    JsonEvent e;
    e.ph = 'E';
    e.ts = std::max(last_cycle, *window_open[t] + kMinSliceCycles);
    e.tid = t * kLaneStride;
    e.name = "transient window";
    e.cat = "window";
    events.push_back(std::move(e));
  }
  for (auto& [key, lc] : open) flush(std::move(lc));
  open.clear();

  // Pass 2: assign each slice to the lowest free lane of its thread so no
  // two slices overlap on a track. Availability uses the *rendered* end
  // (ts + max(dur, 1)), not the logical end, so min-width slices cannot
  // collide either.
  std::sort(done.begin(), done.end(), [](const Lifecycle& a,
                                         const Lifecycle& b) {
    if (a.alloc != b.alloc) return a.alloc < b.alloc;
    if (a.thread != b.thread) return a.thread < b.thread;
    return a.seq < b.seq;
  });
  std::array<std::vector<std::uint64_t>, 2> lane_busy_until{};
  std::set<int> used_tids;
  for (const Lifecycle& lc : done) {
    auto& lanes = lane_busy_until[lc.thread];
    std::size_t lane = 0;
    while (lane < lanes.size() && lanes[lane] > lc.alloc) ++lane;
    const std::uint64_t dur =
        std::max(lc.end - lc.alloc, kMinSliceCycles);
    if (lane == lanes.size()) lanes.push_back(0);
    lanes[lane] = lc.alloc + dur;

    JsonEvent x;
    x.ph = 'X';
    x.ts = lc.alloc;
    x.dur = dur;
    x.tid = lc.thread * kLaneStride + 1 + static_cast<int>(lane);
    x.name = isa::to_string(lc.op);
    x.cat = lc.retired ? "rob" : "rob.squashed";
    used_tids.insert(x.tid);
    x.num_args.emplace_back("seq", lc.seq);
    x.num_args.emplace_back("pc",
                            static_cast<std::uint64_t>(lc.pc < 0 ? 0 : lc.pc));
    x.num_args.emplace_back("alloc", lc.alloc);
    if (lc.issued) x.num_args.emplace_back("issue", lc.issue);
    if (lc.completed) x.num_args.emplace_back("complete", lc.complete);
    x.num_args.emplace_back("end", lc.end);
    x.str_args.emplace_back("outcome", lc.retired    ? "retired"
                                       : lc.squashed ? "squashed"
                                                     : "in-flight");
    events.push_back(std::move(x));
    used_tids.insert(lc.thread * kLaneStride);
  }

  // Pass 3: order by timestamp. A stable sort keeps same-cycle events in
  // emission order ("B" before the matching "E"), so every track is
  // monotone and spans stay balanced.
  std::stable_sort(events.begin(), events.end(),
                   [](const JsonEvent& a, const JsonEvent& b) {
                     return a.ts < b.ts;
                   });

  stats::JsonWriter w;
  w.begin_object();
  w.key("traceEvents");
  w.begin_array();
  write_metadata(w, "process_name", -1, opt.process_name);
  for (const int tid : used_tids) {
    const int thread = tid / kLaneStride;
    const int lane = tid % kLaneStride;
    char label[48];
    if (lane == 0) {
      std::snprintf(label, sizeof label, "t%d events", thread);
    } else {
      std::snprintf(label, sizeof label, "t%d rob lane %d", thread, lane);
    }
    write_metadata(w, "thread_name", tid, label);
  }
  for (const JsonEvent& e : events) write_event(w, e);
  w.end_array();
  w.key("displayTimeUnit");
  w.value("ms");
  w.key("otherData");
  w.begin_object();
  w.key("tool");
  w.value("whisper");
  w.key("time_unit");
  w.value("1 cycle = 1 us");
  w.key("events");
  w.value(static_cast<std::uint64_t>(log.size()));
  w.end_object();
  w.end_object();
  return w.str();
}

bool write_chrome_trace(const uarch::EventLog& log, const std::string& path,
                        const ChromeTraceOptions& opt) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) {
    std::fprintf(stderr, "obs: cannot open %s for writing\n", path.c_str());
    return false;
  }
  const std::string body = to_chrome_trace(log, opt);
  const bool ok = std::fwrite(body.data(), 1, body.size(), f) == body.size();
  std::fputc('\n', f);
  std::fclose(f);
  if (!ok) std::fprintf(stderr, "obs: short write to %s\n", path.c_str());
  return ok;
}

}  // namespace whisper::obs
