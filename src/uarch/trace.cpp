#include "uarch/trace.h"

#include <sstream>

namespace whisper::uarch {

std::string to_string(TraceEvent e) {
  switch (e) {
    case TraceEvent::Fetch: return "fetch";
    case TraceEvent::Alloc: return "alloc";
    case TraceEvent::Issue: return "issue";
    case TraceEvent::Complete: return "complete";
    case TraceEvent::Retire: return "retire";
    case TraceEvent::Squash: return "squash-entry";
    case TraceEvent::Mispredict: return "mispredict";
    case TraceEvent::Resteer: return "resteer";
    case TraceEvent::SquashYounger: return "squash";
    case TraceEvent::MachineClear: return "machine-clear";
    case TraceEvent::SignalRedirect: return "signal-redirect";
    case TraceEvent::TsxAbort: return "tsx-abort";
    case TraceEvent::WindowOpen: return "window-open";
    case TraceEvent::WindowClose: return "window-close";
  }
  return "?";
}

std::string TraceRecord::to_string() const {
  std::ostringstream out;
  out << cycle << "\tT" << thread << '\t' << uarch::to_string(event);
  if (pc >= 0)
    out << "\tpc=" << pc << '\t' << isa::to_string(op) << "\tseq=" << seq;
  else if (event == TraceEvent::SquashYounger)
    out << "\tdropped=" << seq;
  return out.str();
}

std::size_t EventLog::count(TraceEvent e, std::int32_t pc) const {
  std::size_t n = 0;
  for (const TraceRecord& r : records_)
    if (r.event == e && (pc < 0 || r.pc == pc)) ++n;
  return n;
}

std::string EventLog::to_string() const {
  std::ostringstream out;
  out << "cycle\tthr\tevent\n";
  for (const TraceRecord& r : records_) out << r.to_string() << '\n';
  return out.str();
}

}  // namespace whisper::uarch
