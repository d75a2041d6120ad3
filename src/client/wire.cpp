#include "client/wire.h"

#include <cctype>
#include <stdexcept>

#include "noise/noise.h"
#include "serve/protocol.h"

namespace whisper::client {

std::string run_request_json(std::uint64_t id, const runner::RunSpec& spec,
                             std::uint64_t trial_first, int trials) {
  if (spec.collect_trace)
    throw std::invalid_argument(
        "client: collect_trace cannot cross the wire (the protocol carries "
        "no event logs); run traced specs locally");
  if (!noise::NoiseProfile::by_name(spec.noise.name))
    throw std::invalid_argument(
        "client: noise profile '" + spec.noise.name +
        "' is not a named preset; the wire carries preset name + seed only");

  serve::Request req;
  req.id = id;
  req.spec = spec;
  req.spec.trials = trials;
  req.trial_first = trial_first;
  return serve::run_request_line(req);
}

std::string normalize_id(const std::string& line) {
  constexpr const char* kPrefix = "{\"id\":";
  constexpr std::size_t kPrefixLen = 6;
  if (line.compare(0, kPrefixLen, kPrefix) != 0) return line;
  std::size_t p = kPrefixLen;
  while (p < line.size() &&
         std::isdigit(static_cast<unsigned char>(line[p])))
    ++p;
  if (p == kPrefixLen || p >= line.size() || line[p] != ',') return line;
  return std::string(kPrefix) + "0" + line.substr(p);
}

std::vector<std::string> canonical_trial_lines(const runner::RunResult& r) {
  std::vector<std::string> lines;
  lines.reserve(r.trials.size());
  for (std::size_t i = 0; i < r.trials.size(); ++i) {
    runner::ScheduledTrial t;
    t.result = r.trials[i];
    t.outcome = r.outcomes[i];
    lines.push_back(serve::response_trial(0, i, t));
  }
  return lines;
}

std::string canonical_done_line(const runner::RunResult& r) {
  return serve::response_done(0, r);
}

}  // namespace whisper::client
