#include "core/attacks/registry.h"

#include <stdexcept>

#include "core/attacks/kaslr.h"
#include "core/attacks/meltdown.h"
#include "core/attacks/rewind.h"
#include "core/attacks/spectre_rsb.h"
#include "core/attacks/spectre_v1.h"
#include "core/attacks/zombieload.h"
#include "core/covert_channel.h"

namespace whisper::core {

namespace {

/// Build a derived Options aggregate with the shared base overridden.
template <typename Options>
Options with_base(const AttackOptions& base) {
  Options o{};
  static_cast<AttackOptions&>(o) = base;
  return o;
}

template <typename Atk>
std::unique_ptr<Attack> construct(os::Machine& m, const AttackOptions& opt) {
  return std::make_unique<Atk>(m, with_base<typename Atk::Options>(opt));
}

}  // namespace

const std::vector<AttackInfo>& attack_registry() {
  static const std::vector<AttackInfo> registry = {
      {"cc", "TET covert channel over shared memory (§4.1)", true,
       construct<TetCovertChannel>},
      {"md", "TET-Meltdown: kernel memory across the privilege boundary "
             "(§4.3.1)",
       true, construct<TetMeltdown>},
      {"zbl", "TET-Zombieload: stale LFB data from a sibling victim "
              "(§4.3.2)",
       true, construct<TetZombieload>},
      {"rsb", "TET-Spectre-RSB: return-address mistraining, no fault "
              "(§4.3.3)",
       true, construct<TetSpectreRsb>},
      {"v1", "TET-Spectre-V1: bounds-check bypass (extension)", true,
       construct<TetSpectreV1>},
      {"rewind", "SpectreRewind: transient FDIV contention on the "
                 "non-pipelined divider, no cache footprint (extension)",
       true, construct<SpectreRewind>},
      {"kaslr", "TET-KASLR: derandomise the kernel image base (§4.5)", false,
       construct<TetKaslr>},
  };
  return registry;
}

const AttackInfo* find_attack(std::string_view name) {
  for (const AttackInfo& info : attack_registry())
    if (info.name == name) return &info;
  return nullptr;
}

std::vector<std::string> attack_names() {
  std::vector<std::string> names;
  names.reserve(attack_registry().size());
  for (const AttackInfo& info : attack_registry()) names.push_back(info.name);
  return names;
}

const AttackInfo& attack_or_throw(std::string_view name) {
  if (const AttackInfo* info = find_attack(name)) return *info;
  std::string msg = "unknown attack '" + std::string(name) + "' (registered: ";
  const std::vector<std::string> names = attack_names();
  for (std::size_t i = 0; i < names.size(); ++i) {
    if (i) msg += ", ";
    msg += names[i];
  }
  throw std::invalid_argument(msg + ")");
}

std::unique_ptr<Attack> make_attack(std::string_view name, os::Machine& m,
                                    const AttackOptions& opt) {
  return attack_or_throw(name).make(m, opt);
}

}  // namespace whisper::core
