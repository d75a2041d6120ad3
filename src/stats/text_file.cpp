#include "stats/text_file.h"

#include <cerrno>
#include <cstdio>
#include <cstring>

namespace whisper::stats {

bool write_text_file(const std::string& path, std::string_view body) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  bool ok = f != nullptr;
  if (ok) {
    ok = std::fwrite(body.data(), 1, body.size(), f) == body.size();
    ok = std::fclose(f) == 0 && ok;
  }
  if (!ok)
    std::fprintf(stderr, "cannot write %s: %s\n", path.c_str(),
                 std::strerror(errno));
  return ok;
}

}  // namespace whisper::stats
