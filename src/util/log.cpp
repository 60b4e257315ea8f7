#include "util/log.hpp"

#include <cstdio>
#include <mutex>

namespace bd::util {

namespace {
constexpr LogLevel kMinLevel = LogLevel::kInfo;
std::mutex g_sink_mutex;

const char* level_tag(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug: return "DEBUG";
    case LogLevel::kInfo: return "INFO ";
    case LogLevel::kWarn: return "WARN ";
    case LogLevel::kError: return "ERROR";
    default: return "?????";
  }
}
}  // namespace

void log_line(LogLevel level, const std::string& message) {
  if (static_cast<int>(level) < static_cast<int>(kMinLevel)) return;
  std::lock_guard<std::mutex> lock(g_sink_mutex);
  std::fprintf(stderr, "[%s] %s\n", level_tag(level), message.c_str());
}

}  // namespace bd::util
