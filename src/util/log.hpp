#pragma once
/// \file log.hpp
/// Minimal leveled logger. Single global sink (stderr); messages below
/// LogLevel::kInfo are discarded. Thread-safe at the line level (each log
/// call formats then writes once).

#include <sstream>
#include <string>

namespace bd::util {

enum class LogLevel { kDebug = 0, kInfo = 1, kWarn = 2, kError = 3, kOff = 4 };

/// Write one formatted line to the sink if `level` is at least kInfo.
void log_line(LogLevel level, const std::string& message);

namespace detail {
class LogStream {
 public:
  explicit LogStream(LogLevel level) : level_(level) {}
  ~LogStream() { log_line(level_, os_.str()); }
  template <typename T>
  LogStream& operator<<(const T& v) {
    os_ << v;
    return *this;
  }

 private:
  LogLevel level_;
  std::ostringstream os_;
};
}  // namespace detail

}  // namespace bd::util

#define BD_LOG_DEBUG ::bd::util::detail::LogStream(::bd::util::LogLevel::kDebug)
#define BD_LOG_INFO ::bd::util::detail::LogStream(::bd::util::LogLevel::kInfo)
#define BD_LOG_WARN ::bd::util::detail::LogStream(::bd::util::LogLevel::kWarn)
#define BD_LOG_ERROR ::bd::util::detail::LogStream(::bd::util::LogLevel::kError)
