#include "util/cli.hpp"

#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <sstream>

#include "util/check.hpp"
#include "util/telemetry.hpp"

namespace bd::util {

namespace {
/// Ends the process after a command-line error. A mistyped flag must not
/// run the binary with its defaults (a gate would silently skip its check).
[[noreturn]] void exit_with_usage(const std::string& usage) {
  std::fprintf(stderr, "\n%s", usage.c_str());
  std::exit(2);
}

/// `text` as a whole base-10 integer, or nothing when any of it is not one
/// or it is out of range.
std::optional<std::int64_t> to_int(const std::string& text) {
  std::int64_t value = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc{} || ptr != end) return std::nullopt;
  return value;
}

/// `text` as a whole double, or nothing when any of it is not one or it is
/// out of range.
std::optional<double> to_double(const std::string& text) {
  double value = 0.0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc{} || ptr != end) return std::nullopt;
  return value;
}
}  // namespace

ArgParser::ArgParser(std::string program, std::string description)
    : program_(std::move(program)), description_(std::move(description)) {
  add_string("trace", "",
             "capture telemetry spans and write chrome://tracing JSON to "
             "this path at exit (same as BD_TRACE=<path>)");
}

void ArgParser::add_int(const std::string& name, std::int64_t default_value,
                        const std::string& help) {
  options_[name] =
      Option{Kind::kInt, help, std::to_string(default_value),
             std::to_string(default_value)};
}

void ArgParser::add_double(const std::string& name, double default_value,
                           const std::string& help) {
  std::ostringstream os;
  os << default_value;
  options_[name] = Option{Kind::kDouble, help, os.str(), os.str()};
}

void ArgParser::add_string(const std::string& name,
                           const std::string& default_value,
                           const std::string& help) {
  options_[name] = Option{Kind::kString, help, default_value, default_value};
}

void ArgParser::add_flag(const std::string& name, const std::string& help) {
  options_[name] = Option{Kind::kFlag, help, "0", "0"};
}

bool ArgParser::parse(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      std::fputs(usage().c_str(), stdout);
      return false;
    }
    if (arg.rfind("--", 0) != 0) {
      std::fprintf(stderr, "%s: unexpected argument '%s'\n", program_.c_str(),
                   arg.c_str());
      exit_with_usage(usage());
    }
    std::string name = arg.substr(2);
    std::string value;
    bool has_value = false;
    if (auto eq = name.find('='); eq != std::string::npos) {
      value = name.substr(eq + 1);
      name = name.substr(0, eq);
      has_value = true;
    }
    auto it = options_.find(name);
    if (it == options_.end()) {
      std::fprintf(stderr, "%s: unknown option '--%s'\n", program_.c_str(),
                   name.c_str());
      exit_with_usage(usage());
    }
    Option& opt = it->second;
    if (opt.kind == Kind::kFlag) {
      opt.value = has_value ? value : "1";
      continue;
    }
    if (!has_value) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s: option '--%s' needs a value\n",
                     program_.c_str(), name.c_str());
        exit_with_usage(usage());
      }
      value = argv[++i];
    }
    if ((opt.kind == Kind::kInt && !to_int(value)) ||
        (opt.kind == Kind::kDouble && !to_double(value))) {
      std::fprintf(stderr, "%s: option '--%s' needs %s, got '%s'\n",
                   program_.c_str(), name.c_str(),
                   opt.kind == Kind::kInt ? "an integer" : "a number",
                   value.c_str());
      exit_with_usage(usage());
    }
    opt.value = value;
  }
  if (const std::string& path = get_string("trace"); !path.empty()) {
    telemetry::TraceSession& session = telemetry::TraceSession::global();
    session.set_output_path(path);
    session.start();
    static bool flush_registered = false;
    if (!flush_registered) {
      flush_registered = true;
      std::atexit([] { telemetry::TraceSession::global().flush(); });
    }
  }
  return true;
}

const ArgParser::Option& ArgParser::find(const std::string& name,
                                         Kind kind) const {
  auto it = options_.find(name);
  BD_CHECK_MSG(it != options_.end(), "option not registered: " << name);
  BD_CHECK_MSG(it->second.kind == kind, "option type mismatch: " << name);
  return it->second;
}

std::int64_t ArgParser::get_int(const std::string& name) const {
  return *to_int(find(name, Kind::kInt).value);
}

double ArgParser::get_double(const std::string& name) const {
  return *to_double(find(name, Kind::kDouble).value);
}

const std::string& ArgParser::get_string(const std::string& name) const {
  return find(name, Kind::kString).value;
}

bool ArgParser::get_flag(const std::string& name) const {
  const std::string& v = find(name, Kind::kFlag).value;
  return v == "1" || v == "true" || v == "yes";
}

std::string ArgParser::usage() const {
  std::ostringstream os;
  os << program_ << " — " << description_ << "\n\noptions:\n";
  for (const auto& [name, opt] : options_) {
    os << "  --" << name;
    switch (opt.kind) {
      case Kind::kInt: os << " <int>"; break;
      case Kind::kDouble: os << " <float>"; break;
      case Kind::kString: os << " <string>"; break;
      case Kind::kFlag: break;
    }
    os << "\n      " << opt.help;
    if (opt.kind != Kind::kFlag) os << " (default: " << opt.default_value << ")";
    os << "\n";
  }
  return os.str();
}

}  // namespace bd::util
