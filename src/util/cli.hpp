// A tiny command-line flag parser shared by the bench harnesses and examples.
//
// Flags use the form --name value or --name=value; boolean flags may appear
// bare (--verbose). Unknown flags raise an error listing registered options,
// so every bench binary self-documents with --help.
#pragma once

#include <charconv>
#include <cmath>
#include <map>
#include <string>
#include <vector>

#include "util/check.hpp"

namespace pdnn::util {

/// Parse all of `text` as a T with std::from_chars. Garbage, trailing
/// characters, and out-of-range or non-finite values throw a CheckError that
/// starts with `what` (a flag or an environment variable) and quotes `text`.
template <typename T>
T parse_number(const std::string& what, const std::string& text,
               const char* kind) {
  T value{};
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec == std::errc() && ptr == end && std::isfinite(value)) return value;
  throw CheckError(what + ": '" + text + "' is not " + kind +
                   (ec == std::errc::result_out_of_range ? " (out of range)"
                                                         : ""));
}

/// Declarative command-line parser.
///
/// Usage:
///   ArgParser args("table2", "Reproduce Table 2");
///   args.add_flag("scale", "small", "Experiment scale: small|medium|paper");
///   args.parse(argc, argv);
///   std::string scale = args.get("scale");
class ArgParser {
 public:
  ArgParser(std::string program, std::string description);

  /// Register a string-valued flag with a default.
  void add_flag(const std::string& name, const std::string& default_value,
                const std::string& help);

  /// Register a boolean flag (default false; presence sets it true).
  void add_bool(const std::string& name, const std::string& help);

  /// Parse argv. Returns false if --help was requested (help printed).
  /// Throws CheckError on unknown flags or missing values.
  bool parse(int argc, const char* const* argv);

  const std::string& get(const std::string& name) const;
  /// Numeric getters parse the whole value; garbage, trailing characters,
  /// and out-of-range or non-finite values throw a CheckError naming the
  /// flag and its text.
  int get_int(const std::string& name) const;
  double get_double(const std::string& name) const;
  /// Comma-separated list of strings ("D1,D2"). An empty item — an empty
  /// value, a doubled comma, or a leading or trailing comma — throws a
  /// CheckError naming the flag and its text.
  std::vector<std::string> get_list(const std::string& name) const;
  /// get_list() with each item checked like get_double().
  std::vector<double> get_double_list(const std::string& name) const;
  bool get_bool(const std::string& name) const;

  std::string help() const;

 private:
  struct Option {
    std::string default_value;
    std::string help;
    bool is_bool = false;
  };
  std::string program_;
  std::string description_;
  std::map<std::string, Option> options_;
  std::map<std::string, std::string> values_;
};

}  // namespace pdnn::util
