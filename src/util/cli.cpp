#include "util/cli.hpp"

#include <cstdio>
#include <sstream>

namespace pdnn::util {

ArgParser::ArgParser(std::string program, std::string description)
    : program_(std::move(program)), description_(std::move(description)) {}

void ArgParser::add_flag(const std::string& name,
                         const std::string& default_value,
                         const std::string& help) {
  options_[name] = Option{default_value, help, /*is_bool=*/false};
  values_[name] = default_value;
}

void ArgParser::add_bool(const std::string& name, const std::string& help) {
  options_[name] = Option{"false", help, /*is_bool=*/true};
  values_[name] = "false";
}

bool ArgParser::parse(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      std::fputs(help().c_str(), stdout);
      return false;
    }
    PDN_CHECK(arg.rfind("--", 0) == 0, "flags must start with --; see --help");
    arg = arg.substr(2);
    std::string value;
    bool has_value = false;
    if (const auto eq = arg.find('='); eq != std::string::npos) {
      value = arg.substr(eq + 1);
      arg = arg.substr(0, eq);
      has_value = true;
    }
    const auto it = options_.find(arg);
    if (it == options_.end()) {
      throw CheckError("unknown flag --" + arg + "\n" + help());
    }
    if (it->second.is_bool) {
      values_[arg] = has_value ? value : "true";
    } else if (has_value) {
      values_[arg] = value;
    } else {
      PDN_CHECK(i + 1 < argc, "flag --" + arg + " requires a value");
      values_[arg] = argv[++i];
    }
  }
  return true;
}

const std::string& ArgParser::get(const std::string& name) const {
  const auto it = values_.find(name);
  PDN_CHECK(it != values_.end(), "flag not registered: " + name);
  return it->second;
}

int ArgParser::get_int(const std::string& name) const {
  return parse_number<int>("flag --" + name, get(name), "an integer");
}

double ArgParser::get_double(const std::string& name) const {
  return parse_number<double>("flag --" + name, get(name), "a finite number");
}

std::vector<std::string> ArgParser::get_list(const std::string& name) const {
  const std::string& text = get(name);
  std::vector<std::string> items;
  for (std::size_t begin = 0;;) {
    const std::size_t comma = text.find(',', begin);
    items.push_back(text.substr(begin, comma - begin));
    PDN_CHECK(!items.back().empty(),
              "flag --" + name + ": '" + text + "' has an empty item");
    if (comma == std::string::npos) return items;
    begin = comma + 1;
  }
}

std::vector<double> ArgParser::get_double_list(const std::string& name) const {
  std::vector<double> values;
  for (const std::string& item : get_list(name)) {
    values.push_back(
        parse_number<double>("flag --" + name, item, "a finite number"));
  }
  return values;
}

bool ArgParser::get_bool(const std::string& name) const {
  const std::string& v = get(name);
  return v == "true" || v == "1" || v == "yes";
}

std::string ArgParser::help() const {
  std::ostringstream os;
  os << program_ << " — " << description_ << "\n\noptions:\n";
  for (const auto& [name, opt] : options_) {
    os << "  --" << name;
    if (!opt.is_bool) os << " <value>";
    os << "  (default: " << opt.default_value << ")\n      " << opt.help
       << "\n";
  }
  return os.str();
}

}  // namespace pdnn::util
