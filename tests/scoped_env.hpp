// Sets an environment variable for one scope of a test and restores the
// previous value (or its absence) when the scope ends.
#pragma once

#include <cstdlib>
#include <optional>
#include <string>

namespace pdnn::testutil {

class ScopedEnv {
 public:
  /// A null `value` unsets the variable.
  ScopedEnv(const char* name, const char* value) : name_(name) {
    if (const char* old = std::getenv(name)) old_ = old;
    if (value) {
      ::setenv(name, value, /*overwrite=*/1);
    } else {
      ::unsetenv(name);
    }
  }
  ~ScopedEnv() {
    if (old_) {
      ::setenv(name_, old_->c_str(), /*overwrite=*/1);
    } else {
      ::unsetenv(name_);
    }
  }
  ScopedEnv(const ScopedEnv&) = delete;
  ScopedEnv& operator=(const ScopedEnv&) = delete;

 private:
  const char* name_;
  std::optional<std::string> old_;
};

}  // namespace pdnn::testutil
