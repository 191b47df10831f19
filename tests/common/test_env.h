// The one reader of the test tiers' integer environment knobs (JENGA_FUZZ_SCHEDULES,
// JENGA_FUZZ_SEED, JENGA_STRESS_SEED, ...). A malformed value aborts the run naming the
// variable, so a typo cannot silently run zero schedules or replay seed 0.

#ifndef JENGA_TESTS_COMMON_TEST_ENV_H_
#define JENGA_TESTS_COMMON_TEST_ENV_H_

#include <cerrno>
#include <cstdint>
#include <cstdlib>
#include <optional>

#include "src/common/check.h"

namespace jenga {

// The value of environment variable `name` — a non-negative integer, decimal or C-style
// (0x hex, leading-0 octal) — or nullopt when unset.
inline std::optional<uint64_t> TestEnvUint(const char* name) {
  const char* text = std::getenv(name);
  if (text == nullptr) {
    return std::nullopt;
  }
  char* end = nullptr;
  errno = 0;
  const unsigned long long value = std::strtoull(text, &end, 0);
  JENGA_CHECK(text[0] >= '0' && text[0] <= '9' && *end == '\0' && errno == 0)
      << "bad " << name << ": \"" << text << "\" (want a non-negative integer)";
  return static_cast<uint64_t>(value);
}

}  // namespace jenga

#endif  // JENGA_TESTS_COMMON_TEST_ENV_H_
