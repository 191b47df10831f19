// The one way tests check allocator invariants: ExpectConsistent runs
// AllocatorAuditor::CheckState on an allocator (or on the KvManager or standalone group that
// holds one), or the full Audit() of an attached auditor. A violation fails the calling test
// at the caller's line and lists what broke; the test goes on.

#ifndef JENGA_TESTS_AUDIT_AUDIT_TEST_UTIL_H_
#define JENGA_TESTS_AUDIT_AUDIT_TEST_UTIL_H_

#include <gtest/gtest.h>

#include <source_location>
#include <string>
#include <vector>

#include "src/audit/allocator_auditor.h"
#include "src/core/jenga_allocator.h"
#include "src/core/small_page_allocator.h"
#include "src/engine/kv_manager.h"

namespace jenga {

inline void ExpectNoViolations(const std::vector<std::string>& violations,
                               const std::source_location& where) {
  if (violations.empty()) {
    return;
  }
  constexpr size_t kShown = 8;
  std::string message = std::to_string(violations.size()) + " allocator invariant violation(s):";
  for (size_t i = 0; i < violations.size() && i < kShown; ++i) {
    message += "\n  " + violations[i];
  }
  ADD_FAILURE_AT(where.file_name(), static_cast<int>(where.line())) << message;
}

inline void ExpectConsistent(const JengaAllocator& alloc,
                             std::source_location where = std::source_location::current()) {
  ExpectNoViolations(AllocatorAuditor::CheckState(alloc), where);
}

inline void ExpectConsistent(const SmallPageAllocator& group,
                             std::source_location where = std::source_location::current()) {
  ExpectNoViolations(AllocatorAuditor::CheckState(group), where);
}

inline void ExpectConsistent(const KvManager& kv,
                             std::source_location where = std::source_location::current()) {
  ExpectNoViolations(AllocatorAuditor::CheckState(kv.allocator()), where);
}

inline void ExpectConsistent(const AllocatorAuditor& auditor,
                             std::source_location where = std::source_location::current()) {
  ExpectNoViolations(auditor.Audit(), where);
}

}  // namespace jenga

#endif  // JENGA_TESTS_AUDIT_AUDIT_TEST_UTIL_H_
