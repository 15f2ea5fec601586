// Per-process scratch paths for tests that write files.
//
// gtest_discover_tests runs every case as its own process and ctest -j runs
// those processes side by side, so a fixed name under the temp directory is
// shared by cases that run at the same time: one case's teardown deletes
// the file another is still reading.  The pid and the running test's name
// make the path unique to one process and one case.
#pragma once

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <string>
#include <string_view>

namespace vc::testing_paths {

inline std::filesystem::path unique_temp_path(std::string_view stem) {
  std::string name(stem);
  name += "-" + std::to_string(::getpid());
  const auto* unit = ::testing::UnitTest::GetInstance();
  if (const ::testing::TestInfo* info = unit->current_test_info()) {
    name += std::string("-") + info->test_suite_name() + "." + info->name();
  } else if (const ::testing::TestSuite* suite = unit->current_test_suite()) {
    name += std::string("-") + suite->name();  // SetUpTestSuite / TearDownTestSuite
  }
  return std::filesystem::temp_directory_path() / name;
}

}  // namespace vc::testing_paths
