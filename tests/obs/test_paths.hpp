// Scratch-file paths for tests that hand files to the offline tools.
//
// ctest runs every gtest case as its own process, concurrently under -j, so
// a fixed file name under ::testing::TempDir() lets one case rewrite a file
// while another case's tool is still reading it. Prefixing the current
// test's suite and name gives each case its own files.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

namespace icc::testing_paths {

/// TempDir()/<suite>.<test>.<file>, with '/' of parameterized names
/// replaced so the result stays one path component.
inline std::string test_path(const std::string& file) {
  const ::testing::TestInfo* info = ::testing::UnitTest::GetInstance()->current_test_info();
  std::string prefix = std::string(info->test_suite_name()) + "." + info->name() + ".";
  std::replace(prefix.begin(), prefix.end(), '/', '_');
  return ::testing::TempDir() + prefix + file;
}

}  // namespace icc::testing_paths
