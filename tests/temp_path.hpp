/**
 * @file
 * Scratch paths for tests that touch the file system.
 *
 * ctest runs every test case as its own process, several at once under
 * `ctest -j`, so a fixed name under ::testing::TempDir() is shared by
 * cases that write and delete it concurrently. tempPath() names the
 * path after the process and the running test, so no two cases share
 * one. tools/ppep_lint.py rejects any other `TempDir() +` in tests/.
 */

#ifndef PPEP_TESTS_TEMP_PATH_HPP
#define PPEP_TESTS_TEMP_PATH_HPP

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <string>

namespace ppep::test {

/**
 * `<TempDir>ppep_<pid>_<suite>_<test>_<tag>`, with '/' of parameterised
 * names replaced by '_'. Outside a running test the suite and test
 * names are left out.
 */
inline std::string
tempPath(const std::string &tag)
{
    std::string name = "ppep_" + std::to_string(::getpid());
    if (const ::testing::TestInfo *info =
            ::testing::UnitTest::GetInstance()->current_test_info())
        name = name + "_" + info->test_suite_name() + "_" + info->name();
    name += "_" + tag;
    std::replace(name.begin(), name.end(), '/', '_');
    return ::testing::TempDir() + name;
}

} // namespace ppep::test

#endif // PPEP_TESTS_TEMP_PATH_HPP
