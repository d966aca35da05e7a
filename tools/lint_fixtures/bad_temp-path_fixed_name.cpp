// lint-as: tests/test_csv_writer.cpp
// Fixture: a fixed file name under the temp dir is shared by every
// concurrent ctest process running this case — `temp-path` must trip.

#include <gtest/gtest.h>

#include <string>

namespace {

std::string
scratchFile()
{
    return ::testing::TempDir() + "ppep_csv_test.csv";
}

} // namespace
