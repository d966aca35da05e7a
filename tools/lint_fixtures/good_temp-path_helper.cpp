// lint-as: tests/test_csv_writer.cpp
// Fixture: a scratch path named after the process and the running test
// via test::tempPath() is clean under `temp-path`.

#include <gtest/gtest.h>

#include <string>

#include "temp_path.hpp"

namespace {

std::string
scratchFile()
{
    return ppep::test::tempPath("table.csv");
}

} // namespace
