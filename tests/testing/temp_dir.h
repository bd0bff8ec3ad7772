#ifndef PROCLUS_TESTS_TESTING_TEMP_DIR_H_
#define PROCLUS_TESTS_TESTING_TEMP_DIR_H_

#include <unistd.h>

#include <filesystem>
#include <string>

namespace proclus {

// `name` under the system temp directory, suffixed with this process's id:
// two concurrent runs of one test binary then never share a file or
// directory, so one run's TearDown cannot delete the other's files.
inline std::filesystem::path ProcessTempPath(const std::string& name) {
  return std::filesystem::temp_directory_path() /
         (name + "_" + std::to_string(::getpid()));
}

}  // namespace proclus

#endif  // PROCLUS_TESTS_TESTING_TEMP_DIR_H_
