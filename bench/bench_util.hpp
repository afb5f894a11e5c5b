// Shared helpers for the bench binaries.
#pragma once

#include <iostream>
#include <string>

#include "util/table.hpp"

namespace bwshare::bench {

/// Print the table; also write `<name>.csv` to the working directory when
/// `csv` (the --csv flag, read once in main before any work).
inline void emit(bool csv, const std::string& name, const TextTable& table) {
  std::cout << table.render() << "\n";
  if (csv) {
    const std::string path = name + ".csv";
    table.write_csv(path);
    std::cout << "  [csv written to " << path << "]\n";
  }
}

}  // namespace bwshare::bench
