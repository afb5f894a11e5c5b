// Whole-file reads for the text front doors (trace files, scheme files).
#pragma once

#include <string>
#include <string_view>

namespace bwshare {

/// The whole content of `path`, read once: in one call for a regular file,
/// in growing chunks for a pipe. Throws bwshare::Error("cannot open <what>
/// file '<path>'") if it cannot be opened; a read error ends the text.
[[nodiscard]] std::string read_text_file(const std::string& path,
                                         std::string_view what);

}  // namespace bwshare
