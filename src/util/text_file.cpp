#include "util/text_file.hpp"

#include <cstdio>
#include <filesystem>
#include <memory>
#include <system_error>

#include "util/error.hpp"

namespace bwshare {

std::string read_text_file(const std::string& path, std::string_view what) {
  const std::unique_ptr<std::FILE, int (*)(std::FILE*)> file(
      std::fopen(path.c_str(), "rb"), &std::fclose);
  BWS_CHECK(file != nullptr,
            "cannot open " + std::string(what) + " file '" + path + "'");
  // One byte past a regular file's size, so the first read comes up short
  // and ends the loop; a pipe has no size and starts at 64 KiB.
  std::error_code ec;
  const auto size = std::filesystem::file_size(path, ec);
  std::string text(ec ? size_t{1} << 16 : static_cast<size_t>(size) + 1, '\0');
  size_t used = 0;
  while (true) {
    used += std::fread(text.data() + used, 1, text.size() - used, file.get());
    if (used < text.size()) break;  // end of file, or a read error
    text.resize(2 * text.size());
  }
  text.resize(used);
  return text;
}

}  // namespace bwshare
