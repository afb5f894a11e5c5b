#include "util/error.hpp"

#include <sstream>

namespace bwshare::detail {

namespace {
std::string_view basename_of(std::string_view file) {
  const auto pos = file.find_last_of('/');
  return pos == std::string_view::npos ? file : file.substr(pos + 1);
}
}  // namespace

void throw_error(const std::string& message) { throw Error(message); }

void assert_fail(std::string_view file, int line, std::string_view condition,
                 const std::string& message) {
  std::ostringstream os;
  os << "internal invariant violated: (" << condition << ") " << message
     << " [" << basename_of(file) << ":" << line << "]";
  throw Error(os.str());
}

}  // namespace bwshare::detail
