#include "sim/trace_io.hpp"

#include <algorithm>
#include <array>
#include <charconv>
#include <cmath>
#include <fstream>
#include <limits>
#include <system_error>

#include "util/error.hpp"
#include "util/limits.hpp"
#include "util/parse.hpp"
#include "util/strings.hpp"
#include "util/text_file.hpp"

namespace bwshare::sim {

namespace {

/// Composes one line of trace text on the stack and appends it to the
/// output in one call. 400 bytes hold the longest line: two task ids, a
/// keyword and "%.0f" of DBL_MAX (309 digits).
class LineWriter {
 public:
  explicit LineWriter(std::string& out) : out_(out) {}

  LineWriter& text(std::string_view s) {
    end_ = std::copy(s.begin(), s.end(), end_);
    return *this;
  }
  LineWriter& number(int v) { return put(v); }
  /// A duration, as "%.9g" prints it.
  LineWriter& seconds(double v) {
    return put(v, std::chars_format::general, 9);
  }
  /// A message size, as "%.0f" prints it.
  LineWriter& bytes(double v) { return put(v, std::chars_format::fixed, 0); }

  void end_line() {
    *end_++ = '\n';
    out_.append(buf_.data(), static_cast<size_t>(end_ - buf_.data()));
    end_ = buf_.data();
  }

 private:
  template <typename T, typename... Format>
  LineWriter& put(T v, Format... format) {
    const auto [end, ec] =
        std::to_chars(end_, buf_.data() + buf_.size(), v, format...);
    BWS_ASSERT(ec == std::errc(), "trace line does not fit its buffer");
    end_ = end;
    return *this;
  }

  std::string& out_;
  std::array<char, 400> buf_;
  char* end_ = buf_.data();
};

}  // namespace

std::string write_trace(const AppTrace& trace) {
  std::string out;
  out.reserve(24 * trace.total_events() + 16);
  LineWriter line(out);
  line.text("tasks ").number(trace.num_tasks()).end_line();
  for (TaskId t = 0; t < trace.num_tasks(); ++t) {
    for (const auto& e : trace.program(t)) {
      line.number(t);
      switch (e.kind) {
        case EventKind::kCompute:
          line.text(" compute ").seconds(e.seconds());
          break;
        case EventKind::kSend:
        case EventKind::kIsend:
          line.text(e.kind == EventKind::kSend ? " send " : " isend ")
              .number(e.peer)
              .text(" ")
              .bytes(e.bytes());
          break;
        case EventKind::kRecv:
        case EventKind::kIrecv:
          line.text(e.kind == EventKind::kRecv ? " recv " : " irecv ");
          if (e.peer == kAnySource)
            line.text("any");
          else
            line.number(e.peer);
          line.text(" ").bytes(e.bytes());
          break;
        case EventKind::kWaitAll:
          line.text(" waitall");
          break;
        case EventKind::kBarrier:
          line.text(" barrier");
          break;
      }
      line.end_line();
    }
  }
  return out;
}

AppTrace read_trace(std::string_view text) {
  int line_no = 0;
  AppTrace trace;
  bool have_tasks = false;

  auto fail = [&](const std::string& msg) -> void {
    BWS_THROW(strformat("trace line %d: %s", line_no, msg.c_str()));
  };
  auto parse_task = [&](std::string_view field, const char* what) -> TaskId {
    long t = 0;
    switch (try_parse_long(field, t, 0, trace.num_tasks() - 1)) {
      case ParseIntStatus::kMalformed:
        fail(std::string("malformed ") + what + " '" + std::string(field) +
             "'");
        break;
      case ParseIntStatus::kOutOfRange:
        fail(std::string(what) + " out of range");
        break;
      case ParseIntStatus::kOk:
        break;
    }
    return static_cast<TaskId>(t);
  };
  auto parse_number = [&](std::string_view field, const char* what) -> double {
    double v = 0.0;
    const size_t used = parse_double_prefix(field, v);
    // strtod's end check on a C string: a NUL byte also ends the number
    // (the set of accepted spellings is pinned in test_number_grammar.cpp).
    if (used == 0 || (used < field.size() && field[used] != '\0'))
      fail(std::string("malformed ") + what + " '" + std::string(field) +
           "'");
    if (!std::isfinite(v) || v < 0.0)
      fail(std::string(what) + " must be finite and non-negative");
    return v;
  };

  // The first four fields of the current line, viewing `text`, and how many
  // fields the line has in all.
  std::array<std::string_view, 4> fields;
  size_t count = 0;
  const char* p = text.data();
  const char* const end = p + text.size();
  while (p != end) {
    ++line_no;
    count = 0;
    // One pass over the line: fields end at whitespace (which includes the
    // '\n' ending the line) or at a '#', whose comment runs to the line's
    // end.
    while (p != end && *p != '\n') {
      if (*p == '#') {
        p = std::find(p, end, '\n');
        break;
      }
      if (is_space(*p)) {
        ++p;
        continue;
      }
      const char* const start = p;
      while (p != end && !is_space(*p) && *p != '#') ++p;
      if (count < fields.size())
        fields[count] = std::string_view(start, static_cast<size_t>(p - start));
      ++count;
    }
    if (p != end) ++p;  // past the '\n'
    if (count == 0) continue;

    if (fields[0] == "tasks") {
      if (have_tasks) fail("duplicate 'tasks' directive");
      if (count != 2) fail("'tasks' takes one argument");
      long n = 0;
      switch (try_parse_long(fields[1], n, 1,
                             std::numeric_limits<int>::max())) {
        case ParseIntStatus::kMalformed:
          fail("malformed task count '" + std::string(fields[1]) + "'");
          break;
        case ParseIntStatus::kOutOfRange:
          fail("task count out of range");
          break;
        case ParseIntStatus::kOk:
          break;
      }
      if (n > kMaxCount)
        fail(strformat("task count %ld exceeds the limit of %d", n,
                       kMaxCount));
      trace = AppTrace(static_cast<int>(n));
      have_tasks = true;
      continue;
    }
    if (!have_tasks) fail("'tasks' directive must come first");

    // "* <event>" applies the event to every task (e.g. "* barrier").
    const bool every_task = fields[0] == "*";
    const TaskId task = every_task ? 0 : parse_task(fields[0], "task id");
    if (count < 2) fail("missing event kind");
    const std::string_view kind = fields[1];
    Event event = Event::barrier();
    if (kind == "compute") {
      if (count != 3) fail("compute takes a duration");
      event = Event::compute(parse_number(fields[2], "duration"));
    } else if (kind == "send" || kind == "isend") {
      if (count != 4) fail(std::string(kind) + " takes peer and size");
      const TaskId peer = parse_task(fields[2], "peer");
      const double bytes = parse_number(fields[3], "size");
      event = kind == "send" ? Event::send(peer, bytes)
                             : Event::isend(peer, bytes);
    } else if (kind == "recv" || kind == "irecv") {
      if (count != 4) fail(std::string(kind) + " takes peer and size");
      const TaskId peer =
          fields[2] == "any" ? kAnySource : parse_task(fields[2], "peer");
      const double bytes = parse_number(fields[3], "size");
      event = kind == "recv" ? Event::recv(peer, bytes)
                             : Event::irecv(peer, bytes);
    } else if (kind == "waitall") {
      event = Event::wait_all();
    } else if (kind != "barrier") {
      fail("unknown event kind '" + std::string(kind) + "'");
    }
    if (every_task) {
      for (TaskId t = 0; t < trace.num_tasks(); ++t) trace.push(t, event);
    } else {
      trace.push(task, event);
    }
  }
  BWS_CHECK(have_tasks, "trace has no 'tasks' directive");
  return trace;
}

void write_trace_file(const AppTrace& trace, const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  BWS_CHECK(out.good(), "cannot open '" + path + "' for writing");
  const std::string text = write_trace(trace);
  out.write(text.data(), static_cast<std::streamsize>(text.size()));
  BWS_CHECK(out.good(), "error writing '" + path + "'");
}

AppTrace read_trace_file(const std::string& path) {
  const std::string text = read_text_file(path, "trace");
  try {
    return read_trace(text);
  } catch (const Error& e) {
    throw Error(path + ": " + e.what());
  }
}

}  // namespace bwshare::sim
