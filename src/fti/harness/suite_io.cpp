#include "fti/harness/suite_io.hpp"

#include <algorithm>

#include "fti/mem/memfile.hpp"
#include "fti/util/error.hpp"
#include "fti/util/file_io.hpp"
#include "fti/util/strings.hpp"

namespace fti::harness {
namespace {

void apply_args_line(TestCase& test, std::string_view line,
                     const std::filesystem::path& path, int line_number) {
  auto fail = [&](const std::string& message) -> void {
    throw util::IoError(path.string() + ":" + std::to_string(line_number) +
                        ": " + message);
  };
  auto split_eq = [&](std::string_view text)
      -> std::pair<std::string, std::string> {
    std::size_t eq = text.find('=');
    if (eq == std::string_view::npos || eq == 0) {
      fail("expected NAME=VALUE in '" + std::string(text) + "'");
    }
    return {std::string(util::trim(text.substr(0, eq))),
            std::string(util::trim(text.substr(eq + 1)))};
  };
  try {
    if (line.front() != '!') {
      auto [name, value] = split_eq(line);
      test.scalar_args[name] = util::parse_i64(value);
      return;
    }
    auto fields = util::split_whitespace(line);
    const std::string& directive = fields[0];
    if (directive == "!check" && fields.size() == 2) {
      test.check_arrays.push_back(fields[1]);
    } else if (directive == "!rom" && fields.size() == 1) {
      test.embed_inputs = true;
    } else if (directive == "!max-cycles" && fields.size() == 2) {
      test.max_cycles = util::parse_u64(fields[1]);
    } else if (directive == "!limit" && fields.size() == 2) {
      auto [cls, value] = split_eq(fields[1]);
      test.resources.limits[cls] =
          static_cast<unsigned>(util::parse_u64(value));
    } else if (directive == "!latency" && fields.size() == 2) {
      auto [cls, value] = split_eq(fields[1]);
      test.resources.latencies[cls] =
          static_cast<unsigned>(util::parse_u64(value));
    } else if (directive == "!read-ports" && fields.size() == 2) {
      test.resources.default_memory_read_ports =
          static_cast<unsigned>(util::parse_u64(fields[1]));
    } else {
      fail("unknown directive '" + std::string(line) + "'");
    }
  } catch (const util::IoError&) {
    throw;
  } catch (const util::Error& e) {
    fail(e.what());
  }
}

}  // namespace

TestCase load_test_case(const std::filesystem::path& kernel_path) {
  TestCase test;
  test.name = kernel_path.stem().string();
  test.source = util::read_file(kernel_path);

  std::filesystem::path args_path = kernel_path;
  args_path.replace_extension(".args");
  if (std::filesystem::exists(args_path)) {
    int line_number = 0;
    for (const std::string& raw :
         util::split(util::read_file(args_path), '\n')) {
      ++line_number;
      std::string_view line = util::trim(raw);
      if (line.empty() || line.front() == '#') {
        continue;
      }
      apply_args_line(test, line, args_path, line_number);
    }
  }

  // NAME.<array>.dat sidecars provide initial memory contents.
  std::string prefix = test.name + ".";
  for (const auto& entry :
       std::filesystem::directory_iterator(kernel_path.parent_path())) {
    std::string file = entry.path().filename().string();
    if (!util::starts_with(file, prefix) ||
        !util::ends_with(file, ".dat")) {
      continue;
    }
    std::string array =
        file.substr(prefix.size(), file.size() - prefix.size() - 4);
    if (array.empty()) {
      continue;
    }
    test.inputs[array] = mem::load_mem_values(entry.path());
  }
  return test;
}

TestSuite load_suite_dir(const std::filesystem::path& dir) {
  if (!std::filesystem::is_directory(dir)) {
    throw util::IoError("suite directory '" + dir.string() +
                        "' does not exist");
  }
  std::vector<std::filesystem::path> kernels;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() == ".k") {
      kernels.push_back(entry.path());
    }
  }
  if (kernels.empty()) {
    throw util::IoError("suite directory '" + dir.string() +
                        "' holds no .k test cases");
  }
  std::sort(kernels.begin(), kernels.end());
  TestSuite suite;
  for (const auto& kernel : kernels) {
    suite.add(load_test_case(kernel));
  }
  return suite;
}

}  // namespace fti::harness
