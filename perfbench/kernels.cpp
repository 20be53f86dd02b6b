#include "kernels.hpp"

#include <sstream>

#include "fti/golden/fdct.hpp"
#include "fti/golden/fir.hpp"
#include "fti/golden/hamming.hpp"
#include "fti/golden/matmul.hpp"
#include "fti/golden/rng.hpp"
#include "fti/util/file_io.hpp"

namespace perfbench {

using fti::harness::TestCase;

TestCase fdct_case(std::size_t blocks, bool two_stage, std::uint64_t seed) {
  TestCase test;
  test.name = std::string(two_stage ? "fdct2" : "fdct1") + "_b" +
              std::to_string(blocks);
  test.source = fti::golden::fdct_source(blocks, two_stage);
  test.scalar_args = {{"nblocks", static_cast<std::int64_t>(blocks)}};
  test.inputs = {{"in", fti::golden::make_random_image(
                            blocks * fti::golden::kBlockPixels, seed)}};
  test.check_arrays = {"tmp", "out"};
  return test;
}

TestCase hamming_case(std::size_t words, std::uint64_t seed) {
  TestCase test;
  test.name = "hamming_w" + std::to_string(words);
  test.source = fti::golden::hamming_source(words);
  test.scalar_args = {{"n", static_cast<std::int64_t>(words)}};
  test.inputs = {{"code", fti::golden::make_codewords(words, seed, 5)}};
  test.check_arrays = {"data"};
  return test;
}

TestCase wide_case(std::size_t statements, std::uint64_t seed) {
  static const char* const kOps[] = {"+", "-", "*", "&", "|", "^"};
  fti::golden::Rng rng(seed);
  std::string n = std::to_string(statements);
  TestCase test;
  test.name = "wide" + n;
  test.source = "kernel wide(int a[" + n + "], int b[" + n + "]) {\n";
  for (std::size_t i = 0; i < statements; ++i) {
    test.source += "  b[" + std::to_string(i) + "] = a[" +
                   std::to_string(rng.below(statements)) + "] " +
                   kOps[i % 6] + " a[" +
                   std::to_string(rng.below(statements)) + "] + " +
                   std::to_string(rng.below(1000)) + ";\n";
  }
  test.source += "}\n";
  test.inputs = {{"a", rng.sequence(statements, 1u << 16)}};
  test.check_arrays = {"b"};
  return test;
}

TestCase fir_case(std::size_t samples, std::size_t taps, std::uint64_t seed) {
  fti::golden::Rng rng(seed);
  TestCase test;
  test.name = "fir_s" + std::to_string(samples) + "_t" + std::to_string(taps);
  test.source = fti::golden::fir_source(samples, taps);
  test.scalar_args = {{"n", static_cast<std::int64_t>(samples)},
                      {"taps", static_cast<std::int64_t>(taps)}};
  test.inputs = {{"x", rng.sequence(samples + taps - 1, 1u << 12)},
                 {"h", rng.sequence(taps, 1u << 8)}};
  test.check_arrays = {"y"};
  return test;
}

TestCase matmul_case(std::size_t n, std::uint64_t seed) {
  fti::golden::Rng rng(seed);
  TestCase test;
  test.name = "matmul_n" + std::to_string(n);
  test.source = fti::golden::matmul_source(n);
  test.scalar_args = {{"n", static_cast<std::int64_t>(n)}};
  test.inputs = {{"a", rng.sequence(n * n, 1u << 8)},
                 {"b", rng.sequence(n * n, 1u << 8)}};
  test.check_arrays = {"c"};
  return test;
}

namespace {

bool same_words(const fti::mem::MemoryPool& pool, const std::string& array,
                const std::vector<std::uint64_t>& expected,
                std::string& why) {
  if (!pool.contains(array)) {
    why = "memory '" + array + "' missing after the run";
    return false;
  }
  const std::vector<std::uint64_t>& actual = pool.get(array).words();
  for (std::size_t i = 0; i < expected.size(); ++i) {
    if (i >= actual.size() || actual[i] != expected[i]) {
      why = "memory '" + array + "' word " + std::to_string(i) +
            " differs from the golden reference";
      return false;
    }
  }
  return true;
}

}  // namespace

bool matches_reference(const TestCase& test, const fti::mem::MemoryPool& pool,
                       std::string& why) {
  if (auto blocks = test.scalar_args.find("nblocks");
      blocks != test.scalar_args.end()) {
    std::vector<std::uint64_t> scratch;
    std::vector<std::uint64_t> output;
    fti::golden::fdct_reference(test.inputs.at("in"), scratch, output,
                                static_cast<std::size_t>(blocks->second));
    return same_words(pool, "tmp", scratch, why) &&
           same_words(pool, "out", output, why);
  }
  if (auto code = test.inputs.find("code"); code != test.inputs.end()) {
    std::vector<std::uint64_t> data;
    fti::golden::hamming_reference(code->second, data);
    return same_words(pool, "data", data, why);
  }
  why = "no golden reference for test case '" + test.name + "'";
  return false;
}

std::filesystem::path write_case(const TestCase& test,
                                 const std::filesystem::path& dir) {
  std::filesystem::path kernel = dir / (test.name + ".k");
  fti::util::write_file(kernel, test.source);
  std::ostringstream args;
  for (const auto& [name, value] : test.scalar_args) {
    args << name << "=" << value << "\n";
  }
  for (const std::string& array : test.check_arrays) {
    args << "!check " << array << "\n";
  }
  fti::util::write_file(dir / (test.name + ".args"), args.str());
  for (const auto& [array, values] : test.inputs) {
    std::ostringstream words;
    for (std::uint64_t value : values) {
      words << "0x" << std::hex << value << "\n";
    }
    fti::util::write_file(dir / (test.name + "." + array + ".dat"),
                          words.str());
  }
  return kernel;
}

}  // namespace perfbench
