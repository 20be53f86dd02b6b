// Seeded test cases for the workloads, and the checks of their outputs
// against references written independently of the compiler under test.
#pragma once

#include <cstdint>
#include <filesystem>
#include <string>

#include "fti/harness/testcase.hpp"
#include "fti/mem/storage.hpp"

namespace perfbench {

/// FDCT over `blocks` 8x8 blocks of a seeded random image; one temporal
/// partition (FDCT1) or two (FDCT2).
fti::harness::TestCase fdct_case(std::size_t blocks, bool two_stage,
                                 std::uint64_t seed);
/// Hamming(7,4) decoder over `words` seeded codewords, one bit flipped in
/// every fifth.
fti::harness::TestCase hamming_case(std::size_t words, std::uint64_t seed);
/// Straight-line kernel of `statements` two-operand statements over one
/// input and one output array: much datapath to compile, lint and emit,
/// few cycles to simulate.  The operators follow a fixed rotation, so the
/// kernel's cost depends on its size alone; the seed draws the operand
/// indices, the constants and the input data.
fti::harness::TestCase wide_case(std::size_t statements, std::uint64_t seed);
fti::harness::TestCase fir_case(std::size_t samples, std::size_t taps,
                                std::uint64_t seed);
fti::harness::TestCase matmul_case(std::size_t n, std::uint64_t seed);

/// True when `pool` (the final memories of a run of an fdct_case or
/// hamming_case) equals golden::fdct_reference / golden::hamming_reference
/// over the case's inputs.  `why` names the first difference.
bool matches_reference(const fti::harness::TestCase& test,
                       const fti::mem::MemoryPool& pool, std::string& why);

/// Writes `test` as NAME.k / NAME.args / NAME.<array>.dat in `dir`, the
/// layout harness::load_test_case (and so `fti serve`) reads; returns the
/// kernel path.
std::filesystem::path write_case(const fti::harness::TestCase& test,
                                 const std::filesystem::path& dir);

}  // namespace perfbench
