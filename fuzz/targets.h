// Fuzz-target registry: one entry point per wire-format decoder.
//
// Every harness is an ordinary function with the libFuzzer signature
// semantics (return 0, abort on a property violation) so the same code runs
// under three drivers without modification:
//   - libFuzzer (clang, -DUPR_FUZZ=ON): fuzz/libfuzzer_entry.cc wraps one
//     target per binary behind LLVMFuzzerTestOneInput.
//   - the standalone driver (gcc, -DUPR_FUZZ=ON): fuzz/standalone_main.cc
//     replays corpora and runs a coverage-blind mutation loop.
//   - the ctest regression replay: tests/fuzz_regression_test.cc walks this
//     table and feeds every checked-in corpus input through its decoder, so
//     tier-1 guards every past finding without needing libFuzzer.
//
// Harnesses assert round-trip properties (decode -> encode -> decode agrees,
// views never escape the input span), not just "does not crash" — the fuzzer
// hunts semantic divergence too. See DESIGN.md "Fuzzing architecture".
#ifndef FUZZ_TARGETS_H_
#define FUZZ_TARGETS_H_

#include <cstddef>
#include <cstdint>

namespace upr::fuzz {

using TargetFn = int (*)(const std::uint8_t* data, std::size_t size);

struct Target {
  const char* name;  // harness/binary suffix and corpus directory name
  TargetFn fn;
};

// All registered targets, ordered as the docs list them.
const Target* Targets(std::size_t* count);
// nullptr when `name` is not a registered target.
TargetFn FindTarget(const char* name);

// One harness per wire-format decoder.
int RunKiss(const std::uint8_t* data, std::size_t size);
int RunAx25Frame(const std::uint8_t* data, std::size_t size);
int RunAx25Xid(const std::uint8_t* data, std::size_t size);
int RunIpv4(const std::uint8_t* data, std::size_t size);
int RunTcp(const std::uint8_t* data, std::size_t size);
int RunUdp(const std::uint8_t* data, std::size_t size);
int RunIcmp(const std::uint8_t* data, std::size_t size);
int RunArp(const std::uint8_t* data, std::size_t size);
int RunPcapng(const std::uint8_t* data, std::size_t size);
int RunFaults(const std::uint8_t* data, std::size_t size);
int RunJson(const std::uint8_t* data, std::size_t size);
// The first stateful target: a SerialLine against a naive reference model.
int RunSerialLine(const std::uint8_t* data, std::size_t size);

}  // namespace upr::fuzz

#endif  // FUZZ_TARGETS_H_
