// libFuzzer harness for the database readers: arbitrary bytes fed through
// read_binary and through read_text must either parse into a database that
// satisfies the readers' own invariants or raise std::runtime_error — never
// crash, never allocate unbounded memory from a forged header count, never
// wrap or drop a malformed item id.
//
// Under ECLAT_SANITIZE=fuzzer (Clang) this links the libFuzzer driver and
// runs open-ended:   ./fuzz_io -max_total_time=60 corpus/
// Everywhere else the seeded main() below replays the deterministic
// mutation model from tests/test_io_fuzz.cpp through the same entry point.
#include <cstddef>
#include <cstdint>
#include <sstream>
#include <stdexcept>
#include <string>

#include "common/check.hpp"
#include "data/horizontal.hpp"
#include "data/io.hpp"

namespace {

/// Input that survives parsing must still satisfy the readers' own
/// invariants — check the strongest one.
void check_items(const eclat::HorizontalDatabase& db) {
  for (const eclat::Transaction& t : db.transactions()) {
    for (const eclat::Item item : t.items) {
      ECLAT_CHECK(item < db.num_items());
    }
  }
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  const std::string bytes(reinterpret_cast<const char*>(data), size);
  // A std::runtime_error is malformed input detected and rejected: exactly
  // the contract.
  try {
    std::istringstream in(bytes, std::ios::binary);
    check_items(eclat::read_binary(in));
  } catch (const std::runtime_error&) {
  }
  try {
    std::istringstream in(bytes);
    check_items(eclat::read_text(in));
  } catch (const std::runtime_error&) {
  }
  return 0;
}

#ifndef ECLAT_FUZZ_LIBFUZZER
// Seeded standalone driver: serialize valid databases, mutate the bytes,
// and feed the libFuzzer entry point. Deterministic in (seed, iterations).
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "common/rng.hpp"

namespace {

/// Small random database with the invariants write_binary expects:
/// strictly increasing duplicate-free items in [0, num_items).
eclat::HorizontalDatabase valid_db(eclat::Rng& rng) {
  const eclat::Item num_items = static_cast<eclat::Item>(4 + rng.below(60));
  std::vector<eclat::Transaction> transactions;
  const std::size_t rows = rng.below(12);
  for (std::size_t i = 0; i < rows; ++i) {
    eclat::Itemset items;
    for (eclat::Item item = 0; item < num_items; ++item) {
      if (rng.below(4) == 0) items.push_back(item);
    }
    transactions.push_back(
        eclat::Transaction{static_cast<eclat::Tid>(i), std::move(items)});
  }
  return eclat::HorizontalDatabase(std::move(transactions), num_items);
}

std::string serialize(const eclat::HorizontalDatabase& db) {
  std::ostringstream out(std::ios::binary);
  eclat::write_binary(db, out);
  return out.str();
}

std::string serialize_text(const eclat::HorizontalDatabase& db) {
  std::ostringstream out;
  eclat::write_text(db, out);
  return out.str();
}

/// Text lines the reader once accepted by dropping the rest of the line
/// or wrapping the id; each must now be rejected.
constexpr const char* kMalformedTextLines[] = {
    "1 2 x 3", "3 1.5 7", "1 99999999999 3", "-1 5", "4294967295"};

void feed(const std::string& bytes) {
  LLVMFuzzerTestOneInput(reinterpret_cast<const std::uint8_t*>(bytes.data()),
                         bytes.size());
}

/// Apply one of: truncation, byte flips, or a splice of random bytes —
/// the same mutation model as the wire fuzzer.
std::string mutate(std::string bytes, eclat::Rng& rng) {
  switch (rng.below(3)) {
    case 0:  // truncate
      if (!bytes.empty()) bytes.resize(rng.below(bytes.size()));
      break;
    case 1: {  // flip up to 8 bytes
      if (bytes.empty()) break;
      const std::size_t flips = 1 + rng.below(8);
      for (std::size_t f = 0; f < flips; ++f) {
        bytes[rng.below(bytes.size())] ^=
            static_cast<char>(1 + rng.below(255));
      }
      break;
    }
    default: {  // splice random garbage at a random offset
      const std::size_t at = bytes.empty() ? 0 : rng.below(bytes.size());
      std::string garbage(rng.below(24), '\0');
      for (char& byte : garbage) {
        byte = static_cast<char>(rng.below(256));
      }
      bytes.insert(at, garbage);
      break;
    }
  }
  return bytes;
}

}  // namespace

int main(int argc, char** argv) {
  const int iterations = argc > 1 ? std::atoi(argv[1]) : 2000;
  const std::uint64_t seed =
      argc > 2 ? std::strtoull(argv[2], nullptr, 0) : 0xECDB;
  for (const char* line : kMalformedTextLines) {
    const std::string bytes = std::string("0 1\n") + line + "\n";
    feed(bytes);
    bool rejected = false;
    try {
      std::istringstream in(bytes);
      (void)eclat::read_text(in);
    } catch (const std::runtime_error&) {
      rejected = true;
    }
    ECLAT_CHECK(rejected);
  }
  eclat::Rng rng(seed);
  for (int i = 0; i < iterations; ++i) {
    const eclat::HorizontalDatabase db = valid_db(rng);
    feed(mutate(serialize(db), rng));
    feed(mutate(serialize_text(db), rng));
  }
  std::printf("fuzz_io: %d binary + %d text seeded inputs, seed=0x%llx, "
              "no crashes\n",
              iterations, iterations, static_cast<unsigned long long>(seed));
  return 0;
}
#endif  // ECLAT_FUZZ_LIBFUZZER
