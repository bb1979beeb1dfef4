#include "data/horizontal.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <sstream>

#include "data/io.hpp"

namespace eclat {
namespace {

HorizontalDatabase tiny_db() {
  std::vector<Transaction> transactions = {
      {0, {1, 3, 4}},
      {1, {2, 3}},
      {2, {0, 1, 2, 3, 4}},
      {3, {4}},
  };
  return HorizontalDatabase(std::move(transactions), 5);
}

TEST(HorizontalDatabase, BasicAccessors) {
  const HorizontalDatabase db = tiny_db();
  EXPECT_EQ(db.size(), 4u);
  EXPECT_FALSE(db.empty());
  EXPECT_EQ(db.num_items(), 5u);
  EXPECT_EQ(db[2].items, (Itemset{0, 1, 2, 3, 4}));
}

TEST(HorizontalDatabase, RejectsUnsortedTransaction) {
  std::vector<Transaction> transactions = {{0, {3, 1}}};
  EXPECT_THROW(HorizontalDatabase(std::move(transactions), 5),
               std::invalid_argument);
}

TEST(HorizontalDatabase, RejectsDuplicateItems) {
  std::vector<Transaction> transactions = {{0, {1, 1}}};
  EXPECT_THROW(HorizontalDatabase(std::move(transactions), 5),
               std::invalid_argument);
}

TEST(HorizontalDatabase, RejectsOutOfRangeItem) {
  std::vector<Transaction> transactions = {{0, {1, 9}}};
  EXPECT_THROW(HorizontalDatabase(std::move(transactions), 5),
               std::invalid_argument);
}

TEST(HorizontalDatabase, AverageTransactionLength) {
  const HorizontalDatabase db = tiny_db();
  EXPECT_DOUBLE_EQ(db.average_transaction_length(), (3 + 2 + 5 + 1) / 4.0);
  EXPECT_DOUBLE_EQ(HorizontalDatabase().average_transaction_length(), 0.0);
}

TEST(HorizontalDatabase, ByteSizeMatchesBinaryFormat) {
  const HorizontalDatabase db = tiny_db();
  // per transaction: 4 (tid) + 4 (count) + 4*items
  EXPECT_EQ(db.byte_size(), 4u * 8 + (3 + 2 + 5 + 1) * 4);
}

TEST(HorizontalDatabase, BlockPartitionCoversEverythingOnce) {
  const HorizontalDatabase db = tiny_db();
  for (std::size_t parts : {1u, 2u, 3u, 4u, 7u}) {
    const std::vector<Block> blocks = db.block_partition(parts);
    ASSERT_EQ(blocks.size(), parts);
    std::size_t cursor = 0;
    for (const Block& block : blocks) {
      EXPECT_EQ(block.begin, cursor);
      cursor = block.end;
    }
    EXPECT_EQ(cursor, db.size());
  }
}

TEST(HorizontalDatabase, BlockPartitionIsBalanced) {
  std::vector<Transaction> transactions;
  for (Tid t = 0; t < 10; ++t) transactions.push_back({t, {0}});
  const HorizontalDatabase db(std::move(transactions), 1);
  const std::vector<Block> blocks = db.block_partition(3);
  EXPECT_EQ(blocks[0].size(), 4u);
  EXPECT_EQ(blocks[1].size(), 3u);
  EXPECT_EQ(blocks[2].size(), 3u);
}

TEST(HorizontalDatabase, BlockPartitionRejectsZeroParts) {
  EXPECT_THROW(tiny_db().block_partition(0), std::invalid_argument);
}

TEST(HorizontalDatabase, ViewReturnsBlockSpan) {
  const HorizontalDatabase db = tiny_db();
  const auto span = db.view(Block{1, 3});
  ASSERT_EQ(span.size(), 2u);
  EXPECT_EQ(span[0].tid, 1u);
  EXPECT_EQ(span[1].tid, 2u);
  EXPECT_THROW(db.view(Block{2, 9}), std::out_of_range);
}

TEST(Stats, ComputeStatsMatchesDatabase) {
  const DatabaseStats stats = compute_stats(tiny_db());
  EXPECT_EQ(stats.num_transactions, 4u);
  EXPECT_EQ(stats.num_items, 5u);
  EXPECT_DOUBLE_EQ(stats.avg_transaction_length, 2.75);
  EXPECT_GT(stats.byte_size, 0u);
}

TEST(Io, BinaryRoundTrip) {
  const HorizontalDatabase db = tiny_db();
  std::stringstream stream;
  write_binary(db, stream);
  const HorizontalDatabase copy = read_binary(stream);
  EXPECT_EQ(copy.num_items(), db.num_items());
  ASSERT_EQ(copy.size(), db.size());
  for (std::size_t i = 0; i < db.size(); ++i) {
    EXPECT_EQ(copy[i], db[i]);
  }
}

TEST(Io, BinaryRejectsGarbage) {
  std::stringstream stream("this is not a database");
  EXPECT_THROW(read_binary(stream), std::runtime_error);
}

TEST(Io, BinaryRejectsTruncation) {
  const HorizontalDatabase db = tiny_db();
  std::stringstream stream;
  write_binary(db, stream);
  std::string bytes = stream.str();
  bytes.resize(bytes.size() / 2);
  std::stringstream half(bytes);
  EXPECT_THROW(read_binary(half), std::runtime_error);
}

TEST(Io, TextRoundTrip) {
  const HorizontalDatabase db = tiny_db();
  std::stringstream stream;
  write_text(db, stream);
  const HorizontalDatabase copy = read_text(stream);
  ASSERT_EQ(copy.size(), db.size());
  for (std::size_t i = 0; i < db.size(); ++i) {
    EXPECT_EQ(copy[i].items, db[i].items);
  }
}

TEST(Io, TextSortsAndDeduplicates) {
  // Tabs, runs of blanks, a CRLF line end and a blank CRLF line all parse.
  std::stringstream stream("5 1\t3  1\r\n\r\n\t2 2\n");
  const HorizontalDatabase db = read_text(stream);
  ASSERT_EQ(db.size(), 2u);
  EXPECT_EQ(db[0].items, (Itemset{1, 3, 5}));
  EXPECT_EQ(db[1].items, (Itemset{2}));
  EXPECT_EQ(db.num_items(), 6u);
}

TEST(Io, TextHonorsMinNumItems) {
  std::stringstream stream("0\t1\r\n");
  const HorizontalDatabase db = read_text(stream, 100);
  EXPECT_EQ(db.num_items(), 100u);
}

TEST(Io, TextRejectsMalformedItemIds) {
  // Each bad line sits on line 2 of its input: the error must name that
  // line and the offending token instead of silently dropping the rest of
  // the line or wrapping the id.
  const std::pair<const char*, const char*> cases[] = {
      {"1 2 x 3", "'x'"},
      {"3 1.5 7", "'1.5'"},
      {"1 99999999999 3", "'99999999999'"},
      {"-1 5", "'-1'"},
      {"4294967295", "'4294967295'"},  // max item + 1 would overflow
  };
  for (const auto& [line, token] : cases) {
    std::stringstream stream(std::string("0 1\n") + line + "\n");
    try {
      (void)read_text(stream);
      ADD_FAILURE() << "accepted: " << line;
    } catch (const std::runtime_error& error) {
      const std::string message = error.what();
      EXPECT_NE(message.find("line 2"), std::string::npos) << message;
      EXPECT_NE(message.find(token), std::string::npos) << message;
    }
  }
  std::stringstream largest("4294967294\n");
  EXPECT_EQ(read_text(largest).num_items(), 4294967295u);
}

TEST(Io, FileRoundTrip) {
  const auto path =
      (std::filesystem::temp_directory_path() / "eclat_io_test.bin").string();
  const HorizontalDatabase db = tiny_db();
  write_binary_file(db, path);
  const HorizontalDatabase copy = read_binary_file(path);
  EXPECT_EQ(copy.size(), db.size());
  std::filesystem::remove(path);
}

TEST(Io, MissingFileThrows) {
  EXPECT_THROW(read_binary_file("/nonexistent/nope.bin"), std::runtime_error);
}

}  // namespace
}  // namespace eclat
