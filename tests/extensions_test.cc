// Tests for the library extensions: CLI flag parsing, dataset
// serialization, and the rating-prediction head (the paper's future-work
// task).

#include <cmath>

#include <gtest/gtest.h>

#include "core/rating.h"
#include "data/generator.h"
#include "data/serialization.h"
#include "utils/flags.h"
#include "utils/logging.h"

namespace pmmrec {
namespace {

// --- FlagParser -------------------------------------------------------------

TEST(FlagParserTest, ParsesAllForms) {
  const char* argv[] = {"tool",       "train",      "--epochs=5",
                        "--lr",       "0.01",       "--verbose",
                        "--out=a.ckpt"};
  FlagParser flags(7, argv);
  ASSERT_EQ(flags.positional().size(), 1u);
  EXPECT_EQ(flags.positional()[0], "train");
  EXPECT_EQ(flags.GetInt("epochs", 0), 5);
  EXPECT_DOUBLE_EQ(flags.GetDouble("lr", 0), 0.01);
  EXPECT_TRUE(flags.GetBool("verbose", false));
  EXPECT_EQ(flags.GetString("out"), "a.ckpt");
  EXPECT_FALSE(flags.Has("missing"));
  EXPECT_EQ(flags.GetInt("missing", 7), 7);
}

TEST(FlagParserTest, ReportsUnqueriedFlags) {
  const char* argv[] = {"tool", "--known=1", "--typo=2"};
  FlagParser flags(3, argv);
  flags.GetInt("known", 0);
  const auto unqueried = flags.UnqueriedFlags();
  ASSERT_EQ(unqueried.size(), 1u);
  EXPECT_EQ(unqueried[0], "typo");
}

TEST(FlagParserTest, BoolValueVariants) {
  const char* argv[] = {"tool", "--a=true", "--b=0", "--c=yes", "--d=false"};
  FlagParser flags(5, argv);
  EXPECT_TRUE(flags.GetBool("a", false));
  EXPECT_FALSE(flags.GetBool("b", true));
  EXPECT_TRUE(flags.GetBool("c", false));
  EXPECT_FALSE(flags.GetBool("d", true));
  EXPECT_TRUE(flags.InvalidFlags().empty());
}

TEST(FlagParserTest, RecordsValuesThatDoNotParse) {
  const char* argv[] = {"tool",      "--ann=on",  "--nprobe=abc",
                        "--topk=3x", "--lr=0.5q", "--no=no",
                        "--n=-4",    "--x=1e-3"};
  FlagParser flags(8, argv);
  EXPECT_TRUE(flags.GetBool("ann", true));  // the default
  EXPECT_EQ(flags.GetInt("nprobe", 7), 7);
  EXPECT_EQ(flags.GetInt("topk", 10), 10);
  EXPECT_DOUBLE_EQ(flags.GetDouble("lr", 0.25), 0.25);
  EXPECT_FALSE(flags.GetBool("no", true));
  EXPECT_EQ(flags.GetInt("n", 0), -4);
  EXPECT_DOUBLE_EQ(flags.GetDouble("x", 0), 1e-3);
  const std::vector<std::string>& invalid = flags.InvalidFlags();
  ASSERT_EQ(invalid.size(), 4u);
  EXPECT_NE(invalid[0].find("flag --ann"), std::string::npos) << invalid[0];
  EXPECT_NE(invalid[1].find("flag --nprobe"), std::string::npos) << invalid[1];
  EXPECT_NE(invalid[2].find("flag --topk"), std::string::npos) << invalid[2];
  EXPECT_NE(invalid[3].find("flag --lr"), std::string::npos) << invalid[3];
}

// --- Dataset serialization -----------------------------------------------------

Dataset SmallDataset() {
  SyntheticWorld world{WorldConfig{}};
  DatasetGenerator gen(&world);
  PlatformConfig pc;
  pc.name = "SerTest";
  pc.platform = "Kwai";
  pc.clusters = {2, 3};
  pc.n_items = 25;
  pc.n_users = 20;
  pc.seed = 9;
  return gen.Generate(pc);
}

TEST(DatasetSerializationTest, RoundTripPreservesEverything) {
  const Dataset original = SmallDataset();
  BinaryWriter writer;
  WriteDataset(original, &writer);
  BinaryReader reader(writer.buffer());
  Dataset restored;
  ASSERT_TRUE(ReadDataset(&reader, &restored).ok());

  EXPECT_EQ(restored.name, original.name);
  EXPECT_EQ(restored.platform, original.platform);
  EXPECT_EQ(restored.text_vocab_size, original.text_vocab_size);
  EXPECT_EQ(restored.sequences, original.sequences);
  ASSERT_EQ(restored.items.size(), original.items.size());
  for (size_t i = 0; i < original.items.size(); ++i) {
    EXPECT_EQ(restored.items[i].tokens, original.items[i].tokens);
    EXPECT_EQ(restored.items[i].patches, original.items[i].patches);
    EXPECT_EQ(restored.items[i].true_cluster, original.items[i].true_cluster);
    EXPECT_EQ(restored.items[i].true_latent, original.items[i].true_latent);
  }
}

TEST(DatasetSerializationTest, FileRoundTrip) {
  const Dataset original = SmallDataset();
  const std::string path = ::testing::TempDir() + "/pmmrec_ds.pmds";
  ASSERT_TRUE(SaveDatasetToFile(original, path).ok());
  Dataset restored;
  ASSERT_TRUE(LoadDatasetFromFile(path, &restored).ok());
  EXPECT_EQ(restored.sequences, original.sequences);
  EXPECT_FALSE(LoadDatasetFromFile(path + ".missing", &restored).ok());
}

TEST(DatasetSerializationTest, RejectsCorruptedData) {
  const Dataset original = SmallDataset();
  BinaryWriter writer;
  WriteDataset(original, &writer);
  // Truncated buffer.
  std::vector<uint8_t> truncated(writer.buffer().begin(),
                                 writer.buffer().begin() + 40);
  BinaryReader reader(std::move(truncated));
  Dataset restored;
  EXPECT_FALSE(ReadDataset(&reader, &restored).ok());
  // Wrong magic.
  BinaryWriter bad;
  bad.WriteU32(0xBADC0DE);
  BinaryReader bad_reader(bad.buffer());
  EXPECT_FALSE(ReadDataset(&bad_reader, &restored).ok());
}

// --- Rating prediction ------------------------------------------------------------

class RatingTest : public ::testing::Test {
 protected:
  RatingTest() : ds_(SmallRatingDataset()) {}

  static Dataset SmallRatingDataset() {
    SyntheticWorld world{WorldConfig{}};
    DatasetGenerator gen(&world);
    PlatformConfig pc;
    pc.name = "RatingTest";
    pc.platform = "HM";
    pc.clusters = {6, 7};
    pc.n_items = 40;
    pc.n_users = 60;
    pc.seed = 12;
    return gen.Generate(pc);
  }

  Dataset ds_;
};

TEST_F(RatingTest, GenerateRatingsIsValidAndSplit) {
  Rng rng(5);
  const RatingData data = GenerateRatings(ds_, 6, 0.3f, rng);
  EXPECT_FALSE(data.train.empty());
  EXPECT_FALSE(data.test.empty());
  const double total = static_cast<double>(data.train.size() +
                                           data.test.size());
  EXPECT_NEAR(data.train.size() / total, 0.8, 0.08);
  for (const auto& entry : data.train) {
    EXPECT_GE(entry.rating, 1.0f);
    EXPECT_LE(entry.rating, 5.0f);
    EXPECT_GE(entry.item, 0);
    EXPECT_LT(entry.item, ds_.num_items());
    EXPECT_GE(entry.user, 0);
    EXPECT_LT(entry.user, ds_.num_users());
  }
}

TEST_F(RatingTest, RatingsReflectContentAffinity) {
  // Higher-affinity (user taste, item) pairs must receive higher ratings
  // on average — the learnable signal of the task.
  Rng rng(6);
  const RatingData data = GenerateRatings(ds_, 10, 0.1f, rng);
  double lo_sum = 0, hi_sum = 0;
  int64_t lo_n = 0, hi_n = 0;
  for (const auto& e : data.train) {
    if (e.rating < 2.5f) {
      lo_sum += e.rating;
      ++lo_n;
    } else if (e.rating > 3.5f) {
      hi_sum += e.rating;
      ++hi_n;
    }
  }
  // Both tails must exist: ratings are not constant.
  EXPECT_GT(lo_n, 0);
  EXPECT_GT(hi_n, 0);
}

TEST_F(RatingTest, HeadLearnsToBeatMeanPredictor) {
  ScopedLogSilencer silence;
  PMMRecConfig config = PMMRecConfig::FromDataset(ds_);
  config.d_model = 16;
  PMMRecModel backbone(config, 3);
  // Brief backbone training so representations carry content signal.
  FitOptions opts;
  opts.max_epochs = 8;
  opts.eval_users = 30;
  FitModel(backbone, ds_, opts);

  Rng rng(7);
  const RatingData data = GenerateRatings(ds_, 12, 0.2f, rng);
  RatingHead head(&backbone, 11);
  head.Fit(data, /*epochs=*/40, /*lr=*/1e-2f);

  // Baseline: predict the global train mean.
  double mean = 0;
  for (const auto& e : data.train) mean += e.rating;
  mean /= static_cast<double>(data.train.size());
  double baseline_sq = 0;
  for (const auto& e : data.test) {
    baseline_sq += (e.rating - mean) * (e.rating - mean);
  }
  const double baseline_rmse =
      std::sqrt(baseline_sq / static_cast<double>(data.test.size()));

  const double head_rmse = head.Rmse(data.test);
  EXPECT_LT(head_rmse, baseline_rmse);

  // Predict() runs end-to-end.
  const float pred = head.Predict(ds_.TrainSeq(0), 3);
  EXPECT_TRUE(std::isfinite(pred));
}

}  // namespace
}  // namespace pmmrec
