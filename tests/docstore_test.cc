#include <gtest/gtest.h>

#include <cstdio>
#include <map>
#include <set>

#include "common/crc32.h"
#include "common/random.h"
#include "docstore/aggregate.h"
#include "docstore/btree.h"
#include "docstore/collection.h"
#include "docstore/database.h"
#include "docstore/filter.h"
#include "docstore/wal.h"
#include "docstore/value.h"

namespace agoraeo::docstore {
namespace {

Document MakePatchDoc(const std::string& name, double lat, double lon,
                      std::vector<std::string> labels,
                      const std::string& country, int64_t date_ordinal) {
  Document doc;
  doc.Set("name", Value(name));
  Document location;
  location.Set("min_lat", Value(lat));
  location.Set("min_lon", Value(lon));
  location.Set("max_lat", Value(lat + 0.01));
  location.Set("max_lon", Value(lon + 0.01));
  doc.Set("location", Value(std::move(location)));
  Document properties;
  properties.Set("labels", MakeStringArray(labels));
  properties.Set("country", Value(country));
  properties.Set("date_ordinal", Value(date_ordinal));
  doc.Set("properties", Value(std::move(properties)));
  return doc;
}

// ---------------------------------------------------------------------------
// Value / Document
// ---------------------------------------------------------------------------

TEST(ValueTest, TypesAndAccessors) {
  EXPECT_TRUE(Value().is_null());
  EXPECT_TRUE(Value(true).is_bool());
  EXPECT_TRUE(Value(42).is_int64());
  EXPECT_TRUE(Value(2.5).is_double());
  EXPECT_TRUE(Value("x").is_string());
  EXPECT_TRUE(Value(std::vector<uint8_t>{1}).is_binary());
  EXPECT_TRUE(MakeArray({Value(1)}).is_array());
  EXPECT_TRUE(Value(Document()).is_document());
  EXPECT_EQ(Value(42).as_int64(), 42);
  EXPECT_EQ(Value(2.5).as_double(), 2.5);
  EXPECT_EQ(Value("hi").as_string(), "hi");
}

TEST(ValueTest, NumericCrossTypeEquality) {
  EXPECT_EQ(Value(1), Value(1.0));
  EXPECT_NE(Value(1), Value(1.5));
  EXPECT_EQ(Value(0).as_number(), Value(0.0).as_number());
}

TEST(ValueTest, CompareTotalOrder) {
  EXPECT_LT(Value(), Value(false));       // null < bool
  EXPECT_LT(Value(true), Value(0));       // bool < number
  EXPECT_LT(Value(5), Value("a"));        // number < string
  EXPECT_LT(Value("a"), Value("b"));
  EXPECT_LT(Value(1), Value(2));
  EXPECT_LT(Value(1.5), Value(2));
}

TEST(ValueTest, ArrayComparison) {
  Value a = MakeArray({Value(1), Value(2)});
  Value b = MakeArray({Value(1), Value(3)});
  Value c = MakeArray({Value(1), Value(2), Value(0)});
  EXPECT_LT(a, b);
  EXPECT_LT(a, c);  // prefix sorts first
  EXPECT_EQ(a, MakeArray({Value(1), Value(2)}));
}

TEST(ValueTest, IndexKeyDistinguishesTypes) {
  EXPECT_NE(Value(1).IndexKey(), Value("1").IndexKey());
  EXPECT_EQ(Value(1).IndexKey(), Value(1.0).IndexKey());  // numeric unify
  EXPECT_NE(Value(true).IndexKey(), Value(1).IndexKey());
}

TEST(DocumentTest, SetGetRemove) {
  Document doc;
  doc.Set("b", Value(2));
  doc.Set("a", Value(1));
  doc.Set("a", Value(10));  // replace
  EXPECT_EQ(doc.size(), 2u);
  EXPECT_EQ(doc.Get("a")->as_int64(), 10);
  EXPECT_EQ(doc.Get("missing"), nullptr);
  doc.Remove("a");
  EXPECT_FALSE(doc.Has("a"));
  doc.Remove("never_there");  // no-op
  EXPECT_EQ(doc.size(), 1u);
}

TEST(DocumentTest, FieldsAreSorted) {
  Document doc;
  doc.Set("zebra", Value(1));
  doc.Set("apple", Value(2));
  doc.Set("mango", Value(3));
  EXPECT_EQ(doc.fields()[0].first, "apple");
  EXPECT_EQ(doc.fields()[2].first, "zebra");
}

TEST(DocumentTest, GetPathTraversesNestedDocuments) {
  Document doc = MakePatchDoc("p1", 40.0, -8.0, {"A"}, "Portugal", 100);
  ASSERT_NE(doc.GetPath("properties.country"), nullptr);
  EXPECT_EQ(doc.GetPath("properties.country")->as_string(), "Portugal");
  EXPECT_EQ(doc.GetPath("location.min_lat")->as_double(), 40.0);
  EXPECT_EQ(doc.GetPath("properties.missing"), nullptr);
  EXPECT_EQ(doc.GetPath("name.sub"), nullptr);  // string is not a document
  EXPECT_EQ(doc.GetPath("nothing.at.all"), nullptr);
}

TEST(DocumentTest, EqualityIsDeep) {
  Document a = MakePatchDoc("p", 1, 2, {"A", "B"}, "Serbia", 5);
  Document b = MakePatchDoc("p", 1, 2, {"A", "B"}, "Serbia", 5);
  Document c = MakePatchDoc("p", 1, 2, {"A"}, "Serbia", 5);
  EXPECT_TRUE(a == b);
  EXPECT_FALSE(a == c);
}

// ---------------------------------------------------------------------------
// Filters
// ---------------------------------------------------------------------------

TEST(FilterTest, TrueMatchesEverything) {
  EXPECT_TRUE(Filter::True().Matches(Document()));
}

TEST(FilterTest, EqOnScalarAndMissing) {
  Document doc = MakePatchDoc("p", 1, 2, {"A"}, "Serbia", 5);
  EXPECT_TRUE(Filter::Eq("properties.country", Value("Serbia")).Matches(doc));
  EXPECT_FALSE(Filter::Eq("properties.country", Value("Kosovo")).Matches(doc));
  EXPECT_FALSE(Filter::Eq("properties.absent", Value(1)).Matches(doc));
}

TEST(FilterTest, EqOnArrayMatchesAnyElement) {
  Document doc = MakePatchDoc("p", 1, 2, {"A", "F"}, "Serbia", 5);
  EXPECT_TRUE(Filter::Eq("properties.labels", Value("F")).Matches(doc));
  EXPECT_FALSE(Filter::Eq("properties.labels", Value("Z")).Matches(doc));
}

TEST(FilterTest, NeSemantics) {
  Document doc = MakePatchDoc("p", 1, 2, {"A"}, "Serbia", 5);
  EXPECT_TRUE(Filter::Ne("properties.country", Value("Kosovo")).Matches(doc));
  EXPECT_FALSE(Filter::Ne("properties.country", Value("Serbia")).Matches(doc));
  // Missing fields are "not equal".
  EXPECT_TRUE(Filter::Ne("properties.absent", Value(1)).Matches(doc));
}

TEST(FilterTest, InMatchesMembership) {
  Document doc = MakePatchDoc("p", 1, 2, {"A", "C"}, "Serbia", 5);
  EXPECT_TRUE(
      Filter::In("properties.labels", {Value("X"), Value("C")}).Matches(doc));
  EXPECT_FALSE(
      Filter::In("properties.labels", {Value("X"), Value("Y")}).Matches(doc));
  EXPECT_TRUE(Filter::In("properties.country", {Value("Serbia")}).Matches(doc));
}

TEST(FilterTest, AllRequiresEveryElement) {
  Document doc = MakePatchDoc("p", 1, 2, {"A", "C", "F"}, "Serbia", 5);
  EXPECT_TRUE(
      Filter::All("properties.labels", {Value("A"), Value("F")}).Matches(doc));
  EXPECT_FALSE(
      Filter::All("properties.labels", {Value("A"), Value("Z")}).Matches(doc));
  // Scalar field: $all with one element behaves like Eq.
  EXPECT_TRUE(
      Filter::All("properties.country", {Value("Serbia")}).Matches(doc));
  EXPECT_FALSE(
      Filter::All("properties.country", {Value("Serbia"), Value("X")})
          .Matches(doc));
}

TEST(FilterTest, SizeMatchesArrayLength) {
  Document doc = MakePatchDoc("p", 1, 2, {"A", "C"}, "Serbia", 5);
  EXPECT_TRUE(Filter::Size("properties.labels", 2).Matches(doc));
  EXPECT_FALSE(Filter::Size("properties.labels", 3).Matches(doc));
  EXPECT_FALSE(Filter::Size("properties.country", 1).Matches(doc));
}

TEST(FilterTest, ExistsChecksPresence) {
  Document doc = MakePatchDoc("p", 1, 2, {"A"}, "Serbia", 5);
  EXPECT_TRUE(Filter::Exists("properties.labels").Matches(doc));
  EXPECT_FALSE(Filter::Exists("properties.ghost").Matches(doc));
}

TEST(FilterTest, RangeOperators) {
  Document doc = MakePatchDoc("p", 1, 2, {"A"}, "Serbia", 100);
  const char* path = "properties.date_ordinal";
  EXPECT_TRUE(Filter::Gt(path, Value(99)).Matches(doc));
  EXPECT_FALSE(Filter::Gt(path, Value(100)).Matches(doc));
  EXPECT_TRUE(Filter::Gte(path, Value(100)).Matches(doc));
  EXPECT_TRUE(Filter::Lt(path, Value(101)).Matches(doc));
  EXPECT_FALSE(Filter::Lt(path, Value(100)).Matches(doc));
  EXPECT_TRUE(Filter::Lte(path, Value(100)).Matches(doc));
  // Cross-type numeric comparison.
  EXPECT_TRUE(Filter::Gt(path, Value(99.5)).Matches(doc));
}

TEST(FilterTest, BooleanCombinators) {
  Document doc = MakePatchDoc("p", 1, 2, {"A"}, "Serbia", 100);
  Filter serbia = Filter::Eq("properties.country", Value("Serbia"));
  Filter kosovo = Filter::Eq("properties.country", Value("Kosovo"));
  EXPECT_TRUE(Filter::And({serbia, Filter::Gt("properties.date_ordinal",
                                              Value(50))})
                  .Matches(doc));
  EXPECT_FALSE(Filter::And({serbia, kosovo}).Matches(doc));
  EXPECT_TRUE(Filter::Or({kosovo, serbia}).Matches(doc));
  EXPECT_FALSE(Filter::Or({kosovo, kosovo}).Matches(doc));
  EXPECT_TRUE(Filter::Not(kosovo).Matches(doc));
  EXPECT_FALSE(Filter::Not(serbia).Matches(doc));
}

TEST(FilterTest, GeoIntersects) {
  Document doc = MakePatchDoc("p", 40.0, -8.0, {"A"}, "Portugal", 5);
  geo::BoundingBox hit{{39.9, -8.1}, {40.1, -7.9}};
  geo::BoundingBox miss{{50, 0}, {51, 1}};
  EXPECT_TRUE(Filter::GeoIntersects("location", hit).Matches(doc));
  EXPECT_FALSE(Filter::GeoIntersects("location", miss).Matches(doc));
  // A document without location never matches.
  EXPECT_FALSE(Filter::GeoIntersects("location", hit).Matches(Document()));
}

TEST(FilterTest, GeoWithinCircleAndPolygon) {
  Document doc = MakePatchDoc("p", 40.0, -8.0, {"A"}, "Portugal", 5);
  geo::Circle near{{40.0, -8.0}, 5000};
  geo::Circle far{{45.0, 5.0}, 5000};
  EXPECT_TRUE(Filter::GeoWithinCircle("location", near).Matches(doc));
  EXPECT_FALSE(Filter::GeoWithinCircle("location", far).Matches(doc));

  geo::Polygon triangle{{{39, -9}, {41, -9}, {40, -7}}};
  EXPECT_TRUE(Filter::GeoWithinPolygon("location", triangle).Matches(doc));
  geo::Polygon elsewhere{{{50, 0}, {51, 0}, {50, 1}}};
  EXPECT_FALSE(Filter::GeoWithinPolygon("location", elsewhere).Matches(doc));
}

TEST(FilterTest, ToStringIsInformative) {
  Filter f = Filter::And({Filter::Eq("a", Value(1)),
                          Filter::In("b", {Value("x")})});
  const std::string s = f.ToString();
  EXPECT_NE(s.find("And"), std::string::npos);
  EXPECT_NE(s.find("Eq(a"), std::string::npos);
  EXPECT_NE(s.find("In(b"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Collection basics
// ---------------------------------------------------------------------------

TEST(CollectionTest, InsertAssignsIncreasingIds) {
  Collection coll("test");
  auto id1 = coll.Insert(MakePatchDoc("a", 1, 2, {"A"}, "Serbia", 1));
  auto id2 = coll.Insert(MakePatchDoc("b", 1, 2, {"A"}, "Serbia", 2));
  ASSERT_TRUE(id1.ok() && id2.ok());
  EXPECT_LT(*id1, *id2);
  EXPECT_EQ(coll.size(), 2u);
  EXPECT_NE(coll.Get(*id1), nullptr);
  EXPECT_EQ(coll.Get(9999), nullptr);
}

TEST(CollectionTest, RemoveAndUpdate) {
  Collection coll("test");
  auto id = *coll.Insert(MakePatchDoc("a", 1, 2, {"A"}, "Serbia", 1));
  ASSERT_TRUE(coll.Update(id, MakePatchDoc("a", 1, 2, {"B"}, "Kosovo", 1)).ok());
  EXPECT_EQ(coll.Get(id)->GetPath("properties.country")->as_string(),
            "Kosovo");
  ASSERT_TRUE(coll.Remove(id).ok());
  EXPECT_TRUE(coll.Remove(id).IsNotFound());
  EXPECT_TRUE(coll.Update(id, Document()).IsNotFound());
  EXPECT_EQ(coll.size(), 0u);
}

TEST(CollectionTest, FindWithLimitAndCount) {
  Collection coll("test");
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(coll.Insert(MakePatchDoc("p" + std::to_string(i), 1, 2,
                                         {i % 2 == 0 ? "A" : "B"}, "Serbia",
                                         i))
                    .ok());
  }
  Filter evens = Filter::Eq("properties.labels", Value("A"));
  EXPECT_EQ(coll.Count(evens), 10u);
  EXPECT_EQ(coll.FindIds(evens, 3).size(), 3u);
  EXPECT_EQ(coll.Find(evens).size(), 10u);
}

TEST(CollectionTest, FindOneIdNotFound) {
  Collection coll("test");
  EXPECT_TRUE(
      coll.FindOneId(Filter::Eq("name", Value("ghost"))).status().IsNotFound());
}

// ---------------------------------------------------------------------------
// Unique index
// ---------------------------------------------------------------------------

TEST(UniqueIndexTest, RejectsDuplicates) {
  Collection coll("test");
  ASSERT_TRUE(coll.CreateHashIndex("name", /*unique=*/true).ok());
  ASSERT_TRUE(coll.Insert(MakePatchDoc("a", 1, 2, {"A"}, "Serbia", 1)).ok());
  auto dup = coll.Insert(MakePatchDoc("a", 3, 4, {"B"}, "Kosovo", 2));
  EXPECT_TRUE(dup.status().IsAlreadyExists());
  EXPECT_EQ(coll.size(), 1u);  // rejected insert left no trace
}

TEST(UniqueIndexTest, AllowsReinsertAfterRemove) {
  Collection coll("test");
  ASSERT_TRUE(coll.CreateHashIndex("name", true).ok());
  auto id = *coll.Insert(MakePatchDoc("a", 1, 2, {"A"}, "Serbia", 1));
  ASSERT_TRUE(coll.Remove(id).ok());
  EXPECT_TRUE(coll.Insert(MakePatchDoc("a", 1, 2, {"A"}, "Serbia", 1)).ok());
}

TEST(UniqueIndexTest, UpdateToExistingKeyRejected) {
  Collection coll("test");
  ASSERT_TRUE(coll.CreateHashIndex("name", true).ok());
  ASSERT_TRUE(coll.Insert(MakePatchDoc("a", 1, 2, {"A"}, "Serbia", 1)).ok());
  auto id_b = *coll.Insert(MakePatchDoc("b", 1, 2, {"A"}, "Serbia", 1));
  EXPECT_TRUE(coll.Update(id_b, MakePatchDoc("a", 1, 2, {"A"}, "Serbia", 1))
                  .IsAlreadyExists());
  // Self-update keeping the key is fine.
  EXPECT_TRUE(coll.Update(id_b, MakePatchDoc("b", 9, 9, {"C"}, "Kosovo", 2))
                  .ok());
}

TEST(UniqueIndexTest, CreateOnExistingDataWithDuplicatesFails) {
  Collection coll("test");
  ASSERT_TRUE(coll.Insert(MakePatchDoc("a", 1, 2, {"A"}, "Serbia", 1)).ok());
  ASSERT_TRUE(coll.Insert(MakePatchDoc("a", 3, 4, {"B"}, "Kosovo", 2)).ok());
  EXPECT_FALSE(coll.CreateHashIndex("name", true).ok());
}

// ---------------------------------------------------------------------------
// Query planning
// ---------------------------------------------------------------------------

class PlannerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    coll_ = std::make_unique<Collection>("metadata");
    Rng rng(61);
    const char* countries[] = {"Serbia", "Portugal", "Finland"};
    for (int i = 0; i < 500; ++i) {
      std::vector<std::string> labels;
      labels.push_back(std::string(1, static_cast<char>('A' + i % 7)));
      if (i % 3 == 0) labels.push_back("Z");
      const double lat = 40.0 + (i % 50) * 0.1;
      const double lon = -8.0 + (i / 50) * 0.1;
      ASSERT_TRUE(coll_->Insert(MakePatchDoc("p" + std::to_string(i), lat,
                                             lon, labels,
                                             countries[i % 3], i))
                      .ok());
    }
    ASSERT_TRUE(coll_->CreateHashIndex("name", true).ok());
    ASSERT_TRUE(coll_->CreateMultikeyIndex("properties.labels").ok());
    ASSERT_TRUE(coll_->CreateGeoIndex("location", 5).ok());
  }

  std::unique_ptr<Collection> coll_;
};

TEST_F(PlannerTest, EqOnPrimaryKeyUsesHashIndex) {
  QueryStats stats;
  auto ids = coll_->FindIds(Filter::Eq("name", Value("p123")), 0, &stats);
  ASSERT_EQ(ids.size(), 1u);
  EXPECT_EQ(stats.plan, "IXSCAN(hash:name)");
  EXPECT_EQ(stats.docs_examined, 1u);
}

TEST_F(PlannerTest, LabelEqUsesMultikeyIndex) {
  QueryStats stats;
  auto ids =
      coll_->FindIds(Filter::Eq("properties.labels", Value("Z")), 0, &stats);
  EXPECT_EQ(stats.plan, "IXSCAN(multikey:properties.labels)");
  EXPECT_EQ(ids.size(), 167u);  // ceil(500/3)
  EXPECT_EQ(stats.docs_examined, ids.size());  // no false candidates
}

TEST_F(PlannerTest, LabelAllIntersectsPostingLists) {
  QueryStats stats;
  auto ids = coll_->FindIds(
      Filter::All("properties.labels", {Value("A"), Value("Z")}), 0, &stats);
  EXPECT_EQ(stats.plan, "IXSCAN(multikey:properties.labels)");
  // i % 7 == 0 and i % 3 == 0 -> i % 21 == 0 -> 24 docs in [0, 500).
  EXPECT_EQ(ids.size(), 24u);
}

TEST_F(PlannerTest, LabelInUnionsPostingLists) {
  QueryStats stats;
  auto ids = coll_->FindIds(
      Filter::In("properties.labels", {Value("A"), Value("B")}), 0, &stats);
  EXPECT_EQ(stats.plan, "IXSCAN(multikey:properties.labels)");
  // i%7==0 (72) + i%7==1 (72) -> 144.
  EXPECT_EQ(ids.size(), 144u);
}

TEST_F(PlannerTest, GeoQueryUsesGeoIndex) {
  QueryStats stats;
  geo::BoundingBox box{{40.0, -8.0}, {40.5, -7.8}};
  auto ids = coll_->FindIds(Filter::GeoIntersects("location", box), 0, &stats);
  EXPECT_EQ(stats.plan, "IXSCAN(geo:location)");
  EXPECT_FALSE(ids.empty());
  // Index candidates must be a superset but far less than the collection.
  EXPECT_GE(stats.index_candidates, ids.size());
  EXPECT_LT(stats.index_candidates, coll_->size());
  // Cross-check against a full scan.
  Collection unindexed("scan");
  for (const auto& [id, doc] : coll_->docs()) {
    Document copy = doc;
    ASSERT_TRUE(unindexed.Insert(std::move(copy)).ok());
  }
  QueryStats scan_stats;
  auto scan_ids =
      unindexed.FindIds(Filter::GeoIntersects("location", box), 0, &scan_stats);
  EXPECT_EQ(scan_stats.plan, "COLLSCAN");
  EXPECT_EQ(ids.size(), scan_ids.size());
}

TEST_F(PlannerTest, ConjunctionPicksCheapestIndex) {
  QueryStats stats;
  // name Eq has 1 candidate; label Eq has ~70: planner must pick name.
  auto ids = coll_->FindIds(
      Filter::And({Filter::Eq("properties.labels", Value("A")),
                   Filter::Eq("name", Value("p7"))}),
      0, &stats);
  // The cheapest list drives; the label list is probed in place.
  EXPECT_EQ(stats.plan, "IXAND(hash:name, multikey:properties.labels)");
  EXPECT_EQ(stats.index_candidates, 1u);
  ASSERT_EQ(ids.size(), 1u);
}

TEST_F(PlannerTest, NonIndexableFilterFallsBackToScan) {
  QueryStats stats;
  auto ids = coll_->FindIds(
      Filter::Eq("properties.country", Value("Serbia")), 0, &stats);
  EXPECT_EQ(stats.plan, "COLLSCAN");
  EXPECT_EQ(ids.size(), 167u);
  EXPECT_EQ(stats.docs_examined, coll_->size());
}

TEST_F(PlannerTest, IndexAndScanAgreeOnComplexQuery) {
  Filter filter = Filter::And(
      {Filter::In("properties.labels", {Value("A"), Value("C")}),
       Filter::Gte("properties.date_ordinal", Value(100)),
       Filter::Lt("properties.date_ordinal", Value(400))});
  QueryStats stats;
  auto indexed = coll_->FindIds(filter, 0, &stats);
  EXPECT_NE(stats.plan, "COLLSCAN");
  // Reference: evaluate filter on all docs directly.
  std::vector<DocId> reference;
  for (const auto& [id, doc] : coll_->docs()) {
    if (filter.Matches(doc)) reference.push_back(id);
  }
  EXPECT_EQ(indexed, reference);
}

TEST_F(PlannerTest, CountByArrayFieldAggregates) {
  auto counts = coll_->CountByArrayField("properties.labels", Filter::True());
  // 500 docs: labels A..G get ~71-72 each, Z gets 167.
  EXPECT_EQ(counts["Z"], 167u);
  size_t total = 0;
  for (const auto& [key, n] : counts) total += n;
  EXPECT_EQ(total, 500u + 167u);
}

TEST(IndexMaintenanceTest, RemoveUpdatesIndexes) {
  Collection coll("test");
  ASSERT_TRUE(coll.CreateMultikeyIndex("properties.labels").ok());
  auto id = *coll.Insert(MakePatchDoc("a", 1, 2, {"A", "B"}, "Serbia", 1));
  ASSERT_TRUE(coll.Remove(id).ok());
  QueryStats stats;
  auto ids =
      coll.FindIds(Filter::Eq("properties.labels", Value("A")), 0, &stats);
  EXPECT_TRUE(ids.empty());
  EXPECT_EQ(stats.index_candidates, 0u);
}

TEST(IndexMaintenanceTest, UpdateMovesDocBetweenPostingLists) {
  Collection coll("test");
  ASSERT_TRUE(coll.CreateMultikeyIndex("properties.labels").ok());
  auto id = *coll.Insert(MakePatchDoc("a", 1, 2, {"A"}, "Serbia", 1));
  ASSERT_TRUE(coll.Update(id, MakePatchDoc("a", 1, 2, {"B"}, "Serbia", 1)).ok());
  EXPECT_TRUE(coll.FindIds(Filter::Eq("properties.labels", Value("A"))).empty());
  EXPECT_EQ(coll.FindIds(Filter::Eq("properties.labels", Value("B"))).size(),
            1u);
}

TEST(IndexCreationTest, DuplicateIndexRejected) {
  Collection coll("test");
  ASSERT_TRUE(coll.CreateHashIndex("name").ok());
  EXPECT_TRUE(coll.CreateHashIndex("name").IsAlreadyExists());
  ASSERT_TRUE(coll.CreateMultikeyIndex("labels").ok());
  EXPECT_TRUE(coll.CreateMultikeyIndex("labels").IsAlreadyExists());
  ASSERT_TRUE(coll.CreateGeoIndex("location").ok());
  EXPECT_TRUE(coll.CreateGeoIndex("location").IsAlreadyExists());
  EXPECT_TRUE(coll.CreateGeoIndex("loc2", 99).IsInvalidArgument());
}

// ---------------------------------------------------------------------------
// Database + persistence
// ---------------------------------------------------------------------------

TEST(DatabaseTest, CollectionLifecycle) {
  Database db;
  Collection* a = db.GetOrCreateCollection("metadata");
  EXPECT_EQ(a, db.GetOrCreateCollection("metadata"));
  EXPECT_EQ(db.GetCollection("metadata"), a);
  EXPECT_EQ(db.GetCollection("ghost"), nullptr);
  EXPECT_EQ(db.NumCollections(), 1u);
  EXPECT_TRUE(db.DropCollection("metadata").ok());
  EXPECT_TRUE(db.DropCollection("metadata").IsNotFound());
}

TEST(DatabaseTest, SaveLoadRoundTrip) {
  const std::string path = "/tmp/agoraeo_db_test.bin";
  {
    Database db;
    Collection* meta = db.GetOrCreateCollection("metadata");
    ASSERT_TRUE(meta->CreateHashIndex("name", true).ok());
    ASSERT_TRUE(meta->CreateMultikeyIndex("properties.labels").ok());
    ASSERT_TRUE(meta->CreateGeoIndex("location", 5).ok());
    for (int i = 0; i < 50; ++i) {
      ASSERT_TRUE(meta->Insert(MakePatchDoc("p" + std::to_string(i),
                                            40.0 + i * 0.01, -8.0,
                                            {"A", "B"}, "Portugal", i))
                      .ok());
    }
    Collection* feedback = db.GetOrCreateCollection("feedback");
    Document f;
    f.Set("text", Value("great demo"));
    ASSERT_TRUE(feedback->Insert(std::move(f)).ok());
    ASSERT_TRUE(db.SaveToFile(path).ok());
  }
  {
    Database db;
    ASSERT_TRUE(db.LoadFromFile(path).ok());
    EXPECT_EQ(db.NumCollections(), 2u);
    Collection* meta = db.GetCollection("metadata");
    ASSERT_NE(meta, nullptr);
    EXPECT_EQ(meta->size(), 50u);
    // Indexes were rebuilt: a PK lookup must use them.
    QueryStats stats;
    auto ids = meta->FindIds(Filter::Eq("name", Value("p17")), 0, &stats);
    EXPECT_EQ(ids.size(), 1u);
    EXPECT_EQ(stats.plan, "IXSCAN(hash:name)");
    // Unique constraint survives.
    EXPECT_TRUE(meta->Insert(MakePatchDoc("p17", 0, 0, {"A"}, "x", 0))
                    .status()
                    .IsAlreadyExists());
  }
  std::remove(path.c_str());
}

TEST(DatabaseTest, LoadRejectsGarbageFile) {
  const std::string path = "/tmp/agoraeo_db_garbage.bin";
  ASSERT_TRUE(WriteFileBytes(path, {1, 2, 3, 4, 5, 6, 7, 8, 9}).ok());
  Database db;
  EXPECT_TRUE(db.LoadFromFile(path).IsCorruption());
  std::remove(path.c_str());
}

TEST(SerializationTest, ValueRoundTripAllTypes) {
  Document nested;
  nested.Set("k", Value(1.5));
  std::vector<Value> values = {
      Value(), Value(true), Value(int64_t{-42}), Value(3.14),
      Value("text"), Value(std::vector<uint8_t>{0, 255, 7}),
      MakeArray({Value(1), Value("two"), MakeArray({Value(3)})}),
      Value(nested)};
  for (const Value& original : values) {
    ByteWriter w;
    SerializeValue(original, &w);
    ByteReader r(w.data());
    auto back = DeserializeValue(&r);
    ASSERT_TRUE(back.ok()) << original.ToString();
    EXPECT_EQ(*back, original) << original.ToString();
    EXPECT_TRUE(r.exhausted());
  }
}


// ---------------------------------------------------------------------------
// BPlusTree
// ---------------------------------------------------------------------------

TEST(BPlusTreeTest, EmptyTree) {
  BPlusTree tree;
  EXPECT_EQ(tree.num_keys(), 0u);
  EXPECT_EQ(tree.height(), 1u);
  EXPECT_EQ(tree.Find(Value(1)), nullptr);
  EXPECT_TRUE(tree.ScanIds(nullptr, true, nullptr, true).empty());
  EXPECT_EQ(tree.CheckInvariants(), "");
}

TEST(BPlusTreeTest, InsertFindSingle) {
  BPlusTree tree;
  tree.Insert(Value("2017-06-13"), 7);
  ASSERT_NE(tree.Find(Value("2017-06-13")), nullptr);
  EXPECT_EQ(*tree.Find(Value("2017-06-13")), std::vector<DocId>{7});
  EXPECT_EQ(tree.Find(Value("2017-06-14")), nullptr);
}

TEST(BPlusTreeTest, DuplicateInsertStoredOnce) {
  BPlusTree tree;
  tree.Insert(Value(5), 1);
  tree.Insert(Value(5), 1);
  tree.Insert(Value(5), 2);
  ASSERT_NE(tree.Find(Value(5)), nullptr);
  EXPECT_EQ(tree.Find(Value(5))->size(), 2u);
  EXPECT_EQ(tree.num_keys(), 1u);
}

TEST(BPlusTreeTest, SplitsGrowHeight) {
  BPlusTree tree(4);  // tiny order to force splits early
  for (int i = 0; i < 100; ++i) tree.Insert(Value(i), static_cast<DocId>(i));
  EXPECT_EQ(tree.num_keys(), 100u);
  EXPECT_GT(tree.height(), 2u);
  EXPECT_EQ(tree.CheckInvariants(), "");
  for (int i = 0; i < 100; ++i) {
    ASSERT_NE(tree.Find(Value(i)), nullptr) << i;
  }
}

TEST(BPlusTreeTest, ScanFullAscending) {
  BPlusTree tree(4);
  // Insert in a scrambled order; scan must come back sorted.
  for (int i = 0; i < 50; ++i) {
    const int k = (i * 37) % 50;
    tree.Insert(Value(k), static_cast<DocId>(k));
  }
  std::vector<DocId> ids = tree.ScanIds(nullptr, true, nullptr, true);
  ASSERT_EQ(ids.size(), 50u);
  for (size_t i = 0; i < ids.size(); ++i) EXPECT_EQ(ids[i], i);
}

TEST(BPlusTreeTest, BoundedScansRespectInclusivity) {
  BPlusTree tree(4);
  for (int i = 0; i < 20; ++i) tree.Insert(Value(i), static_cast<DocId>(i));
  const Value lo(5), hi(10);
  EXPECT_EQ(tree.ScanIds(&lo, true, &hi, true).size(), 6u);    // [5,10]
  EXPECT_EQ(tree.ScanIds(&lo, false, &hi, true).size(), 5u);   // (5,10]
  EXPECT_EQ(tree.ScanIds(&lo, true, &hi, false).size(), 5u);   // [5,10)
  EXPECT_EQ(tree.ScanIds(&lo, false, &hi, false).size(), 4u);  // (5,10)
  const Value missing_lo(-3), missing_hi(100);
  EXPECT_EQ(tree.ScanIds(&missing_lo, true, &missing_hi, true).size(), 20u);
}

TEST(BPlusTreeTest, EmptyIntervalScans) {
  BPlusTree tree(4);
  for (int i = 0; i < 10; ++i) tree.Insert(Value(i * 2), static_cast<DocId>(i));
  const Value a(3), b(3);
  EXPECT_TRUE(tree.ScanIds(&a, true, &b, true).empty());  // between keys
  const Value lo(8), hi(4);
  EXPECT_TRUE(tree.ScanIds(&lo, true, &hi, true).empty());  // inverted
}

TEST(BPlusTreeTest, RemoveMergesAndShrinks) {
  BPlusTree tree(4);
  for (int i = 0; i < 200; ++i) tree.Insert(Value(i), static_cast<DocId>(i));
  const size_t tall = tree.height();
  for (int i = 0; i < 200; ++i) {
    EXPECT_TRUE(tree.Remove(Value(i), static_cast<DocId>(i))) << i;
    ASSERT_EQ(tree.CheckInvariants(), "") << "after removing " << i;
  }
  EXPECT_EQ(tree.num_keys(), 0u);
  EXPECT_LT(tree.height(), tall);
  EXPECT_FALSE(tree.Remove(Value(0), 0));  // already gone
}

TEST(BPlusTreeTest, RemoveMissingReturnsFalse) {
  BPlusTree tree;
  tree.Insert(Value(1), 10);
  EXPECT_FALSE(tree.Remove(Value(2), 10));   // absent key
  EXPECT_FALSE(tree.Remove(Value(1), 11));   // absent id under present key
  EXPECT_TRUE(tree.Remove(Value(1), 10));
}

TEST(BPlusTreeTest, MixedTypeKeysOrderByTypeRank) {
  BPlusTree tree(4);
  tree.Insert(Value(2), 1);
  tree.Insert(Value("alpha"), 2);
  tree.Insert(Value(true), 3);
  tree.Insert(Value(1.5), 4);
  EXPECT_EQ(tree.num_keys(), 4u);
  EXPECT_EQ(tree.CheckInvariants(), "");
  // Full scan is total-order consistent (Value::Compare).
  std::vector<Value> keys;
  tree.Scan(nullptr, true, nullptr, true,
            [&](const Value& k, const std::vector<DocId>&) {
              keys.push_back(k);
            });
  ASSERT_EQ(keys.size(), 4u);
  for (size_t i = 0; i + 1 < keys.size(); ++i) {
    EXPECT_LT(keys[i].Compare(keys[i + 1]), 0);
  }
}

/// Differential test: a long random insert/remove sequence must track a
/// std::map reference exactly, with invariants intact throughout.
class BPlusTreeRandomTest : public ::testing::TestWithParam<int> {};

TEST_P(BPlusTreeRandomTest, MatchesReferenceUnderRandomOps) {
  const int seed = GetParam();
  Rng rng(static_cast<uint64_t>(seed));
  BPlusTree tree(8);
  std::map<int64_t, std::set<DocId>> ref;

  for (int step = 0; step < 2000; ++step) {
    const int64_t key = static_cast<int64_t>(rng.UniformInt(0, 150));
    const DocId id = static_cast<DocId>(rng.UniformInt(0, 10));
    if (rng.UniformInt(0, 99) < 60) {
      tree.Insert(Value(key), id);
      ref[key].insert(id);
    } else {
      const bool removed = tree.Remove(Value(key), id);
      const bool expected = ref.count(key) > 0 && ref[key].count(id) > 0;
      EXPECT_EQ(removed, expected) << "step " << step;
      if (expected) {
        ref[key].erase(id);
        if (ref[key].empty()) ref.erase(key);
      }
    }
    if (step % 100 == 0) {
      ASSERT_EQ(tree.CheckInvariants(), "") << step;
    }
  }
  ASSERT_EQ(tree.CheckInvariants(), "");
  EXPECT_EQ(tree.num_keys(), ref.size());

  // Exact-match parity.
  for (const auto& [key, ids] : ref) {
    const auto* postings = tree.Find(Value(key));
    ASSERT_NE(postings, nullptr) << key;
    std::set<DocId> got(postings->begin(), postings->end());
    EXPECT_EQ(got, ids) << key;
  }
  // Range parity on a few random intervals.
  for (int t = 0; t < 20; ++t) {
    const int64_t a = static_cast<int64_t>(rng.UniformInt(0, 150));
    const int64_t b = static_cast<int64_t>(rng.UniformInt(0, 150));
    const int64_t lo = std::min(a, b), hi = std::max(a, b);
    std::multiset<DocId> expected;
    for (auto it = ref.lower_bound(lo); it != ref.end() && it->first <= hi;
         ++it) {
      expected.insert(it->second.begin(), it->second.end());
    }
    const Value vlo(lo), vhi(hi);
    std::vector<DocId> got = tree.ScanIds(&vlo, true, &vhi, true);
    EXPECT_EQ(std::multiset<DocId>(got.begin(), got.end()), expected)
        << "[" << lo << "," << hi << "]";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BPlusTreeRandomTest,
                         ::testing::Values(1, 2, 3, 4, 5));

// ---------------------------------------------------------------------------
// RangeIndex + planner
// ---------------------------------------------------------------------------

namespace {

Document DatedDoc(const std::string& name, const std::string& date,
                  int64_t size) {
  Document d;
  d.Set("name", Value(name));
  Document props;
  props.Set("acquisition_date", Value(date));
  props.Set("size", Value(size));
  d.Set("properties", Value(props));
  return d;
}

}  // namespace

TEST(RangeIndexTest, DateRangeUsesIndex) {
  Collection coll("metadata");
  ASSERT_TRUE(coll.CreateRangeIndex("properties.acquisition_date").ok());
  for (int m = 1; m <= 12; ++m) {
    for (int day = 1; day <= 20; ++day) {
      char date[16];
      std::snprintf(date, sizeof(date), "2017-%02d-%02d", m, day);
      ASSERT_TRUE(
          coll.Insert(DatedDoc("p" + std::to_string(m * 100 + day), date,
                               m * day))
              .ok());
    }
  }
  QueryStats stats;
  auto ids = coll.FindIds(
      Filter::And({Filter::Gte("properties.acquisition_date", Value("2017-03-01")),
                   Filter::Lte("properties.acquisition_date", Value("2017-04-31"))}),
      0, &stats);
  EXPECT_EQ(ids.size(), 40u);  // months 3 and 4, 20 days each
  EXPECT_EQ(stats.plan, "IXSCAN(range:properties.acquisition_date)");
  // The combined-interval plan only touches the interval's documents.
  EXPECT_EQ(stats.index_candidates, 40u);
}

TEST(RangeIndexTest, SingleBoundPlansIndexScan) {
  Collection coll("metadata");
  ASSERT_TRUE(coll.CreateRangeIndex("properties.size").ok());
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(coll.Insert(DatedDoc("p" + std::to_string(i), "2017-06-01",
                                     i)).ok());
  }
  QueryStats stats;
  auto ids = coll.FindIds(Filter::Gt("properties.size", Value(89)), 0, &stats);
  EXPECT_EQ(ids.size(), 10u);
  EXPECT_EQ(stats.plan, "IXSCAN(range:properties.size)");

  ids = coll.FindIds(Filter::Lt("properties.size", Value(10)), 0, &stats);
  EXPECT_EQ(ids.size(), 10u);
  EXPECT_EQ(stats.plan, "IXSCAN(range:properties.size)");
}

TEST(RangeIndexTest, EqualityUsesRangeIndexWhenNoHashIndex) {
  Collection coll("metadata");
  ASSERT_TRUE(coll.CreateRangeIndex("properties.size").ok());
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(coll.Insert(DatedDoc("p" + std::to_string(i), "2017-06-01",
                                     i % 5)).ok());
  }
  QueryStats stats;
  auto ids = coll.FindIds(Filter::Eq("properties.size", Value(3)), 0, &stats);
  EXPECT_EQ(ids.size(), 10u);
  EXPECT_EQ(stats.plan, "IXSCAN(range:properties.size)");
}

TEST(RangeIndexTest, MaintainedAcrossUpdateAndRemove) {
  Collection coll("metadata");
  ASSERT_TRUE(coll.CreateRangeIndex("properties.size").ok());
  auto id = coll.Insert(DatedDoc("a", "2017-06-01", 5));
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(coll.Update(*id, DatedDoc("a", "2017-06-01", 50)).ok());
  QueryStats stats;
  EXPECT_TRUE(coll.FindIds(Filter::Eq("properties.size", Value(5)), 0,
                           &stats).empty());
  EXPECT_EQ(coll.FindIds(Filter::Eq("properties.size", Value(50))).size(), 1u);
  ASSERT_TRUE(coll.Remove(*id).ok());
  EXPECT_TRUE(coll.FindIds(Filter::Eq("properties.size", Value(50))).empty());
}

TEST(RangeIndexTest, DuplicateCreateRejected) {
  Collection coll("c");
  ASSERT_TRUE(coll.CreateRangeIndex("f").ok());
  EXPECT_TRUE(coll.CreateRangeIndex("f").IsAlreadyExists());
}

TEST(RangeIndexTest, SurvivesDatabasePersistence) {
  const std::string path = "/tmp/agoraeo_range_persist.bin";
  {
    Database db;
    Collection* coll = db.GetOrCreateCollection("metadata");
    ASSERT_TRUE(coll->CreateRangeIndex("properties.size").ok());
    for (int i = 0; i < 30; ++i) {
      ASSERT_TRUE(coll->Insert(DatedDoc("p" + std::to_string(i),
                                        "2017-06-01", i)).ok());
    }
    ASSERT_TRUE(db.SaveToFile(path).ok());
  }
  Database db;
  ASSERT_TRUE(db.LoadFromFile(path).ok());
  Collection* coll = db.GetOrCreateCollection("metadata");
  QueryStats stats;
  auto ids = coll->FindIds(Filter::Gte("properties.size", Value(20)), 0,
                           &stats);
  EXPECT_EQ(ids.size(), 10u);
  EXPECT_EQ(stats.plan, "IXSCAN(range:properties.size)");
  std::remove(path.c_str());
}


// ---------------------------------------------------------------------------
// CRC32
// ---------------------------------------------------------------------------

TEST(Crc32Test, KnownVectors) {
  // Standard check value for the ASCII string "123456789".
  EXPECT_EQ(Crc32("123456789", 9), 0xCBF43926u);
  EXPECT_EQ(Crc32("", 0), 0x00000000u);
  EXPECT_EQ(Crc32("a", 1), 0xE8B7BE43u);
}

TEST(Crc32Test, IncrementalMatchesOneShot) {
  const std::string data = "the quick brown fox jumps over the lazy dog";
  const uint32_t whole = Crc32(data.data(), data.size());
  uint32_t inc = 0;
  inc = Crc32Update(inc, data.data(), 10);
  inc = Crc32Update(inc, data.data() + 10, data.size() - 10);
  EXPECT_EQ(inc, whole);
}

TEST(Crc32Test, DetectsSingleBitFlip) {
  std::vector<uint8_t> data(64, 0xAB);
  const uint32_t original = Crc32(data);
  for (size_t byte = 0; byte < data.size(); byte += 13) {
    data[byte] ^= 0x04;
    EXPECT_NE(Crc32(data), original) << byte;
    data[byte] ^= 0x04;
  }
}

// ---------------------------------------------------------------------------
// Write-ahead log + DurableDatabase
// ---------------------------------------------------------------------------

namespace {

/// Scratch directory for one WAL test; wiped at construction.
class WalDir {
 public:
  explicit WalDir(const std::string& name)
      : path_("/tmp/agoraeo_wal_" + name) {
    std::remove((path_ + "/snapshot.bin").c_str());
    std::remove((path_ + "/wal.log").c_str());
    (void)!system(("mkdir -p " + path_).c_str());
  }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

Document NamedDoc(const std::string& name, int64_t n) {
  Document d;
  d.Set("name", Value(name));
  d.Set("n", Value(n));
  return d;
}

/// Truncates a file to `keep` bytes (simulates a crash mid-append).
void TruncateFile(const std::string& path, size_t keep) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::fseek(f, 0, SEEK_END);
  const long size = std::ftell(f);
  ASSERT_GE(static_cast<size_t>(size), keep);
  std::fseek(f, 0, SEEK_SET);
  std::vector<uint8_t> bytes(keep);
  ASSERT_EQ(std::fread(bytes.data(), 1, keep, f), keep);
  std::fclose(f);
  f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fwrite(bytes.data(), 1, keep, f), keep);
  std::fclose(f);
}

size_t FileSize(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return 0;
  std::fseek(f, 0, SEEK_END);
  const long size = std::ftell(f);
  std::fclose(f);
  return static_cast<size_t>(size);
}

}  // namespace

TEST(WalTest, MutationsSurviveReopen) {
  WalDir dir("reopen");
  DocId id2;
  {
    DurableDatabase ddb(dir.path());
    ASSERT_TRUE(ddb.Open().ok());
    ASSERT_TRUE(ddb.CreateHashIndex("meta", "name", /*unique=*/true).ok());
    ASSERT_TRUE(ddb.Insert("meta", NamedDoc("a", 1)).ok());
    auto id = ddb.Insert("meta", NamedDoc("b", 2));
    ASSERT_TRUE(id.ok());
    id2 = *id;
    ASSERT_TRUE(ddb.Insert("meta", NamedDoc("c", 3)).ok());
    ASSERT_TRUE(ddb.Update("meta", id2, NamedDoc("b", 20)).ok());
    EXPECT_EQ(ddb.journal_records(), 5u);
  }  // no checkpoint: recovery is journal-only
  DurableDatabase ddb(dir.path());
  ASSERT_TRUE(ddb.Open().ok());
  EXPECT_FALSE(ddb.recovered_torn_tail());
  const Collection* meta = ddb.db().GetCollection("meta");
  ASSERT_NE(meta, nullptr);
  EXPECT_EQ(meta->size(), 3u);
  auto found = meta->FindOneId(Filter::Eq("name", Value("b")));
  ASSERT_TRUE(found.ok());
  EXPECT_EQ(meta->Get(*found)->Get("n")->as_int64(), 20);
  // The unique index definition was journaled too.
  EXPECT_TRUE(ddb.Insert("meta", NamedDoc("a", 9)).status().IsAlreadyExists());
}

TEST(WalTest, CheckpointTruncatesJournal) {
  WalDir dir("checkpoint");
  DurableDatabase ddb(dir.path());
  ASSERT_TRUE(ddb.Open().ok());
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(ddb.Insert("meta", NamedDoc("p" + std::to_string(i), i)).ok());
  }
  EXPECT_GT(FileSize(ddb.wal_path()), 0u);
  ASSERT_TRUE(ddb.Checkpoint().ok());
  EXPECT_EQ(FileSize(ddb.wal_path()), 0u);
  EXPECT_GT(FileSize(ddb.snapshot_path()), 0u);

  // Post-checkpoint mutations land in the fresh journal; reopen restores
  // snapshot + tail.
  ASSERT_TRUE(ddb.Insert("meta", NamedDoc("tail", 99)).ok());
  DurableDatabase reopened(dir.path());
  ASSERT_TRUE(reopened.Open().ok());
  EXPECT_EQ(reopened.db().GetCollection("meta")->size(), 11u);
}

TEST(WalTest, TornTailDiscardedButPrefixRecovered) {
  WalDir dir("torn");
  {
    DurableDatabase ddb(dir.path());
    ASSERT_TRUE(ddb.Open().ok());
    for (int i = 0; i < 5; ++i) {
      ASSERT_TRUE(
          ddb.Insert("meta", NamedDoc("p" + std::to_string(i), i)).ok());
    }
  }
  // Chop off the last 3 bytes: the final frame is torn.
  const std::string wal = dir.path() + "/wal.log";
  TruncateFile(wal, FileSize(wal) - 3);

  DurableDatabase ddb(dir.path());
  ASSERT_TRUE(ddb.Open().ok());
  EXPECT_TRUE(ddb.recovered_torn_tail());
  EXPECT_EQ(ddb.db().GetCollection("meta")->size(), 4u);  // prefix intact
}

TEST(WalTest, CorruptMiddleRecordStopsReplayAtPrefix) {
  WalDir dir("corrupt");
  {
    DurableDatabase ddb(dir.path());
    ASSERT_TRUE(ddb.Open().ok());
    for (int i = 0; i < 5; ++i) {
      ASSERT_TRUE(
          ddb.Insert("meta", NamedDoc("p" + std::to_string(i), i)).ok());
    }
  }
  // Flip one payload byte in the middle of the file.
  const std::string wal = dir.path() + "/wal.log";
  std::FILE* f = std::fopen(wal.c_str(), "rb+");
  ASSERT_NE(f, nullptr);
  std::fseek(f, static_cast<long>(FileSize(wal) / 2), SEEK_SET);
  uint8_t b = 0;
  ASSERT_EQ(std::fread(&b, 1, 1, f), 1u);
  std::fseek(f, -1, SEEK_CUR);
  b ^= 0xFF;
  ASSERT_EQ(std::fwrite(&b, 1, 1, f), 1u);
  std::fclose(f);

  DurableDatabase ddb(dir.path());
  ASSERT_TRUE(ddb.Open().ok());
  EXPECT_TRUE(ddb.recovered_torn_tail());
  EXPECT_LT(ddb.db().GetCollection("meta")->size(), 5u);
}

TEST(WalTest, RemoveJournaled) {
  WalDir dir("remove");
  {
    DurableDatabase ddb(dir.path());
    ASSERT_TRUE(ddb.Open().ok());
    auto id = ddb.Insert("meta", NamedDoc("gone", 1));
    ASSERT_TRUE(id.ok());
    ASSERT_TRUE(ddb.Insert("meta", NamedDoc("kept", 2)).ok());
    ASSERT_TRUE(ddb.Remove("meta", *id).ok());
  }
  DurableDatabase ddb(dir.path());
  ASSERT_TRUE(ddb.Open().ok());
  EXPECT_EQ(ddb.db().GetCollection("meta")->size(), 1u);
  EXPECT_TRUE(ddb.db()
                  .GetCollection("meta")
                  ->FindOneId(Filter::Eq("name", Value("kept")))
                  .ok());
}

TEST(WalTest, ReplayReassignsSameDocIds) {
  WalDir dir("ids");
  std::vector<DocId> original;
  {
    DurableDatabase ddb(dir.path());
    ASSERT_TRUE(ddb.Open().ok());
    for (int i = 0; i < 8; ++i) {
      auto id = ddb.Insert("meta", NamedDoc("p" + std::to_string(i), i));
      ASSERT_TRUE(id.ok());
      original.push_back(*id);
    }
    // Interleave removes so the id sequence has gaps.
    ASSERT_TRUE(ddb.Remove("meta", original[2]).ok());
    ASSERT_TRUE(ddb.Remove("meta", original[5]).ok());
  }
  DurableDatabase ddb(dir.path());
  ASSERT_TRUE(ddb.Open().ok());
  const Collection* meta = ddb.db().GetCollection("meta");
  ASSERT_NE(meta, nullptr);
  EXPECT_EQ(meta->size(), 6u);
  for (size_t i = 0; i < original.size(); ++i) {
    if (i == 2 || i == 5) {
      EXPECT_EQ(meta->Get(original[i]), nullptr) << i;
    } else {
      ASSERT_NE(meta->Get(original[i]), nullptr) << i;
      EXPECT_EQ(meta->Get(original[i])->Get("n")->as_int64(),
                static_cast<int64_t>(i));
    }
  }
}

TEST(WalTest, AppendWithoutOpenFails) {
  WalWriter wal;
  WalRecord r;
  r.op = WalRecord::Op::kInsert;
  r.collection = "x";
  EXPECT_TRUE(wal.Append(r).IsFailedPrecondition());
}


// ---------------------------------------------------------------------------
// Aggregation pipeline
// ---------------------------------------------------------------------------

namespace {

/// A small metadata-like collection: country, labels array, cloud cover.
void FillAggCollection(Collection* coll) {
  struct Row {
    const char* country;
    std::vector<std::string> labels;
    double cloud;
  };
  const std::vector<Row> rows = {
      {"Portugal", {"Beaches", "Sea"}, 0.1},
      {"Portugal", {"Vineyards"}, 0.3},
      {"Portugal", {"Beaches", "Vineyards"}, 0.2},
      {"Austria", {"Pastures", "Forest"}, 0.6},
      {"Austria", {"Forest"}, 0.4},
      {"Finland", {"Forest", "Peatbogs"}, 0.8},
  };
  for (const Row& r : rows) {
    Document d;
    Document props;
    props.Set("country", Value(r.country));
    props.Set("labels", MakeStringArray(r.labels));
    props.Set("cloud", Value(r.cloud));
    d.Set("properties", Value(props));
    ASSERT_TRUE(coll->Insert(std::move(d)).ok());
  }
}

}  // namespace

TEST(PipelineTest, EmptyPipelinePassesEverything) {
  Collection coll("agg");
  FillAggCollection(&coll);
  auto out = Pipeline().Run(coll);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->size(), 6u);
}

TEST(PipelineTest, MatchFiltersDocuments) {
  Collection coll("agg");
  FillAggCollection(&coll);
  auto out = Pipeline()
                 .Match(Filter::Eq("properties.country", Value("Portugal")))
                 .Run(coll);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->size(), 3u);
}

TEST(PipelineTest, UnwindExpandsArrays) {
  Collection coll("agg");
  FillAggCollection(&coll);
  auto out = Pipeline().Unwind("properties.labels").Run(coll);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->size(), 10u);  // total label occurrences
  // Every unwound document carries a scalar label.
  for (const Document& d : *out) {
    const Value* v = d.GetPath("properties.labels");
    ASSERT_NE(v, nullptr);
    EXPECT_TRUE(v->is_string());
  }
}

TEST(PipelineTest, GroupCountMatchesCountByArrayField) {
  Collection coll("agg");
  FillAggCollection(&coll);
  auto out = Pipeline()
                 .Unwind("properties.labels")
                 .Group("properties.labels", {Accumulator::Count("count")})
                 .Run(coll);
  ASSERT_TRUE(out.ok());
  const auto reference = coll.CountByArrayField("properties.labels",
                                                Filter::True());
  ASSERT_EQ(out->size(), reference.size());
  for (const Document& d : *out) {
    const std::string label = d.Get("_id")->as_string();
    ASSERT_TRUE(reference.count(label)) << label;
    EXPECT_EQ(static_cast<size_t>(d.Get("count")->as_int64()),
              reference.at(label))
        << label;
  }
}

TEST(PipelineTest, LabelStatisticsShapeSortedDescending) {
  Collection coll("agg");
  FillAggCollection(&coll);
  auto out = Pipeline()
                 .Unwind("properties.labels")
                 .Group("properties.labels", {Accumulator::Count("count")})
                 .Sort("count", /*ascending=*/false)
                 .Limit(2)
                 .Run(coll);
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out->size(), 2u);
  EXPECT_EQ((*out)[0].Get("_id")->as_string(), "Forest");  // 3 occurrences
  EXPECT_EQ((*out)[0].Get("count")->as_int64(), 3);
  EXPECT_GE((*out)[0].Get("count")->as_int64(),
            (*out)[1].Get("count")->as_int64());
}

TEST(PipelineTest, GroupSumAvgMinMax) {
  Collection coll("agg");
  FillAggCollection(&coll);
  auto out = Pipeline()
                 .Group("properties.country",
                        {Accumulator::Count("n"),
                         Accumulator::Sum("total_cloud", "properties.cloud"),
                         Accumulator::Avg("avg_cloud", "properties.cloud"),
                         Accumulator::Min("min_cloud", "properties.cloud"),
                         Accumulator::Max("max_cloud", "properties.cloud")})
                 .Sort("_id", /*ascending=*/true)
                 .Run(coll);
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out->size(), 3u);
  const Document& austria = (*out)[0];
  EXPECT_EQ(austria.Get("_id")->as_string(), "Austria");
  EXPECT_EQ(austria.Get("n")->as_int64(), 2);
  EXPECT_NEAR(austria.Get("total_cloud")->as_double(), 1.0, 1e-9);
  EXPECT_NEAR(austria.Get("avg_cloud")->as_double(), 0.5, 1e-9);
  EXPECT_NEAR(austria.Get("min_cloud")->as_number(), 0.4, 1e-9);
  EXPECT_NEAR(austria.Get("max_cloud")->as_number(), 0.6, 1e-9);
}

TEST(PipelineTest, MatchAfterGroupFiltersGroups) {
  Collection coll("agg");
  FillAggCollection(&coll);
  auto out = Pipeline()
                 .Unwind("properties.labels")
                 .Group("properties.labels", {Accumulator::Count("count")})
                 .Match(Filter::Gte("count", Value(2)))
                 .Run(coll);
  ASSERT_TRUE(out.ok());
  // Labels occurring at least twice: Beaches (2), Vineyards (2), Forest (3).
  EXPECT_EQ(out->size(), 3u);
}

TEST(PipelineTest, ProjectKeepsOnlyListedFields) {
  Collection coll("agg");
  FillAggCollection(&coll);
  auto out = Pipeline()
                 .Group("properties.country", {Accumulator::Count("n")})
                 .Project({"_id"})
                 .Run(coll);
  ASSERT_TRUE(out.ok());
  for (const Document& d : *out) {
    EXPECT_EQ(d.size(), 1u);
    EXPECT_TRUE(d.Has("_id"));
  }
}

TEST(PipelineTest, GroupMissingPathGroupsUnderNull) {
  Collection coll("agg");
  Document with, without;
  with.Set("k", Value("x"));
  ASSERT_TRUE(coll.Insert(with).ok());
  ASSERT_TRUE(coll.Insert(without).ok());
  auto out =
      Pipeline().Group("k", {Accumulator::Count("n")}).Sort("_id").Run(coll);
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out->size(), 2u);
  EXPECT_TRUE((*out)[0].Get("_id")->is_null());
}

TEST(PipelineTest, EmptyOutputFieldRejected) {
  Collection coll("agg");
  FillAggCollection(&coll);
  auto out = Pipeline().Group("properties.country",
                              {Accumulator::Count("")}).Run(coll);
  EXPECT_TRUE(out.status().IsInvalidArgument());
}

TEST(PipelineTest, SetDottedPathCreatesNestedDocs) {
  Document d;
  SetDottedPath(&d, "a.b.c", Value(7));
  const Value* v = d.GetPath("a.b.c");
  ASSERT_NE(v, nullptr);
  EXPECT_EQ(v->as_int64(), 7);
  // Overwriting a leaf keeps siblings.
  SetDottedPath(&d, "a.b.d", Value(8));
  EXPECT_EQ(d.GetPath("a.b.c")->as_int64(), 7);
  EXPECT_EQ(d.GetPath("a.b.d")->as_int64(), 8);
}


// ---------------------------------------------------------------------------
// Filter algebra laws (property tests)
// ---------------------------------------------------------------------------

namespace {

/// A random document over a small vocabulary so predicates hit often.
Document RandomDoc(Rng* rng) {
  Document d;
  d.Set("kind", Value(static_cast<int64_t>(rng->UniformInt(4u))));
  d.Set("score", Value(static_cast<double>(rng->UniformInt(100u)) / 10.0));
  if (rng->UniformInt(10u) < 8) {
    std::vector<Value> tags;
    const char* vocab[] = {"a", "b", "c", "d"};
    for (int t = 0; t < 3; ++t) {
      if (rng->UniformInt(2u)) tags.emplace_back(vocab[rng->UniformInt(4u)]);
    }
    d.Set("tags", Value(std::move(tags)));
  }
  return d;
}

/// A random leaf predicate over the RandomDoc schema.
Filter RandomLeaf(Rng* rng) {
  switch (rng->UniformInt(6u)) {
    case 0: return Filter::Eq("kind", Value(static_cast<int64_t>(rng->UniformInt(4u))));
    case 1: return Filter::Gt("score", Value(static_cast<double>(rng->UniformInt(10u))));
    case 2: return Filter::Lte("score", Value(static_cast<double>(rng->UniformInt(10u))));
    case 3: return Filter::Eq("tags", Value("b"));
    case 4: return Filter::Exists("tags");
    default: return Filter::In("tags", {Value("a"), Value("c")});
  }
}

}  // namespace

class FilterAlgebraTest : public ::testing::TestWithParam<int> {};

TEST_P(FilterAlgebraTest, BooleanLawsHoldOnRandomDocs) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 77 + 5);
  for (int trial = 0; trial < 200; ++trial) {
    const Document doc = RandomDoc(&rng);
    const Filter a = RandomLeaf(&rng);
    const Filter b = RandomLeaf(&rng);
    const bool va = a.Matches(doc);
    const bool vb = b.Matches(doc);

    // Double negation.
    EXPECT_EQ(Filter::Not(Filter::Not(a)).Matches(doc), va);
    // De Morgan, both directions.
    EXPECT_EQ(Filter::Not(Filter::And({a, b})).Matches(doc),
              Filter::Or({Filter::Not(a), Filter::Not(b)}).Matches(doc));
    EXPECT_EQ(Filter::Not(Filter::Or({a, b})).Matches(doc),
              Filter::And({Filter::Not(a), Filter::Not(b)}).Matches(doc));
    // And/Or truth tables against direct evaluation.
    EXPECT_EQ(Filter::And({a, b}).Matches(doc), va && vb);
    EXPECT_EQ(Filter::Or({a, b}).Matches(doc), va || vb);
    // Identity elements.
    EXPECT_EQ(Filter::And({a, Filter::True()}).Matches(doc), va);
    EXPECT_EQ(Filter::Or({a, Filter::Not(Filter::True())}).Matches(doc), va);
  }
}

TEST_P(FilterAlgebraTest, PlannerAgreesWithCollectionScan) {
  // The planner (indexed path) and a COLLSCAN must produce identical
  // result sets for every random conjunctive query.
  Rng rng(static_cast<uint64_t>(GetParam()) * 131 + 9);
  Collection indexed("indexed");
  Collection plain("plain");
  ASSERT_TRUE(indexed.CreateMultikeyIndex("tags").ok());
  ASSERT_TRUE(indexed.CreateRangeIndex("score").ok());
  ASSERT_TRUE(indexed.CreateHashIndex("kind").ok());
  for (int i = 0; i < 400; ++i) {
    const Document doc = RandomDoc(&rng);
    ASSERT_TRUE(indexed.Insert(doc).ok());
    ASSERT_TRUE(plain.Insert(doc).ok());
  }
  for (int trial = 0; trial < 50; ++trial) {
    const Filter query = Filter::And({RandomLeaf(&rng), RandomLeaf(&rng)});
    QueryStats indexed_stats, plain_stats;
    const auto from_indexed = indexed.FindIds(query, 0, &indexed_stats);
    const auto from_plain = plain.FindIds(query, 0, &plain_stats);
    EXPECT_EQ(from_indexed, from_plain) << query.ToString();
    EXPECT_EQ(plain_stats.plan, "COLLSCAN");
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FilterAlgebraTest, ::testing::Values(1, 2, 3));

// ---------------------------------------------------------------------------
// Conjunction planner parity: intersected posting lists vs brute force
// ---------------------------------------------------------------------------

class PlannerParityTest : public ::testing::TestWithParam<int> {};

/// A leaf over the parity collection's fields: hash `bucket`, multikey
/// `tags` and `season`, range `day` and the array-valued range `scores`,
/// geo `loc` and unindexed `color`.
/// Some leaves name values no document holds, so empty results occur.
Filter ParityLeaf(Rng* rng) {
  const auto tag = [rng] {
    // "t12" and "t13" are never stored.
    return Value("t" + std::to_string(rng->UniformInt(14u)));
  };
  const auto day = [rng] {
    return Value(static_cast<int64_t>(rng->UniformInt(380u)));
  };
  switch (rng->UniformInt(14u)) {
    case 0:
      return Filter::Eq("bucket",
                        Value(static_cast<int64_t>(rng->UniformInt(220u))));
    case 1:
      return Filter::In("tags", {tag(), tag()});
    case 2:
      return Filter::All("tags", {tag(), tag()});
    case 3:
      return Filter::Eq("tags", tag());
    case 4:
      return Filter::Gte("day", day());
    case 5:
      return Filter::Lt("day", day());
    case 6: {
      const int64_t lo = rng->UniformInt(365u);
      return Filter::And(
          {Filter::Gte("day", Value(lo)),
           Filter::Lte("day", Value(lo + rng->UniformInt(120u)))});
    }
    case 7:
      return Filter::Eq("day", day());
    case 8: {
      const double lat = 40.0 + rng->Uniform(0.0, 2.0);
      const double lon = -8.0 + rng->Uniform(0.0, 2.0);
      return Filter::GeoIntersects(
          "loc", {{lat, lon},
                  {lat + rng->Uniform(0.05, 1.0), lon + rng->Uniform(0.05, 1.0)}});
    }
    case 9:
      return Filter::Eq("color", Value(rng->Bernoulli(0.5) ? "red" : "blue"));
    case 10:
      return Filter::In("season", {Value(rng->Bernoulli(0.5) ? "Winter" : "Summer"),
                                   Value("Spring")});
    case 11:
      return Filter::Gte("scores",
                         Value(static_cast<int64_t>(rng->UniformInt(100u))));
    case 12:
      return Filter::Lte("scores",
                         Value(static_cast<int64_t>(rng->UniformInt(100u))));
    default:
      return Filter::Eq("season", Value("Autumn"));
  }
}

TEST_P(PlannerParityTest, FindIdsAndCountMatchBruteForce) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 7919 + 5);
  Collection coll("parity");
  ASSERT_TRUE(coll.CreateHashIndex("bucket").ok());
  ASSERT_TRUE(coll.CreateMultikeyIndex("tags").ok());
  ASSERT_TRUE(coll.CreateMultikeyIndex("season").ok());
  ASSERT_TRUE(coll.CreateRangeIndex("day").ok());
  ASSERT_TRUE(coll.CreateRangeIndex("scores").ok());
  ASSERT_TRUE(coll.CreateGeoIndex("loc", 5).ok());
  const char* seasons[] = {"Winter", "Spring", "Summer", "Autumn"};
  for (int i = 0; i < 5000; ++i) {
    Document d;
    d.Set("bucket", Value(static_cast<int64_t>(rng.UniformInt(200u))));
    std::vector<Value> tags;
    for (int t = 0; t < 12; ++t) {
      // Skewed vocabulary: t0 is on about half the documents, t11 on few.
      if (rng.UniformInt(24u) < static_cast<uint32_t>(12 - t)) {
        tags.emplace_back("t" + std::to_string(t));
      }
    }
    d.Set("tags", Value(std::move(tags)));
    d.Set("season", Value(seasons[rng.UniformInt(4u)]));
    d.Set("day", Value(static_cast<int64_t>(rng.UniformInt(365u))));
    std::vector<Value> scores;
    for (uint32_t n = 1 + rng.UniformInt(3u); n > 0; --n) {
      scores.emplace_back(static_cast<int64_t>(rng.UniformInt(100u)));
    }
    d.Set("scores", Value(std::move(scores)));
    const double lat = 40.0 + rng.Uniform(0.0, 3.0);
    const double lon = -8.0 + rng.Uniform(0.0, 3.0);
    Document loc;
    loc.Set("min_lat", Value(lat));
    loc.Set("min_lon", Value(lon));
    loc.Set("max_lat", Value(lat + 0.01));
    loc.Set("max_lon", Value(lon + 0.01));
    d.Set("loc", Value(std::move(loc)));
    d.Set("color", Value(rng.Bernoulli(0.3) ? "red" : "blue"));
    ASSERT_TRUE(coll.Insert(std::move(d)).ok());
  }
  size_t empty_results = 0, multi_index_plans = 0;
  for (int trial = 0; trial < 150; ++trial) {
    std::vector<Filter> leaves;
    const uint32_t width = 1 + rng.UniformInt(4u);
    for (uint32_t i = 0; i < width; ++i) {
      Filter leaf = ParityLeaf(&rng);
      // Fold generated date windows into the top-level conjunction.
      if (leaf.op() == Filter::Op::kAnd) {
        for (const Filter& c : leaf.children()) leaves.push_back(c);
      } else {
        leaves.push_back(std::move(leaf));
      }
    }
    const Filter filter =
        leaves.size() == 1 ? leaves[0] : Filter::And(std::move(leaves));
    std::vector<DocId> reference;
    for (const auto& [id, doc] : coll.docs()) {
      if (filter.Matches(doc)) reference.push_back(id);
    }
    if (reference.empty()) ++empty_results;
    for (size_t limit : {size_t{0}, size_t{1}, size_t{7}}) {
      QueryStats stats;
      const std::vector<DocId> got = coll.FindIds(filter, limit, &stats);
      std::vector<DocId> want = reference;
      if (limit != 0 && want.size() > limit) want.resize(limit);
      ASSERT_EQ(got, want) << filter.ToString() << " limit " << limit;
      if (stats.plan != "COLLSCAN") {
        EXPECT_LE(stats.docs_examined, stats.index_candidates)
            << filter.ToString();
      }
      if (limit == 0 && stats.plan.rfind("IXAND(", 0) == 0) {
        ++multi_index_plans;
      }
    }
    QueryStats count_stats;
    EXPECT_EQ(coll.Count(filter, &count_stats), reference.size())
        << filter.ToString();
  }
  // The generator must reach both corners it exists for.
  EXPECT_GT(empty_results, 0u);
  EXPECT_GT(multi_index_plans, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PlannerParityTest, ::testing::Values(1, 2, 3));

TEST(PlannerProbeTest, PostingListsProbedInPlaceExamineOnlyMatches) {
  // A two-sided date range plus a label: the interval drives (it is the
  // smaller list) and the label list is probed, so every examined
  // document matches.
  Collection coll("metadata");
  ASSERT_TRUE(coll.CreateMultikeyIndex("properties.labels").ok());
  ASSERT_TRUE(coll.CreateRangeIndex("properties.date_ordinal").ok());
  for (int i = 0; i < 1000; ++i) {
    std::vector<std::string> labels = {i % 4 == 0 ? "A" : "B"};
    ASSERT_TRUE(coll.Insert(MakePatchDoc("p" + std::to_string(i), 40.0, -8.0,
                                         labels, "Portugal", i))
                    .ok());
  }
  QueryStats stats;
  const auto ids = coll.FindIds(
      Filter::And({Filter::Gte("properties.date_ordinal", Value(0)),
                   Filter::Lte("properties.date_ordinal", Value(99)),
                   Filter::Eq("properties.labels", Value("A"))}),
      0, &stats);
  EXPECT_EQ(ids.size(), 25u);
  EXPECT_EQ(stats.plan,
            "IXAND(range:properties.date_ordinal, multikey:properties.labels)");
  EXPECT_EQ(stats.index_candidates, 100u);
  EXPECT_EQ(stats.docs_examined, 25u);
}

// ---------------------------------------------------------------------------
// Field histograms and the count-only cardinality estimator
// ---------------------------------------------------------------------------

TEST(FieldHistogramTest, AddRemoveAndRangeEstimates) {
  FieldHistogram hist(8);
  for (int i = 0; i < 100; ++i) hist.Add(i);
  EXPECT_EQ(hist.total(), 100u);
  // Upper bound that tightens with the interval; unbounded = everything.
  EXPECT_EQ(hist.EstimateRange(std::nullopt, std::nullopt), 100u);
  EXPECT_GE(hist.EstimateRange(90.0, std::nullopt), 10u);
  EXPECT_LT(hist.EstimateRange(90.0, std::nullopt), 60u);
  EXPECT_EQ(hist.EstimateRange(200.0, 300.0), 0u);
  EXPECT_EQ(hist.EstimateRange(std::nullopt, -1.0), 0u);
  for (int i = 0; i < 50; ++i) hist.Remove(i);
  EXPECT_EQ(hist.total(), 50u);
  EXPECT_EQ(hist.EstimateRange(std::nullopt, std::nullopt), 50u);
}

TEST(FieldHistogramTest, WidensToCoverAnyFiniteRange) {
  FieldHistogram hist(4);
  hist.Add(0.5);
  hist.Add(1e6);     // forces many doublings
  hist.Add(-2000.0);  // and a widening below the anchor
  EXPECT_EQ(hist.total(), 3u);
  EXPECT_EQ(hist.EstimateRange(std::nullopt, std::nullopt), 3u);
  // No count is lost in the re-bucketing.
  EXPECT_GE(hist.EstimateRange(-3000.0, 0.0), 1u);
  EXPECT_GE(hist.EstimateRange(900000.0, 1.1e6), 1u);
}

TEST(EstimateMatchesTest, EqualityEstimateEqualsPostingListLength) {
  Collection coll("metadata");
  ASSERT_TRUE(coll.CreateHashIndex("name").ok());
  for (int i = 0; i < 40; ++i) {
    ASSERT_TRUE(
        coll.Insert(DatedDoc("p" + std::to_string(i % 4), "2017-06-01", i))
            .ok());
  }
  std::string plan;
  EXPECT_EQ(coll.EstimateMatches(Filter::Eq("name", Value("p1")), &plan), 10u);
  EXPECT_EQ(plan, "IXSCAN(hash:name)");
  EXPECT_EQ(coll.EstimateMatches(Filter::Eq("name", Value("nope")), &plan),
            0u);
}

TEST(EstimateMatchesTest, RangeFiltersUseTheHistogram) {
  Collection coll("metadata");
  ASSERT_TRUE(coll.CreateRangeIndex("properties.size").ok());
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(
        coll.Insert(DatedDoc("p" + std::to_string(i), "2017-06-01", i)).ok());
  }
  const size_t truth =
      coll.Count(Filter::Gte("properties.size", Value(180)));
  std::string plan;
  const size_t estimate =
      coll.EstimateMatches(Filter::Gte("properties.size", Value(180)), &plan);
  EXPECT_EQ(plan, "HISTOGRAM(properties.size)");
  EXPECT_GE(estimate, truth);            // upper bound...
  EXPECT_LE(estimate, coll.size());      // ...capped at the collection
  EXPECT_LT(estimate, coll.size() / 2);  // and far tighter than COLLSCAN

  // Conjunctions combine bounds into one interval estimate.
  const size_t window = coll.EstimateMatches(
      Filter::And({Filter::Gte("properties.size", Value(100)),
                   Filter::Lt("properties.size", Value(120))}),
      &plan);
  EXPECT_EQ(plan, "HISTOGRAM(properties.size)");
  EXPECT_GE(window, 20u);
  EXPECT_LT(window, 100u);
}

TEST(EstimateMatchesTest, HistogramTracksRemovalsAndUpdates) {
  Collection coll("metadata");
  ASSERT_TRUE(coll.CreateRangeIndex("properties.size").ok());
  std::vector<DocId> ids;
  for (int i = 0; i < 50; ++i) {
    auto id = coll.Insert(DatedDoc("p" + std::to_string(i), "2017-06-01", i));
    ASSERT_TRUE(id.ok());
    ids.push_back(*id);
  }
  ASSERT_NE(coll.HistogramFor("properties.size"), nullptr);
  EXPECT_EQ(coll.HistogramFor("properties.size")->total(), 50u);
  for (int i = 0; i < 25; ++i) ASSERT_TRUE(coll.Remove(ids[i]).ok());
  EXPECT_EQ(coll.HistogramFor("properties.size")->total(), 25u);
  ASSERT_TRUE(
      coll.Update(ids[30], DatedDoc("p30", "2017-06-01", 3000)).ok());
  EXPECT_EQ(coll.HistogramFor("properties.size")->total(), 25u);
  EXPECT_GE(coll.EstimateMatches(
                Filter::Gte("properties.size", Value(2000))),
            1u);
}

TEST(EstimateMatchesTest, NonNumericRangeKeysFallBackToIntervalCount) {
  Collection coll("metadata");
  ASSERT_TRUE(coll.CreateRangeIndex("properties.acquisition_date").ok());
  for (int d = 1; d <= 20; ++d) {
    char date[16];
    std::snprintf(date, sizeof(date), "2017-06-%02d", d);
    ASSERT_TRUE(coll.Insert(DatedDoc("p" + std::to_string(d), date, d)).ok());
  }
  std::string plan;
  const size_t estimate = coll.EstimateMatches(
      Filter::And(
          {Filter::Gte("properties.acquisition_date", Value("2017-06-05")),
           Filter::Lte("properties.acquisition_date", Value("2017-06-08"))}),
      &plan);
  // String keys have no histogram; the B+-tree interval count (no id
  // materialisation) answers instead.
  EXPECT_EQ(plan, "IXSCAN(range:properties.acquisition_date)");
  EXPECT_EQ(estimate, 4u);
}

TEST(FieldHistogramTest, HugeValuesClampInsteadOfOverflowing) {
  FieldHistogram hist(8);
  hist.Add(1.0);
  hist.Add(1e300);   // |v/width| would overflow int64 without clamping
  hist.Add(-1e300);
  EXPECT_EQ(hist.total(), 3u);
  EXPECT_EQ(hist.EstimateRange(std::nullopt, std::nullopt), 3u);
}

TEST(EstimateMatchesTest, MixedTypeRangePathSkipsHistogram) {
  // Value's type order ranks strings above every number, so Gt(number)
  // matches string entries too; with strings on the path the histogram
  // (numbers only) must NOT answer, or the upper bound would break.
  Collection coll("metadata");
  ASSERT_TRUE(coll.CreateRangeIndex("properties.size").ok());
  ASSERT_TRUE(coll.Insert(DatedDoc("n", "2017-06-01", 5)).ok());
  for (int i = 0; i < 9; ++i) {
    Document d;
    d.Set("name", Value("s" + std::to_string(i)));
    Document props;
    props.Set("size", Value(std::string("large")));
    d.Set("properties", Value(props));
    ASSERT_TRUE(coll.Insert(std::move(d)).ok());
  }
  const size_t truth = coll.Count(Filter::Gt("properties.size", Value(10)));
  ASSERT_EQ(truth, 9u);  // every string doc matches
  std::string plan;
  const size_t estimate =
      coll.EstimateMatches(Filter::Gt("properties.size", Value(10)), &plan);
  EXPECT_EQ(plan, "IXSCAN(range:properties.size)");  // not HISTOGRAM
  EXPECT_GE(estimate, truth);
}

TEST(EstimateMatchesTest, ZeroConjunctShortCircuits) {
  Collection coll("metadata");
  ASSERT_TRUE(coll.CreateHashIndex("name").ok());
  ASSERT_TRUE(coll.CreateRangeIndex("properties.size").ok());
  for (int i = 0; i < 30; ++i) {
    ASSERT_TRUE(
        coll.Insert(DatedDoc("p" + std::to_string(i), "2017-06-01", i)).ok());
  }
  std::string plan;
  EXPECT_EQ(coll.EstimateMatches(
                Filter::And({Filter::Eq("name", Value("missing")),
                             Filter::Gte("properties.size", Value(0))}),
                &plan),
            0u);
  EXPECT_EQ(plan, "IXSCAN(hash:name)");
}

TEST(EstimateMatchesTest, UnindexedFilterFallsBackToCollectionSize) {
  Collection coll("metadata");
  for (int i = 0; i < 12; ++i) {
    ASSERT_TRUE(
        coll.Insert(DatedDoc("p" + std::to_string(i), "2017-06-01", i)).ok());
  }
  std::string plan;
  EXPECT_EQ(coll.EstimateMatches(Filter::Eq("country", Value("AT")), &plan),
            12u);
  EXPECT_EQ(plan, "COLLSCAN");
}

}  // namespace
}  // namespace agoraeo::docstore
