#include "obs/trace.h"

#include <gtest/gtest.h>

#include "obs/context.h"

namespace dbrepair::obs {
namespace {

TEST(TracerTest, SpansNestInOpenOrder) {
  Tracer tracer;
  {
    Span repair(&tracer, "repair");
    { Span bind(&tracer, "bind"); }
    {
      Span build(&tracer, "build");
      { Span violations(&tracer, "violations"); }
      { Span fixes(&tracer, "fixes"); }
    }
    { Span solve(&tracer, "solve"); }
  }
  const auto roots = tracer.roots();
  ASSERT_EQ(roots.size(), 1u);
  const SpanNode& root = *roots[0];
  EXPECT_EQ(root.name, "repair");
  EXPECT_FALSE(root.open);
  ASSERT_EQ(root.children.size(), 3u);
  EXPECT_EQ(root.children[0]->name, "bind");
  EXPECT_EQ(root.children[1]->name, "build");
  EXPECT_EQ(root.children[2]->name, "solve");
  ASSERT_EQ(root.children[1]->children.size(), 2u);
  EXPECT_EQ(root.children[1]->children[0]->name, "violations");
  EXPECT_EQ(root.children[1]->children[1]->name, "fixes");
}

TEST(TracerTest, KeepsTheNewestRootsAndTheEvictedPaths) {
  ObsContext context;
  Tracer& tracer = context.tracer;
  {
    Span first(&tracer, "first");
    { Span child(&tracer, "child"); }
  }
  for (size_t i = 0; i < Tracer::kMaxRoots + 40; ++i) {
    Span batch(&tracer, "batch");
  }
  const auto roots = tracer.roots();
  ASSERT_EQ(roots.size(), Tracer::kMaxRoots);
  for (const SpanNode* root : roots) EXPECT_EQ(root->name, "batch");
  EXPECT_EQ(tracer.FindSpan("first"), nullptr);
  const auto evicted = tracer.evicted_phases();
  ASSERT_EQ(evicted.size(), 3u);
  EXPECT_EQ(evicted[0].first, "first");
  EXPECT_EQ(evicted[1].first, "first/child");
  EXPECT_EQ(evicted[2].first, "batch");

  // The snapshot's phases keep the evicted paths; its trace only the kept
  // roots.
  const Json snapshot = BuildRunSnapshot(context);
  EXPECT_NE(snapshot.Find("phases")->Find("first/child"), nullptr);
  EXPECT_EQ(snapshot.Find("trace")->AsArray().size(), Tracer::kMaxRoots);

  tracer.Clear();
  EXPECT_TRUE(tracer.roots().empty());
  EXPECT_TRUE(tracer.evicted_phases().empty());
}

TEST(TracerTest, FinishReturnsDurationAndIsIdempotent) {
  Tracer tracer;
  Span span(&tracer, "work");
  const double first = span.Finish();
  const double second = span.Finish();
  EXPECT_GE(first, 0.0);
  EXPECT_EQ(first, second);
  const SpanNode* node = tracer.FindSpan("work");
  ASSERT_NE(node, nullptr);
  EXPECT_DOUBLE_EQ(node->duration_seconds, first);
}

TEST(TracerTest, ChildDurationsBoundedByParent) {
  Tracer tracer;
  {
    Span outer(&tracer, "outer");
    { Span inner(&tracer, "inner"); }
  }
  const SpanNode* outer = tracer.FindSpan("outer");
  const SpanNode* inner = tracer.FindSpan("outer/inner");
  ASSERT_NE(outer, nullptr);
  ASSERT_NE(inner, nullptr);
  EXPECT_GE(inner->start_seconds, outer->start_seconds);
  EXPECT_LE(inner->duration_seconds, outer->duration_seconds + 1e-9);
}

TEST(TracerTest, CloseSpanPopsAbandonedChildren) {
  // An early error return destroys Span objects out of strict order; closing
  // a parent must finish any deeper spans still open.
  Tracer tracer;
  SpanNode* outer = tracer.OpenSpan("outer");
  tracer.OpenSpan("leaked");
  tracer.CloseSpan(outer);
  const SpanNode* leaked = tracer.FindSpan("outer/leaked");
  ASSERT_NE(leaked, nullptr);
  EXPECT_FALSE(leaked->open);
  // A fresh span after the close is a new root, not a child of "outer".
  { Span next(&tracer, "next"); }
  EXPECT_EQ(tracer.roots().size(), 2u);
  EXPECT_NE(tracer.FindSpan("next"), nullptr);
}

TEST(TracerTest, FindSpanByPath) {
  Tracer tracer;
  {
    Span a(&tracer, "a");
    Span b(&tracer, "b");
    Span c(&tracer, "c");
    c.Finish();
    b.Finish();
    a.Finish();
  }
  EXPECT_NE(tracer.FindSpan("a"), nullptr);
  EXPECT_NE(tracer.FindSpan("a/b"), nullptr);
  EXPECT_NE(tracer.FindSpan("a/b/c"), nullptr);
  EXPECT_EQ(tracer.FindSpan("a/c"), nullptr);
  EXPECT_EQ(tracer.FindSpan("nope"), nullptr);
}

TEST(TracerTest, ClearDropsEverything) {
  Tracer tracer;
  { Span s(&tracer, "s"); }
  EXPECT_EQ(tracer.roots().size(), 1u);
  tracer.Clear();
  EXPECT_TRUE(tracer.roots().empty());
  EXPECT_EQ(tracer.FindSpan("s"), nullptr);
}

TEST(TracerTest, FormatSpanTreeListsEveryNode) {
  Tracer tracer;
  {
    Span repair(&tracer, "repair");
    { Span build(&tracer, "build"); }
  }
  const std::string text = FormatSpanTrees(tracer);
  EXPECT_NE(text.find("repair"), std::string::npos) << text;
  EXPECT_NE(text.find("build"), std::string::npos) << text;
  EXPECT_NE(text.find("ms"), std::string::npos) << text;
}

TEST(TracerTest, SpanTreeToJsonShape) {
  Tracer tracer;
  {
    Span repair(&tracer, "repair");
    { Span solve(&tracer, "solve"); }
  }
  const Json json = SpanTreeToJson(*tracer.roots()[0]);
  EXPECT_EQ(json.Find("name")->AsString(), "repair");
  EXPECT_TRUE(json.Find("duration_s")->is_double());
  const Json* children = json.Find("children");
  ASSERT_NE(children, nullptr);
  ASSERT_EQ(children->AsArray().size(), 1u);
  EXPECT_EQ(children->AsArray()[0].Find("name")->AsString(), "solve");
}

TEST(TracerTest, OpenSpansReportElapsedInJsonAndText) {
  Tracer tracer;
  SpanNode* repair = tracer.OpenSpan("repair");
  SpanNode* solve = tracer.OpenSpan("solve");
  tracer.CloseSpan(solve);
  // "repair" is still open: a mid-run snapshot must say so and report
  // elapsed-so-far rather than duration 0.
  for (volatile int i = 0; i < 100000; ++i) {  // let some time pass
  }
  const double now = tracer.clock().SecondsSinceEpoch();
  const Json json = SpanTreeToJson(*tracer.roots()[0], now);
  const Json* open = json.Find("open");
  ASSERT_NE(open, nullptr);
  EXPECT_TRUE(open->AsBool());
  EXPECT_GT(json.Find("duration_s")->AsDouble(), 0.0);
  EXPECT_GE(now, json.Find("duration_s")->AsDouble());
  // The closed child reports its real duration and no "open" key.
  const Json& child = json.Find("children")->AsArray()[0];
  EXPECT_EQ(child.Find("open"), nullptr);

  const std::string text = FormatSpanTree(*tracer.roots()[0], now);
  EXPECT_NE(text.find("(open)"), std::string::npos) << text;

  // Without a reference time an open span's duration stays 0 (unknown).
  const Json unknown = SpanTreeToJson(*tracer.roots()[0]);
  EXPECT_DOUBLE_EQ(unknown.Find("duration_s")->AsDouble(), 0.0);
  tracer.CloseSpan(repair);
}

TEST(ScopedObsTest, InstallsAndRestoresCurrentContext) {
  ObsContext& base = CurrentObs();
  ObsContext local;
  {
    ScopedObs scoped(&local);
    EXPECT_EQ(&CurrentObs(), &local);
    // The default-tracer Span constructor writes into the installed context.
    { Span s("scoped-span"); }
    EXPECT_NE(local.tracer.FindSpan("scoped-span"), nullptr);
    ObsContext nested;
    {
      ScopedObs inner(&nested);
      EXPECT_EQ(&CurrentObs(), &nested);
    }
    EXPECT_EQ(&CurrentObs(), &local);
  }
  EXPECT_EQ(&CurrentObs(), &base);
  EXPECT_EQ(base.tracer.FindSpan("scoped-span"), nullptr);
}

}  // namespace
}  // namespace dbrepair::obs
